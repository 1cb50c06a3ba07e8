// Allocation-behavior tests for the data-plane fast path: the inline
// label stack (netbase::InlineVec) must keep stacks up to
// kInlineLabelStackDepth off the heap, and the steady-state MPLS swap
// path of the engine — and a warm prober's whole traceroute — must not
// allocate at all.
//
// This translation unit replaces the global allocation functions with
// counting wrappers; it must therefore stay its own test binary.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "gen/gns3.h"
#include "netbase/label.h"
#include "netbase/packet.h"
#include "probe/prober.h"
#include "sim/network.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace wormhole {
namespace {

using netbase::kInlineLabelStackDepth;
using netbase::LabelStack;
using netbase::LabelStackEntry;

/// Allocations performed by `fn`.
template <typename Fn>
std::uint64_t CountAllocations(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

LabelStackEntry Entry(std::uint32_t label) {
  LabelStackEntry lse;
  lse.label = label;
  lse.ttl = 42;
  return lse;
}

TEST(InlineLabelStack, StaysInlineUpToTheDepthBound) {
  const std::uint64_t allocs = CountAllocations([] {
    LabelStack stack;
    for (std::uint32_t i = 0; i < kInlineLabelStackDepth; ++i) {
      stack.push_back(Entry(16 + i));
    }
    EXPECT_TRUE(stack.is_inline());
    EXPECT_EQ(stack.size(), kInlineLabelStackDepth);
    EXPECT_EQ(stack.back().label, 16 + kInlineLabelStackDepth - 1);
    while (!stack.empty()) stack.pop_back();
    EXPECT_TRUE(stack.is_inline());
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(InlineLabelStack, SpillsToTheHeapPastTheDepthBound) {
  LabelStack stack;
  for (std::uint32_t i = 0; i < kInlineLabelStackDepth; ++i) {
    stack.push_back(Entry(16 + i));
  }
  const std::uint64_t allocs =
      CountAllocations([&] { stack.push_back(Entry(99)); });
  EXPECT_EQ(allocs, 1u);  // exactly the spill, nothing else
  EXPECT_FALSE(stack.is_inline());
  ASSERT_EQ(stack.size(), kInlineLabelStackDepth + 1);
  // Every element survived the relocation.
  for (std::uint32_t i = 0; i < kInlineLabelStackDepth; ++i) {
    EXPECT_EQ(stack[i].label, 16 + i);
  }
  EXPECT_EQ(stack.back().label, 99u);
}

TEST(InlineLabelStack, CopyOfAnInlineStackDoesNotAllocate) {
  LabelStack a;
  a.push_back(Entry(17));
  a.push_back(Entry(18));
  const std::uint64_t allocs = CountAllocations([&] {
    LabelStack b = a;
    EXPECT_TRUE(b.is_inline());
    EXPECT_EQ(b, a);
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(InlineLabelStack, MoveStealsTheHeapBuffer) {
  LabelStack a;
  for (std::uint32_t i = 0; i < kInlineLabelStackDepth + 2; ++i) {
    a.push_back(Entry(16 + i));
  }
  ASSERT_FALSE(a.is_inline());
  const std::uint64_t allocs = CountAllocations([&] {
    LabelStack b = std::move(a);
    EXPECT_FALSE(b.is_inline());
    EXPECT_EQ(b.size(), kInlineLabelStackDepth + 2);
    EXPECT_EQ(b.back().label, 16 + kInlineLabelStackDepth + 1);
  });
  EXPECT_EQ(allocs, 0u);
  // The moved-from stack is empty and back on its inline storage.
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.is_inline());
  a.push_back(Entry(7));  // and still usable
  EXPECT_EQ(a.back().label, 7u);
}

TEST(InlineLabelStack, QuoteStackReversesIntoWireOrder) {
  // In-flight: bottom pushed first, top at the back.
  LabelStack in_flight;
  in_flight.push_back(Entry(100));  // bottom
  in_flight.push_back(Entry(200));
  in_flight.push_back(Entry(300));  // top
  std::uint64_t allocs = 0;
  LabelStack quoted;
  allocs = CountAllocations([&] { quoted = netbase::QuoteStack(in_flight); });
  EXPECT_EQ(allocs, 0u);
  // Wire order: top of stack first, as RFC 4950 quotes it.
  ASSERT_EQ(quoted.size(), 3u);
  EXPECT_EQ(quoted[0].label, 300u);
  EXPECT_EQ(quoted[1].label, 200u);
  EXPECT_EQ(quoted[2].label, 100u);
}

TEST(EngineFastPath, SteadyStateMplsSwapPathDoesNotAllocate) {
  // A ping through the BRPR testbed's LSP exercises the full swap path:
  // IP hop at CE1, label imposition at PE1, swaps at P1..P3, PHP pop at
  // P3, delivery at CE2 and the reply's return trip through the reverse
  // tunnel. After one warm-up send (thread-local stat-shard setup), the
  // whole round trip must run without touching the heap: label stacks
  // stay inline, FIB lookups hit the sealed flat index, and Transit moves
  // through Forward instead of being copied.
  gen::Gns3Testbed testbed(
      {.scenario = gen::Gns3Scenario::kBackwardRecursive});
  const sim::Engine& engine = testbed.engine();

  netbase::Packet probe;
  probe.kind = netbase::PacketKind::kEchoRequest;
  probe.src = testbed.vantage_point();
  probe.dst = testbed.Address("CE2.left");
  probe.ip_ttl = 64;
  probe.probe_id = 1;

  const auto warm = engine.Send(probe);
  ASSERT_TRUE(warm.received);

  const std::uint64_t allocs = CountAllocations([&] {
    probe.probe_id = 2;
    const auto outcome = engine.Send(probe);
    EXPECT_TRUE(outcome.received);
    EXPECT_EQ(outcome.reply.kind, netbase::PacketKind::kEchoReply);
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(EngineFastPath, SteadyStateSendBatchRecyclesItsArena) {
  // A traceroute-shaped batch through the tunnel, twice. The first batch
  // may size the arena, the SoA rows and the outcome vectors; the second
  // batch of the same shape must recycle all of it — the round loop, the
  // group-by-router sort and the per-slot outcome writes run without one
  // heap allocation.
  gen::Gns3Testbed testbed(
      {.scenario = gen::Gns3Scenario::kBackwardRecursive});
  const sim::Engine& engine = testbed.engine();
  const auto target = testbed.Address("CE2.left");

  std::vector<netbase::Packet> fan;
  sim::Engine::BatchResult batch;
  std::uint32_t id = 0;
  const auto fill = [&] {
    fan.clear();
    for (int ttl = 1; ttl <= 16; ++ttl) {
      netbase::Packet probe;
      probe.kind = netbase::PacketKind::kEchoRequest;
      probe.src = testbed.vantage_point();
      probe.dst = target;
      probe.ip_ttl = ttl;
      probe.probe_id = ++id;
      fan.push_back(probe);
    }
  };

  fill();
  fan.reserve(fan.size());
  engine.SendBatch(fan, batch);  // warm-up: sizes every buffer

  const std::uint64_t allocs = CountAllocations([&] {
    fill();
    engine.SendBatch(fan, batch);
    std::size_t received = 0;
    for (const auto& outcome : batch.outcomes) {
      received += outcome.received ? 1 : 0;
    }
    EXPECT_EQ(received, std::size_t{16});
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(EngineFastPath, SteadyStateSoAColumnsSurviveAReshuffledBatch) {
  // The per-row elapsed/hops/top-of-stack SoA columns are the
  // authoritative copy of a live transit's state during shared-decision
  // runs. Reordering the fan (same multiset of TTLs, different slot
  // order) reshuffles the group-by-router permutation every round; the
  // second batch must still run entirely in the recycled columns — zero
  // heap traffic — and land every outcome in its original slot.
  gen::Gns3Testbed testbed(
      {.scenario = gen::Gns3Scenario::kBackwardRecursive});
  const sim::Engine& engine = testbed.engine();
  const auto target = testbed.Address("CE2.left");

  std::vector<netbase::Packet> fan;
  sim::Engine::BatchResult batch;
  std::uint32_t id = 0;
  const auto fill = [&](bool reversed) {
    fan.clear();
    for (int i = 0; i < 16; ++i) {
      netbase::Packet probe;
      probe.kind = netbase::PacketKind::kEchoRequest;
      probe.src = testbed.vantage_point();
      probe.dst = target;
      probe.ip_ttl = reversed ? 16 - i : 1 + i;
      probe.probe_id = ++id;
      fan.push_back(probe);
    }
  };

  fill(/*reversed=*/false);
  engine.SendBatch(fan, batch);  // warm-up: sizes columns and arena
  // Calibrate from the warm-up: kind_by_ttl[t] is what a TTL-(t+1) probe
  // gets back (the testbed is deterministic, so the reversed batch must
  // reproduce it TTL for TTL).
  std::array<netbase::PacketKind, 16> kind_by_ttl{};
  ASSERT_EQ(batch.outcomes.size(), kind_by_ttl.size());
  for (std::size_t i = 0; i < kind_by_ttl.size(); ++i) {
    ASSERT_TRUE(batch.outcomes[i].received) << "warm-up slot " << i;
    kind_by_ttl[i] = batch.outcomes[i].reply.kind;
  }

  const std::uint64_t allocs = CountAllocations([&] {
    fill(/*reversed=*/true);
    engine.SendBatch(fan, batch);
    for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
      ASSERT_TRUE(batch.outcomes[i].received) << "slot " << i;
      // Slot i carried TTL 16-i this time: its outcome must be the one
      // the warm-up saw for that TTL — outcomes never migrate between
      // slots however the live rows were regrouped.
      EXPECT_EQ(batch.outcomes[i].reply.kind, kind_by_ttl[15 - i])
          << "slot " << i;
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(EngineFastPath, WarmProberTracesWithoutAllocating) {
  // A prober whose reply memo already holds every walk of a trace, tracing
  // into a recycled TraceResult: the probes step through the engine, the
  // replies replay from the memo and the hops land in the result's kept
  // storage — zero heap traffic, sequential and batched.
  gen::Gns3Testbed testbed(
      {.scenario = gen::Gns3Scenario::kBackwardRecursive});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  const auto target = testbed.Address("CE2.left");
  for (const bool batched : {false, true}) {
    const probe::TraceOptions options{.batched = batched};
    probe::TraceResult trace;
    // Warm-up: records the walks, sizes the batch buffers, the memo and
    // the hop storage, and settles the adaptive window.
    prober.Traceroute(target, options, trace);
    prober.Traceroute(target, options, trace);
    const std::uint64_t hits = prober.reply_memo().counts().hits;

    const std::uint64_t allocs = CountAllocations(
        [&] { prober.Traceroute(target, options, trace); });
    EXPECT_EQ(allocs, 0u) << (batched ? "batched" : "sequential");
    EXPECT_TRUE(trace.reached);
    // Every reply of the measured trace was a replay.
    EXPECT_GE(prober.reply_memo().counts().hits - hits, trace.hops.size());
  }
}

TEST(EngineFastPath, ExpiringInsideTheTunnelStillQuotesCorrectly) {
  // The same world, but the probe dies on an LSR: the quoted stack must
  // come back in wire order with the LSR's label on top. (Guards the
  // QuoteStack conversion at the only place stacks are reordered.)
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  const auto trace = prober.Traceroute(testbed.Address("CE2.left"));
  ASSERT_TRUE(trace.reached);
  bool saw_labels = false;
  for (const auto& hop : trace.hops) {
    if (!hop.has_labels()) continue;
    saw_labels = true;
    // Fig. 4a: every quoted entry arrives with TTL 1 and a real label
    // (or explicit-null); the top of the quotation is hop.labels[0].
    EXPECT_EQ(static_cast<int>(hop.labels[0].ttl), 1);
  }
  EXPECT_TRUE(saw_labels);
}

}  // namespace
}  // namespace wormhole
