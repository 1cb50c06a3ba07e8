// Allocation-behavior tests for the data-plane fast path: the inline
// label stack (netbase::InlineVec) must keep stacks up to
// kInlineLabelStackDepth off the heap, and the steady-state MPLS swap
// path of the engine — and a warm prober's whole traceroute — must not
// allocate at all.
//
// This translation unit replaces the global allocation functions with
// counting wrappers; it must therefore stay its own test binary.
#include <gtest/gtest.h>

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

// The nothrow forms are replaced too: left to the runtime, they hand out
// memory the replaced operator delete frees with std::free (libstdc++'s
// stable_sort takes its buffer from nothrow new), which sanitizers report
// as an allocation/deallocation mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) & ~(a - 1));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
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

TEST(EngineFastPath, WarmProberTracesWithoutAllocating) {
  // A prober whose reply memo already holds every walk of a trace, tracing
  // into a recycled TraceResult: the probes resume on the recycled
  // forward cursor, the replies replay from the memo and the hops land in
  // the result's kept storage — zero heap traffic.
  gen::Gns3Testbed testbed(
      {.scenario = gen::Gns3Scenario::kBackwardRecursive});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  const auto target = testbed.Address("CE2.left");
  const probe::TraceOptions options;
  probe::TraceResult trace;
  // Warm-up: records the walks and sizes the memo, the cursor's trail
  // and the hop storage.
  prober.Traceroute(target, options, trace);
  prober.Traceroute(target, options, trace);
  const std::uint64_t hits = prober.reply_memo().counts().hits;
  const std::uint64_t resumes = prober.forward_cursor().counts().resumes;

  const std::uint64_t allocs =
      CountAllocations([&] { prober.Traceroute(target, options, trace); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(trace.reached);
  // Every reply of the measured trace was a replay, and every probe after
  // the first resumed.
  EXPECT_GE(prober.reply_memo().counts().hits - hits, trace.hops.size());
  EXPECT_EQ(prober.forward_cursor().counts().resumes - resumes,
            trace.hops.size() - 1);
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
