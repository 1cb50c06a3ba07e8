// Runtime pins for the thread-safety annotation layer (exec/sync.h) and
// the locking contracts it cannot express statically.
//
// The annotations themselves are verified at compile time by clang's
// -Wthread-safety (the CI thread-safety job and lint.thread_safety);
// these tests pin the RUNTIME semantics the annotated primitives promise
// — and the two dynamic disciplines the analysis cannot name:
//
//   * Fib's lazy seal stripe: the seal mutex is picked per-object from a
//     dynamic StripedMutex, so `slots_` cannot be GUARDED_BY a nameable
//     capability (fib.cpp documents this); concurrent first-Lookup
//     racing the seal is pinned here instead.
//   * Fib's moved-from invalidation: element-wise moves gut the source
//     map's nodes in place, so a moved-from FIB must drop its sealed
//     index — the annotation layer has nothing to say about moves.
//   * MplsConfigMap::For, a const method that materialises a missing
//     vendor default, called by LDP domains built in parallel.
//
// Run under the TSan CI job as well: the stress tests double as data-race
// probes.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>  // lint:allow-file(raw-threading): exercises exec primitives
#include <utility>
#include <vector>

#include "exec/sync.h"
#include "mpls/config.h"
#include "netbase/ipv4.h"
#include "netbase/thread_annotations.h"
#include "routing/fib.h"
#include "sim/network.h"
#include "topo/topology.h"

namespace wormhole {
namespace {

using netbase::Ipv4Address;
using netbase::Prefix;

// A counter whose annotations mirror the repo convention: the field is
// GUARDED_BY, the private helper REQUIRES, the public surface EXCLUDES.
// Under clang TSA this class is the compile-time regression: deleting
// any one annotation (or bypassing the lock) breaks the CI
// thread-safety build — see tools/lint/fixtures/thread_safety/.
class AnnotatedCounter {
 public:
  void Add(int amount) EXCLUDES(mutex_) {
    exec::MutexLock lock(mutex_);
    AddLocked(amount);
  }

  [[nodiscard]] int value() EXCLUDES(mutex_) {
    exec::MutexLock lock(mutex_);
    return value_;
  }

 private:
  void AddLocked(int amount) REQUIRES(mutex_) { value_ += amount; }

  exec::Mutex mutex_;
  int value_ GUARDED_BY(mutex_) = 0;
};

TEST(ThreadSafety, AnnotatedCounterIsExactUnderContention) {
  AnnotatedCounter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
}

TEST(ThreadSafety, CondVarHandsOffUnderAnnotatedMutex) {
  exec::Mutex mutex;
  exec::CondVar cv;
  // A local cannot be GUARDED_BY (the attribute is for members and
  // globals); the discipline here is by construction: every access is
  // under `mutex`.
  int stage = 0;

  std::thread consumer([&] {
    exec::MutexLock lock(mutex);
    while (stage != 1) cv.Wait(mutex);
    stage = 2;
    cv.NotifyAll();
  });

  {
    exec::MutexLock lock(mutex);
    stage = 1;
    cv.NotifyAll();
    while (stage != 2) cv.Wait(mutex);
  }
  consumer.join();
  exec::MutexLock lock(mutex);
  EXPECT_EQ(stage, 2);
}

TEST(ThreadSafety, RoleLockIsAZeroCostScope) {
  // The Role capability has no runtime state: acquiring it is free and
  // purely a compile-time phase token. This pins that it stays
  // constructible/scopable (the static side lives in the CI clang job).
  exec::Role role;
  {
    exec::RoleLock scope(role);
    exec::RoleLock nested_is_not_a_deadlock(role);
  }
  {
    exec::RoleLock again(role);
  }
  SUCCEED();
}

TEST(ThreadSafety, StripedMutexMapsHashesToStableStripes) {
  exec::StripedMutex striped(8);
  exec::Mutex& a = striped.For(13);
  exec::Mutex& b = striped.For(13 + 8);
  exec::Mutex& c = striped.For(14);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  exec::MutexLock lock(a);  // and the stripe is lockable via the RAII type
}

Prefix MakePrefix(std::uint32_t address, int length) {
  return Prefix{Ipv4Address{address}, length};
}

routing::Fib BuildFib(std::size_t routes) {
  routing::Fib fib;
  for (std::size_t i = 0; i < routes; ++i) {
    routing::FibEntry entry;
    entry.prefix = MakePrefix(0x0A000000u + (static_cast<std::uint32_t>(i)
                                             << 8),
                              24);
    entry.source = routing::RouteSource::kIgp;
    entry.metric = static_cast<int>(i % 7);
    entry.next_hops.push_back(
        routing::NextHop{static_cast<topo::LinkId>(i % 3),
                         static_cast<topo::RouterId>(i % 5)});
    fib.AddRoute(entry);
  }
  return fib;
}

TEST(ThreadSafety, ConcurrentFirstLookupSealsOnce) {
  // The lazy-seal discipline fib.cpp documents: many threads hitting an
  // unsealed FIB race to Seal() under the per-object stripe; every
  // thread must observe a fully built index (no torn slots_, no lost
  // lengths). TSan runs this too.
  constexpr int kRounds = 16;
  constexpr int kThreads = 8;
  for (int round = 0; round < kRounds; ++round) {
    routing::Fib fib = BuildFib(64);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    std::vector<int> hits(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&fib, &hits, t] {
        for (std::uint32_t i = 0; i < 64; ++i) {
          const Ipv4Address dst{0x0A000001u + (i << 8)};
          if (fib.Lookup(dst) != nullptr) ++hits[t];
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(hits[t], 64);
  }
}

TEST(ThreadSafety, MovedFromFibDropsItsSealedIndex) {
  // Element-wise moves gut the source map's nodes in place; a moved-from
  // FIB that kept its sealed index would serve pointers to gutted
  // entries. The move must invalidate the source (and the target
  // re-seals lazily over its own nodes).
  routing::Fib source = BuildFib(32);
  const Ipv4Address probe{0x0A000001u};
  ASSERT_NE(source.Lookup(probe), nullptr);  // seals `source`

  routing::Fib target(std::move(source));
  const routing::FibEntry* moved = target.Lookup(probe);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->source, routing::RouteSource::kIgp);
  EXPECT_EQ(moved->next_hops.size(), 1u);

  // The moved-from FIB is valid-but-unspecified as a container, but its
  // sealed index must be gone: a fresh build starts from scratch and
  // lookups reflect only the new routes.
  source = routing::Fib{};
  routing::FibEntry fresh;
  fresh.prefix = MakePrefix(0xC0A80000u, 16);
  fresh.source = routing::RouteSource::kBgp;
  source.AddRoute(fresh);
  const routing::FibEntry* entry =
      source.Lookup(Ipv4Address{0xC0A80101u});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->source, routing::RouteSource::kBgp);
  EXPECT_EQ(source.Lookup(probe), nullptr);

  // Move-assignment invalidates both sides the same way: the target
  // serves exactly the moved table, re-sealed over its own nodes.
  routing::Fib assigned = BuildFib(8);
  ASSERT_NE(assigned.Lookup(probe), nullptr);
  routing::Fib other = BuildFib(4);
  ASSERT_NE(other.Lookup(probe), nullptr);
  assigned = std::move(other);
  EXPECT_EQ(assigned.size(), 4u);
  const routing::FibEntry* after = assigned.Lookup(probe);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->next_hops.size(), 1u);
}

TEST(ThreadSafety, ParallelLdpBuildMaterialisesConfigDefaults) {
  // Two MPLS-enabled ASes, each with a router added after EnableAs and so
  // without a config entry. The LDP domains are built in parallel, and
  // each asks MplsConfigMap::For about every router of its AS, which
  // inserts the missing vendor default: two tasks insert into one map at
  // once. Under TSan an unguarded map is a report here.
  topo::Topology topology;
  std::vector<topo::RouterId> late;
  topo::RouterId previous = topo::kNoRouter;
  for (const topo::AsNumber asn : {1u, 2u}) {
    topology.AddAs(asn, "as" + std::to_string(asn));
    for (int i = 0; i < 3; ++i) {
      const topo::RouterId r =
          topology.AddRouter(asn, "r" + std::to_string(asn) + std::to_string(i),
                             topo::Vendor::kCiscoIos);
      if (previous != topo::kNoRouter) topology.AddLink(previous, r);
      previous = r;
    }
  }
  mpls::MplsConfigMap configs(topology);
  configs.EnableAs(1, {});
  configs.EnableAs(2, {});
  for (const topo::AsNumber asn : {1u, 2u}) {
    const topo::RouterId r = topology.AddRouter(
        asn, "late" + std::to_string(asn), topo::Vendor::kJuniperJunos);
    topology.AddLink(topology.as(asn).routers.front(), r);
    late.push_back(r);
  }
  const sim::Network network(topology, configs, routing::BgpPolicy{},
                             sim::EngineOptions{}, nullptr, nullptr,
                             /*convergence_jobs=*/4);
  for (const topo::RouterId r : late) {
    EXPECT_FALSE(configs.For(r).enabled);
    EXPECT_EQ(configs.For(r).ldp_policy, mpls::LdpPolicy::kLoopbacksOnly);
  }
  EXPECT_EQ(network.convergence_epoch(), 1u);
}

}  // namespace
}  // namespace wormhole
