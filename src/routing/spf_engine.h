// The shared SPF engine: one Dijkstra per (AS, source router) per topology
// generation, computed allocation-light and cached for every consumer.
//
// Before this engine existed, InstallIgpRoutes, InstallBgpRoutes, LdpDomain
// and the IgpDistance/IgpHopDistance ground-truth queries each re-ran
// Dijkstra from scratch — the same (AS, source) tree two-plus times per
// convergence, each run allocating a fresh distance vector, a visited
// bitmap and one std::vector<NextHop> per relaxed node. The engine computes
// each tree exactly once, into a flat pooled representation, and hands out
// const references.
//
// Determinism contract: a tree's content is a pure function of the
// topology (links, metrics, up flags). The ECMP first-hop set of every
// destination is the union of source-adjacent (link, neighbor) arcs over
// all shortest paths — a set, independent of relaxation order — emitted in
// ascending (link, neighbor) order, which is exactly what the historical
// sort+unique merge produced. Trees may therefore be computed on any
// thread, in any order, and the result is bit-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "exec/sync.h"
#include "netbase/thread_annotations.h"
#include "routing/fib.h"
#include "topo/topology.h"

namespace wormhole::exec {
class ThreadPool;
}  // namespace wormhole::exec

namespace wormhole::routing {

constexpr int kUnreachable = std::numeric_limits<int>::max();

/// One source router's shortest-path tree, flat and pooled. The arrays
/// are windowed over the contiguous RouterId range the source actually
/// reaches (its own AS — the adjacency holds intra-AS arcs only): element
/// i describes router `base + i`. Everything outside the window is
/// unreachable by construction. Windowing is what keeps a fully primed
/// SPF cache at O(sum of AS-size²) instead of O(routers × AS count) —
/// with router_count-sized arrays per tree, a 100k-router world's cache
/// alone needed >100 GB.
struct SpfTree {
  RouterId source = topo::kNoRouter;
  /// First router id covered by the arrays; window is
  /// [base, base + distance.size()).
  RouterId base = 0;
  std::vector<int> distance;   ///< indexed by v - base
  std::vector<int> hop_count;  ///< indexed by v - base
  /// first_hop_begin[i] .. first_hop_begin[i + 1] delimits router
  /// (base + i)'s slice of first_hop_pool (sorted by (link, neighbor),
  /// duplicates merged).
  std::vector<std::uint32_t> first_hop_begin;
  std::vector<NextHop> first_hop_pool;

  /// Metric distance to `v`; kUnreachable outside the window.
  [[nodiscard]] int DistanceTo(RouterId v) const {
    const std::uint32_t i = v - base;  // below-base wraps to a huge index
    return i < distance.size() ? distance[i] : kUnreachable;
  }
  /// Hop-count distance to `v`; kUnreachable outside the window.
  [[nodiscard]] int HopCountTo(RouterId v) const {
    const std::uint32_t i = v - base;
    return i < hop_count.size() ? hop_count[i] : kUnreachable;
  }
  /// ECMP first-hop set towards `v`; empty outside the window.
  [[nodiscard]] std::span<const NextHop> FirstHops(RouterId v) const {
    const std::uint32_t i = v - base;
    if (i >= distance.size()) return {};
    return std::span<const NextHop>(first_hop_pool)
        .subspan(first_hop_begin[i],
                 first_hop_begin[i + 1] - first_hop_begin[i]);
  }
};

/// Per-topology SPF cache + the allocation-light Dijkstra that fills it.
///
/// The engine snapshots the topology's intra-AS adjacency into a flat CSR
/// (compressed sparse row) table and tracks topo::Topology::version() to
/// notice staleness: any cached tree is only served while the topology
/// generation it was computed under is current.
///
/// Threading: Prime() computes missing trees in parallel on an optional
/// exec::ThreadPool (fixed contiguous shards, one scratch per shard task,
/// disjoint writes — deterministic by construction). All other mutating
/// members are single-threaded; CachedTree() is const and safe to call
/// concurrently once the trees it reads were primed. The single-threaded
/// mutation phase is expressed as the `build_role_` capability: every
/// public mutator scopes it with an exec::RoleLock, and the cache/version
/// internals are GUARDED_BY / REQUIRES it, so a future caller that tries
/// to resync the version or reuse the serial scratch from outside the
/// build phase fails to compile under clang's thread-safety analysis.
class SpfEngine {
 public:
  explicit SpfEngine(const topo::Topology& topology);

  SpfEngine(const SpfEngine&) = delete;
  SpfEngine& operator=(const SpfEngine&) = delete;

  /// The tree rooted at `source`, computing it now if absent or stale.
  const SpfTree& TreeOf(RouterId source);

  /// The already-primed tree rooted at `source`. Hardened builds assert
  /// that the tree exists; use from parallel read-only phases.
  [[nodiscard]] const SpfTree& CachedTree(RouterId source) const;

  /// Ensures every tree in `sources` is computed, fanning the missing ones
  /// out over `pool` (null: serial). Safe to call with already-primed
  /// sources; only misses are computed.
  void Prime(const std::vector<RouterId>& sources, exec::ThreadPool* pool);

  /// Adopts the current topology version after a mutation the caller can
  /// bound: only the trees rooted at `stale_sources` are dropped, every
  /// other cached tree is kept. The caller asserts that no other source's
  /// shortest paths changed (e.g. an intra-AS link flip only invalidates
  /// that AS's members; an inter-AS flip invalidates none).
  void ApplyTopologyChange(const std::vector<RouterId>& stale_sources);

  /// Drops the listed trees without touching the version or adjacency —
  /// for benchmarks and tests that force recomputation.
  void InvalidateTrees(const std::vector<RouterId>& sources);

  /// Total Dijkstra runs since construction (the "exactly one SPF per
  /// (AS, router) per convergence" counting hook).
  [[nodiscard]] std::uint64_t computations() const {
    return computations_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }

 private:
  /// One directed intra-AS arc of the CSR adjacency snapshot.
  struct Arc {
    RouterId to = topo::kNoRouter;
    topo::LinkId link = topo::kNoLink;
    int metric = 1;
  };

  /// Reusable per-worker Dijkstra state. All arrays are reset via the
  /// touched list, so a run costs O(visited), not O(router_count), after
  /// the first use.
  struct Scratch {
    std::vector<int> distance;
    std::vector<int> hops;
    /// Per-router ECMP bitmask over the source's arcs: bit r set means
    /// "reachable through the source arc with sorted rank r". `words`
    /// 64-bit words per router.
    std::vector<std::uint64_t> mask;
    std::size_t words = 0;
    std::vector<RouterId> touched;
    /// Binary heap of (distance, router), lowest first.
    std::vector<std::pair<int, RouterId>> heap;
    /// The source's arcs as NextHops, sorted by (link, neighbor) — the
    /// expansion table for the bitmasks.
    std::vector<NextHop> source_hops;
    /// CSR position (relative to the source's row) → sorted rank.
    std::vector<std::uint32_t> arc_rank;
    std::vector<std::uint32_t> order;
  };

  /// Recomputes the CSR adjacency and drops every tree if the topology
  /// version moved since the last sync.
  void SyncVersion() REQUIRES(build_role_);
  void RebuildAdjacency() REQUIRES(build_role_);
  void ComputeInto(RouterId source, SpfTree& tree, Scratch& scratch) const;

  const topo::Topology* topology_;
  /// The exclusive build phase: held (via RoleLock) by every public
  /// mutator. Zero-cost — a compile-time phase token, not a lock.
  exec::Role build_role_;
  std::uint64_t seen_version_ GUARDED_BY(build_role_) = 0;
  /// CSR rows: arcs of router r are arcs_[adjacency_begin_[r] ..
  /// adjacency_begin_[r + 1]]. Intra-AS up links only. Rebuilt only
  /// under build_role_; read lock-free by ComputeInto, whose shard tasks
  /// run strictly inside a Prime() fan-out (publication via the pool's
  /// task hand-off) — not GUARDED_BY-annotated for that reason.
  std::vector<std::uint32_t> adjacency_begin_;
  std::vector<Arc> arcs_;
  /// Indexed by RouterId; null until computed. Prime's shard tasks write
  /// disjoint slots, so the vector itself is phase-published like the
  /// adjacency, not GUARDED_BY-annotated.
  std::vector<std::unique_ptr<SpfTree>> trees_;
  /// Scratch for the serial TreeOf path (Prime shards own their own).
  Scratch serial_scratch_ GUARDED_BY(build_role_);
  mutable std::atomic<std::uint64_t> computations_{0};
};

}  // namespace wormhole::routing
