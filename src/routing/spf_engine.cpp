#include "routing/spf_engine.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "exec/thread_pool.h"
#include "netbase/contracts.h"

namespace wormhole::routing {

SpfEngine::SpfEngine(const topo::Topology& topology)
    : topology_(&topology) {
  exec::RoleLock build(build_role_);
  seen_version_ = topology.version();
  RebuildAdjacency();
  trees_.resize(topology.router_count());
}

void SpfEngine::SyncVersion() {
  if (seen_version_ == topology_->version()) return;
  seen_version_ = topology_->version();
  RebuildAdjacency();
  trees_.clear();
  trees_.resize(topology_->router_count());
}

void SpfEngine::RebuildAdjacency() {
  const std::size_t n = topology_->router_count();
  adjacency_begin_.assign(n + 1, 0);
  arcs_.clear();
  for (RouterId u = 0; u < n; ++u) {
    adjacency_begin_[u] = static_cast<std::uint32_t>(arcs_.size());
    for (const topo::InterfaceId iid : topology_->router(u).interfaces) {
      const topo::Interface& iface = topology_->interface(iid);
      if (iface.link == topo::kNoLink) continue;  // host stub
      const topo::Link& link = topology_->link(iface.link);
      if (!link.up || !topology_->IsInternalLink(iface.link)) continue;
      arcs_.push_back(
          Arc{topology_->Neighbor(iface.link, u), iface.link,
              link.igp_metric});
    }
  }
  adjacency_begin_[n] = static_cast<std::uint32_t>(arcs_.size());
}

const SpfTree& SpfEngine::TreeOf(RouterId source) {
  exec::RoleLock build(build_role_);
  SyncVersion();
  auto& slot = trees_.at(source);
  if (slot == nullptr) {
    auto tree = std::make_unique<SpfTree>();
    ComputeInto(source, *tree, serial_scratch_);
    slot = std::move(tree);
  }
  return *slot;
}

const SpfTree& SpfEngine::CachedTree(RouterId source) const {
  const auto& slot = trees_.at(source);
  WORMHOLE_ASSERT(slot != nullptr,
                  "CachedTree on a source that was never primed");
  return *slot;
}

void SpfEngine::Prime(const std::vector<RouterId>& sources,
                      exec::ThreadPool* pool) {
  exec::RoleLock build(build_role_);
  SyncVersion();
  std::vector<RouterId> missing;
  missing.reserve(sources.size());
  for (const RouterId source : sources) {
    if (trees_.at(source) == nullptr) missing.push_back(source);
  }
  if (missing.empty()) return;

  const std::size_t workers = pool == nullptr ? 1 : pool->size();
  const std::size_t shards = std::min(missing.size(), workers);
  if (shards <= 1) {
    for (const RouterId source : missing) {
      auto tree = std::make_unique<SpfTree>();
      ComputeInto(source, *tree, serial_scratch_);
      trees_[source] = std::move(tree);
    }
    return;
  }

  // Fixed contiguous shards over the missing list: every shard's work set
  // is decided before any thread runs, each tree slot is written by
  // exactly one shard, and each tree's content is schedule-independent —
  // so the primed cache is bit-identical at any worker count.
  exec::ParallelFor(*pool, shards, [&](std::size_t shard) {
    Scratch scratch;
    const std::size_t begin = shard * missing.size() / shards;
    const std::size_t end = (shard + 1) * missing.size() / shards;
    for (std::size_t i = begin; i < end; ++i) {
      auto tree = std::make_unique<SpfTree>();
      ComputeInto(missing[i], *tree, scratch);
      trees_[missing[i]] = std::move(tree);
    }
  });
}

void SpfEngine::ApplyTopologyChange(
    const std::vector<RouterId>& stale_sources) {
  exec::RoleLock build(build_role_);
  seen_version_ = topology_->version();
  RebuildAdjacency();
  trees_.resize(topology_->router_count());
  for (const RouterId source : stale_sources) trees_.at(source).reset();
}

void SpfEngine::InvalidateTrees(const std::vector<RouterId>& sources) {
  exec::RoleLock build(build_role_);
  for (const RouterId source : sources) trees_.at(source).reset();
}

void SpfEngine::ComputeInto(RouterId source, SpfTree& tree,
                            Scratch& s) const {
  computations_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = topology_->router_count();
  if (s.distance.size() < n) {
    s.distance.assign(n, kUnreachable);
    s.hops.assign(n, kUnreachable);
  }

  // The source's arcs, ranked by (link, neighbor): rank order is NextHop
  // order, so expanding a bitmask lowest-bit-first emits each first-hop
  // set already sorted and deduplicated — the exact sequence the
  // historical per-relaxation sort+unique produced.
  const std::size_t row = adjacency_begin_[source];
  const std::size_t degree = adjacency_begin_[source + 1] - row;
  s.order.resize(degree);
  for (std::uint32_t i = 0; i < degree; ++i) s.order[i] = i;
  std::sort(s.order.begin(), s.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const Arc& x = arcs_[row + a];
              const Arc& y = arcs_[row + b];
              return std::make_pair(x.link, x.to) <
                     std::make_pair(y.link, y.to);
            });
  s.arc_rank.resize(degree);
  s.source_hops.resize(degree);
  for (std::uint32_t rank = 0; rank < degree; ++rank) {
    const std::uint32_t position = s.order[rank];
    s.arc_rank[position] = rank;
    const Arc& arc = arcs_[row + position];
    s.source_hops[rank] = NextHop{arc.link, arc.to};
  }

  const std::size_t words = std::max<std::size_t>(1, (degree + 63) / 64);
  s.words = words;
  if (s.mask.size() < n * words) s.mask.resize(n * words);
  // Stale mask contents are harmless: the first write to any touched
  // router's mask is a full overwrite (fill or copy), never a merge.

  s.distance[source] = 0;
  s.hops[source] = 0;
  s.touched.push_back(source);
  s.heap.emplace_back(0, source);

  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>());
    const auto [dist, u] = s.heap.back();
    s.heap.pop_back();
    // Strict-improvement pushes mean at most one queued entry carries a
    // node's final distance; anything else here is stale.
    if (dist != s.distance[u]) continue;

    const int u_hops = s.hops[u];
    const std::uint64_t* u_mask = &s.mask[std::size_t{u} * words];
    const std::size_t u_row = adjacency_begin_[u];
    const std::size_t u_end = adjacency_begin_[u + 1];
    for (std::size_t a = u_row; a < u_end; ++a) {
      const Arc& arc = arcs_[a];
      const RouterId v = arc.to;
      const int candidate = dist + arc.metric;
      std::uint64_t* v_mask = &s.mask[std::size_t{v} * words];
      if (candidate < s.distance[v]) {
        if (s.distance[v] == kUnreachable) s.touched.push_back(v);
        s.distance[v] = candidate;
        s.hops[v] = u_hops + 1;
        if (u == source) {
          std::fill_n(v_mask, words, 0);
          const std::uint32_t rank = s.arc_rank[a - u_row];
          v_mask[rank >> 6] = std::uint64_t{1} << (rank & 63);
        } else {
          std::copy_n(u_mask, words, v_mask);
        }
        s.heap.emplace_back(candidate, v);
        std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>());
      } else if (candidate == s.distance[v]) {
        // Equal-cost path: union the first-hop sets — one OR instead of
        // the old insert + sort + unique per relaxation.
        if (u == source) {
          const std::uint32_t rank = s.arc_rank[a - u_row];
          v_mask[rank >> 6] |= std::uint64_t{1} << (rank & 63);
        } else {
          for (std::size_t w = 0; w < words; ++w) v_mask[w] |= u_mask[w];
        }
        s.hops[v] = std::min(s.hops[v], u_hops + 1);
      }
    }
  }

  // Window the output over the id-range actually reached (the source's
  // AS). The touched set is schedule-independent, so base/span — and with
  // them the tree bytes — stay deterministic.
  RouterId lo = source, hi = source;
  for (const RouterId r : s.touched) {
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  const std::size_t span = std::size_t{hi} - lo + 1;

  tree.source = source;
  tree.base = lo;
  tree.distance.assign(span, kUnreachable);
  tree.hop_count.assign(span, kUnreachable);
  tree.first_hop_begin.assign(span + 1, 0);

  std::uint32_t total = 0;
  for (RouterId r = lo; r <= hi; ++r) {
    tree.first_hop_begin[r - lo] = total;
    const int d = s.distance[r];
    if (d == kUnreachable) continue;
    tree.distance[r - lo] = d;
    tree.hop_count[r - lo] = s.hops[r];
    if (r == source) continue;  // empty first-hop set; mask never written
    const std::uint64_t* r_mask = &s.mask[std::size_t{r} * words];
    for (std::size_t w = 0; w < words; ++w) {
      total += static_cast<std::uint32_t>(std::popcount(r_mask[w]));
    }
  }
  tree.first_hop_begin[span] = total;

  tree.first_hop_pool.clear();
  tree.first_hop_pool.reserve(total);
  for (RouterId r = lo; r <= hi; ++r) {
    if (s.distance[r] == kUnreachable || r == source) continue;
    const std::uint64_t* r_mask = &s.mask[std::size_t{r} * words];
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = r_mask[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        tree.first_hop_pool.push_back(s.source_hops[(w << 6) | bit]);
      }
    }
  }
  WORMHOLE_DCHECK(tree.first_hop_pool.size() == total,
                  "first-hop pool size must match the popcount prepass");

  for (const RouterId r : s.touched) {
    s.distance[r] = kUnreachable;
    s.hops[r] = kUnreachable;
  }
  s.touched.clear();
  s.heap.clear();
}

}  // namespace wormhole::routing
