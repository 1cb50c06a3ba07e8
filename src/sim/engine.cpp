#include "sim/engine.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.h"
#include "netbase/contracts.h"
#include "sim/footprint.h"
#include "sim/forward_cursor.h"
#include "sim/reply_memo.h"
#include "sim/vendor.h"

namespace wormhole::sim {

namespace {

using netbase::LabelStack;
using netbase::LabelStackEntry;
using netbase::Packet;
using netbase::PacketKind;
using routing::FibEntry;
using routing::NextHop;
using topo::RouterId;

constexpr std::uint32_t kExplicitNull =
    static_cast<std::uint32_t>(netbase::ReservedLabel::kIpv4ExplicitNull);

// Deterministic per-(probe, router) coin for ICMP loss injection: the same
// probe always sees the same outcome, a retransmission (new probe id)
// re-rolls — like a token-bucket rate limiter seen from outside.
bool IcmpLost(const Packet& p, RouterId router, double probability) {
  if (probability <= 0.0) return false;
  // splitmix64 finalizer: avalanches small inputs over all 64 bits.
  std::uint64_t h = (std::uint64_t{p.probe_id} << 32) ^ router;
  h += 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  const double draw =
      static_cast<double>(h >> 11) / static_cast<double>(1ull << 53);
  return draw < probability;
}

std::uint64_t FlowHash(const Packet& p) {
  // FNV-1a over the ECMP key: (src, dst, flow id). Paris traceroute keeps
  // flow_id constant so every probe of a trace hashes identically.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(p.src.value());
  mix(p.dst.value());
  mix(p.flow_id);
  return h;
}

// Deterministic per (probe, link) jitter in [-f, +f] of the base delay.
// Shared by Forward, the reply-memo replay and the forward-cursor resume
// so all three compute bit-identical elapsed times.
double JitteredDelay(double delay, double fraction, std::uint32_t probe_id,
                     topo::LinkId link) {
  if (fraction > 0.0) {
    std::uint64_t h = (std::uint64_t{probe_id} << 32) ^
                      (std::uint64_t{link} * 0x9E3779B97F4A7C15ull);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
    const double unit =
        static_cast<double>(h >> 11) / static_cast<double>(1ull << 53);
    delay *= 1.0 + fraction * (2.0 * unit - 1.0);
  }
  return delay;
}

EngineStats Minus(const EngineStats& after, const EngineStats& before) {
  EngineStats d;
  d.packets_injected = after.packets_injected - before.packets_injected;
  d.hops_processed = after.hops_processed - before.hops_processed;
  d.icmp_generated = after.icmp_generated - before.icmp_generated;
  d.labels_pushed = after.labels_pushed - before.labels_pushed;
  d.labels_popped = after.labels_popped - before.labels_popped;
  return d;
}

}  // namespace

Engine::Engine(const topo::Topology& topology,
               const mpls::MplsConfigMap& configs,
               const std::vector<routing::Fib>& fibs,
               const mpls::LdpTables& ldp, EngineOptions options,
               const mpls::TeDatabase* te, const mpls::SrDatabase* sr,
               exec::ThreadPool* pool)
    : topology_(&topology),
      configs_(&configs),
      fibs_(&fibs),
      ldp_(&ldp),
      te_(te),
      sr_(sr),
      options_(options) {
  // Resolve every per-router hash lookup (config, LDP domain, FIB) once,
  // up front; the forwarding loop then indexes straight into this vector.
  // Each slot is written by exactly one task and each cache's content
  // depends only on this router's converged state, so the parallel build
  // is bit-identical to the serial one.
  router_cache_.resize(topology.router_count());
  host_count_ = topology.hosts().size();
  host_routes_.resize(topology.router_count() * host_count_);
  exec::ParallelFor(pool, topology.router_count(), [&](std::size_t r) {
    router_cache_[r] = BuildRouterCache(static_cast<RouterId>(r));
    ResolveRoutesHome(static_cast<RouterId>(r));
  });
  for (const topo::Host& host : topology.hosts()) {
    router_cache_[host.gateway].hosts.push_back(
        AttachedHost{host.address, host.stub_interface});
  }
  router_as_.reserve(topology.router_count());
  for (const topo::Router& router : topology.routers()) {
    router_as_.push_back(router.asn);
  }
  adjacency_.reserve(topology.link_count());
  for (const topo::Link& link : topology.links()) {
    adjacency_.push_back({link.delay_ms, link.a, link.b,
                          topology.interface(link.a).router});
  }
}

void Engine::ResolveRoutesHome(topo::RouterId r) {
  const routing::Fib& fib = (*fibs_)[r];
  const std::vector<topo::Host>& hosts = topology_->hosts();
  const std::size_t row = std::size_t{r} * host_count_;
  for (std::size_t h = 0; h < host_count_; ++h) {
    host_routes_[row + h] = fib.Lookup(hosts[h].address);
  }
}

const routing::FibEntry* Engine::RouteHome(topo::RouterId router,
                                           std::size_t host) const {
  WORMHOLE_ASSERT(router < router_cache_.size() && host < host_count_,
                  "RouteHome outside the table");
  return host_routes_[std::size_t{router} * host_count_ + host];
}

Engine::RouterCache Engine::BuildRouterCache(topo::RouterId r) const {
  const topo::Topology& topology = *topology_;
  RouterCache rc;
  rc.router = &topology.router(r);
  rc.config = &configs_->For(r);
  rc.domain = ldp_->DomainOf(rc.router->asn);
  rc.fib = &fibs_->at(r);

  rc.local_addresses.reserve(rc.router->interfaces.size() + 1);
  rc.local_addresses.push_back(rc.router->loopback);
  for (const topo::InterfaceId iid : rc.router->interfaces) {
    rc.local_addresses.push_back(topology.interface(iid).address);
  }
  rc.addr_lo = *std::min_element(rc.local_addresses.begin(),
                                 rc.local_addresses.end());
  rc.addr_hi = *std::max_element(rc.local_addresses.begin(),
                                 rc.local_addresses.end());

  // Pre-resolve every LDP in-label this router can receive into the
  // per-next-hop LabelOp the swap path would compute: exactly the
  // FecOfLabel → LookupExact → BindingOf chain of the converged
  // tables, evaluated once per (label, neighbor) here instead of per
  // packet. Labels are allocated densely from kFirstUnreservedLabel in
  // ascending FEC order, so walking the sorted bindings appends both CSR
  // arrays in final order with no per-label vectors.
  if (rc.domain != nullptr) {
    // Neighbor bindings are consulted in ascending FEC order (the outer
    // walk is sorted), so a monotone cursor per neighbor replaces a
    // binary search per (label, next hop). The neighbor set of one
    // router is small; linear scan beats a hash.
    struct NeighborCursor {
      RouterId neighbor;
      std::span<const std::pair<netbase::Prefix, mpls::Binding>> bindings;
      std::size_t pos = 0;
    };
    std::vector<NeighborCursor> cursors;
    const auto neighbor_binding =
        [&](RouterId neighbor,
            const netbase::Prefix& fec) -> const mpls::Binding* {
      NeighborCursor* cursor = nullptr;
      for (NeighborCursor& c : cursors) {
        if (c.neighbor == neighbor) {
          cursor = &c;
          break;
        }
      }
      if (cursor == nullptr) {
        cursors.push_back({neighbor, rc.domain->BindingsOf(neighbor)});
        cursor = &cursors.back();
      }
      while (cursor->pos < cursor->bindings.size() &&
             cursor->bindings[cursor->pos].first < fec) {
        ++cursor->pos;
      }
      if (cursor->pos < cursor->bindings.size() &&
          cursor->bindings[cursor->pos].first == fec) {
        return &cursor->bindings[cursor->pos].second;
      }
      return nullptr;
    };

    rc.ldp_op_offsets.push_back(0);
    for (const auto& [fec, own] : rc.domain->BindingsOf(r)) {
      if (own.kind != mpls::BindingKind::kLabel) continue;
      // CSR validity: the dense (label - 16) indexing below is only
      // sound for labels in the unreserved 20-bit range.
      WORMHOLE_ASSERT(own.label >= netbase::kFirstUnreservedLabel &&
                          own.label <= netbase::kMaxLabel,
                      "LDP binding outside the unreserved label range");
      const std::size_t index = own.label - netbase::kFirstUnreservedLabel;
      WORMHOLE_DCHECK(index + 1 == rc.ldp_op_offsets.size(),
                      "LDP labels must arrive densely, in binding order");
      const routing::FibEntry* route = rc.fib->LookupExact(fec);
      if (route != nullptr) {
        for (const NextHop& hop : route->next_hops) {
          LabelOp op;
          op.hop = hop;
          const mpls::Binding* out = neighbor_binding(hop.neighbor, fec);
          if (out == nullptr ||
              out->kind == mpls::BindingKind::kImplicitNull) {
            op.kind = LabelOp::Kind::kPop;
          } else if (out->kind == mpls::BindingKind::kExplicitNull) {
            op.kind = LabelOp::Kind::kSwapExplicitNull;
          } else {
            op.kind = LabelOp::Kind::kSwap;
            op.out_label = out->label;
          }
          rc.ldp_op_pool.push_back(op);
        }
      }
      rc.ldp_op_offsets.push_back(
          static_cast<std::uint32_t>(rc.ldp_op_pool.size()));
    }
  }
  return rc;
}

void Engine::RefreshRouters(const std::vector<topo::RouterId>& routers) {
  ++convergence_epoch_;
  for (const RouterId r : routers) {
    router_cache_[r] = BuildRouterCache(r);
    ResolveRoutesHome(r);
  }
  // Re-attach hosts lost with the replaced caches.
  for (const topo::Host& host : topology_->hosts()) {
    if (std::find(routers.begin(), routers.end(), host.gateway) ==
        routers.end()) {
      continue;
    }
    router_cache_[host.gateway].hosts.push_back(
        AttachedHost{host.address, host.stub_interface});
  }
}

bool Engine::RepliesDependOnProbeIds() const {
  for (RouterId r = 0; r < topology_->router_count(); ++r) {
    if (configs_->For(r).icmp_loss > 0.0) return true;
  }
  return false;
}

std::optional<Engine::LabelOp> Engine::ResolveLabel(
    topo::RouterId router, std::uint32_t label,
    const netbase::Packet& packet) const {
  WORMHOLE_DCHECK(router < router_cache_.size(),
                  "ResolveLabel router id outside the cache");
  WORMHOLE_ASSERT(label <= netbase::kMaxLabel,
                  "label exceeds the 20-bit MPLS label space");
  // SR node SIDs: forward towards the SID's router along the IGP path; the
  // penultimate hop pops the segment (PHP), so the waypoint receives the
  // next SID (or the bare IP packet) directly.
  if (sr_ != nullptr) {
    if (const auto target = sr_->RouterOfSid(label)) {
      const FibEntry* route = router_cache_[router].fib->LookupExact(
          netbase::Prefix::Host(topology_->router(*target).loopback));
      if (route != nullptr && !route->next_hops.empty()) {
        LabelOp op;
        op.hop = PickNextHop(route->next_hops, packet);
        if (op.hop.neighbor == *target) {
          op.kind = LabelOp::Kind::kPop;
        } else {
          op.kind = LabelOp::Kind::kSwap;
          op.out_label = label;  // global SID: unchanged along the segment
        }
        return op;
      }
      return std::nullopt;
    }
  }

  // RSVP-TE labels live in their own range; check the TE database first.
  if (te_ != nullptr) {
    if (const auto te_op = te_->OpFor(router, label)) {
      LabelOp op;
      op.hop = routing::NextHop{te_op->link, te_op->next};
      op.out_label = te_op->out_label;
      switch (te_op->kind) {
        case mpls::TeLabelOp::Kind::kSwap:
          op.kind = LabelOp::Kind::kSwap;
          break;
        case mpls::TeLabelOp::Kind::kPop:
          op.kind = LabelOp::Kind::kPop;
          break;
        case mpls::TeLabelOp::Kind::kSwapExplicitNull:
          op.kind = LabelOp::Kind::kSwapExplicitNull;
          break;
      }
      return op;
    }
  }

  // LDP: the constructor pre-resolved every (in-label, next hop) pair
  // into router_cache_; what remains is the ECMP choice, which must match
  // PickNextHop bit-for-bit (the ops are parallel to the route's sorted
  // next_hops).
  if (label < netbase::kFirstUnreservedLabel) return std::nullopt;
  const RouterCache& rc = router_cache_[router];
  const std::size_t index = label - netbase::kFirstUnreservedLabel;
  if (index + 1 >= rc.ldp_op_offsets.size()) return std::nullopt;
  const std::uint32_t begin = rc.ldp_op_offsets[index];
  const std::uint32_t count = rc.ldp_op_offsets[index + 1] - begin;
  if (count == 0) return std::nullopt;
  const LabelOp* per_hop = rc.ldp_op_pool.data() + begin;
  if (count == 1 || !options_.ecmp_enabled) return per_hop[0];
  return per_hop[FlowHash(packet) % count];
}

EngineStats Engine::stats() const {
  EngineStats total;
  for (const StatShard& shard : stat_shards_) {
    total.packets_injected +=
        shard.packets_injected.load(std::memory_order_relaxed);
    total.hops_processed +=
        shard.hops_processed.load(std::memory_order_relaxed);
    total.icmp_generated +=
        shard.icmp_generated.load(std::memory_order_relaxed);
    total.labels_pushed +=
        shard.labels_pushed.load(std::memory_order_relaxed);
    total.labels_popped +=
        shard.labels_popped.load(std::memory_order_relaxed);
  }
  return total;
}

Engine::Outcome Engine::Send(netbase::Packet probe, ReplyMemo* memo,
                             ForwardCursor* cursor,
                             Footprint* footprint) const {
  const topo::Host* origin = topology_->FindHost(probe.src);
  if (origin == nullptr) {
    throw std::invalid_argument("Send: probe.src is not an attached host");
  }
  if (memo != nullptr) {
    memo->Revalidate(convergence_epoch_, topology_->version());
  }
  EngineStats local;
  ++local.packets_injected;
  // Only a fresh echo-request can continue a trace: its walk state is a
  // function of its TTL alone.
  const bool fresh = probe.kind == PacketKind::kEchoRequest &&
                     probe.labels.empty() && probe.hops_traversed == 0 &&
                     probe.elapsed_ms == 0.0 && probe.ip_ttl >= 1 &&
                     probe.ip_ttl <= 255;

  // The by-value parameter is the packet's storage for the whole walk:
  // the transit points at it and every hop mutates it in place.
  Transit transit;
  transit.packet = &probe;
  probe.elapsed_ms += options_.host_stub_delay_ms;
  transit.router = origin->gateway;
  transit.in_interface = origin->stub_interface;
  transit.follows = 1;  // the IP-TTL is the probe's TTL
  transit.footprint = footprint;
  // Every reply the walk originates is addressed to the probe's src, the
  // origin host. A host attached after this engine was built has no
  // column in the routes-home table.
  const auto origin_index =
      static_cast<std::size_t>(origin - topology_->hosts().data());
  if (!probe.is_reply() && origin_index < host_count_) {
    transit.home = static_cast<std::uint32_t>(origin_index);
  }

  // Delivery to the origin host happens at its gateway, after the
  // gateway's normal forwarding decrement (handled inside ProcessIp).
  // Each step advances `transit` in place until the probe ends or turns
  // into a reply; the reply then drains home.
  StepResult step;
  if (cursor != nullptr && fresh) {
    step = WalkForward(transit, local, *cursor);
  } else {
    while (!step.ended() && !probe.is_reply()) {
      step = ProcessAt(transit, local);
    }
  }
  Outcome final = step.ended()
                      ? Settle(std::move(step), origin->address)
                      : DrainReply(transit, origin->address, local, memo);
  CommitStats(local);
  return final;
}

Engine::StepResult Engine::WalkForward(Transit& t, EngineStats& stats,
                                       ForwardCursor& cursor) const {
  Packet& p = *t.packet;
  const int probe_ttl = p.ip_ttl;
  ForwardCursor::Key key;
  key.engine = this;
  key.epoch = convergence_epoch_;
  key.topology_version = topology_->version();
  key.src = p.src;
  key.dst = p.dst;
  key.flow_id = p.flow_id;
  ForwardCursor::Saved& saved = cursor.saved_;
  const int d = probe_ttl - saved.probe_ttl;
  if (cursor.valid_ && cursor.key_ == key && d >= 0 && d <= saved.slack) {
    // Resume where the previous probe stopped: its prefix, with every
    // following TTL field shifted by d, is this probe's prefix.
    WORMHOLE_DCHECK(cursor.trail_.size() == saved.trail_size,
                    "the trail ends at the saved step");
    t.router = saved.router;
    t.in_interface = saved.in_interface;
    t.locally_originated = saved.locally_originated;
    t.skip_ip_decrement = saved.skip_ip_decrement;
    t.follows = saved.follows;
    t.slack = saved.slack - d;
    p.ip_ttl = saved.ip_ttl + (t.IpFollows() ? d : 0);
    p.labels = saved.labels;
    for (std::size_t i = 0; i < p.labels.size(); ++i) {
      if ((saved.follows & Transit::LabelBit(i)) == 0) continue;
      WORMHOLE_DCHECK(p.labels[i].ttl + d <= 255,
                      "a following LSE-TTL stays below the probe TTL");
      p.labels[i].ttl = static_cast<std::uint8_t>(p.labels[i].ttl + d);
    }
    p.hops_traversed = saved.hops_traversed;
    const double fraction = options_.delay_jitter_fraction;
    if (fraction > 0.0) {
      // Forward's additions, in walk order, for this probe id: a
      // bit-identical elapsed time.
      for (const topo::LinkId link : cursor.trail_) {
        p.elapsed_ms += JitteredDelay(adjacency_[link].delay_ms, fraction,
                                      p.probe_id, link);
      }
    } else {
      p.elapsed_ms = saved.elapsed_ms;
    }
    stats = saved.stats;
    if (Footprint* footprint = t.footprint) {
      for (const topo::AsNumber asn : cursor.ases_) footprint->Add(asn);
    }
    ++cursor.counts_.resumes;
    cursor.counts_.resumed_hops += saved.trail_size;
  } else {
    cursor.key_ = key;
    cursor.valid_ = true;
    cursor.trail_.clear();
    cursor.ases_.clear();
    ++cursor.counts_.walks;
  }

  while (true) {
    saved.probe_ttl = probe_ttl;
    saved.router = t.router;
    saved.in_interface = t.in_interface;
    saved.locally_originated = t.locally_originated;
    saved.skip_ip_decrement = t.skip_ip_decrement;
    saved.ip_ttl = p.ip_ttl;
    saved.labels = p.labels;
    saved.hops_traversed = p.hops_traversed;
    saved.elapsed_ms = p.elapsed_ms;
    saved.stats = stats;
    saved.trail_size = static_cast<std::uint32_t>(cursor.trail_.size());
    saved.follows = t.follows;
    saved.slack = t.slack;
    const topo::AsNumber asn = router_as_[t.router];
    StepResult step = ProcessAt(t, stats);
    if (step.ended() || p.is_reply()) return step;
    cursor.trail_.push_back(t.link);
    if (cursor.ases_.empty() || cursor.ases_.back() != asn) {
      cursor.ases_.push_back(asn);
    }
  }
}

void Engine::Transit::Pushed(std::size_t index, bool follows_ttl) {
  const std::uint64_t bit = LabelBit(index);
  if (bit == 0) {
    slack = 0;  // a field the mask cannot name: only a retry resumes
  } else if (follows_ttl) {
    follows |= bit;
  } else {
    follows &= ~bit;
  }
}

void Engine::Transit::MinRule(std::uint64_t bit, int kept, int popped,
                              bool popped_follows) {
  const bool kept_follows = (follows & bit) != 0;
  if (kept_follows == popped_follows) return;  // min of one kind keeps it
  const int following = kept_follows ? kept : popped;
  const int constant = kept_follows ? popped : kept;
  if (following < constant) {
    // The following side stays the minimum while the probe TTL grows by
    // at most the margin.
    slack = std::min(slack, constant - following);
    follows |= bit;
  } else {
    // The constant side wins or ties, and keeps winning as the probe TTL
    // grows.
    follows &= ~bit;
  }
}

Engine::Outcome Engine::Settle(StepResult step,
                               netbase::Ipv4Address origin) {
  if (!step.outcome) return Outcome{.received = false, .loss = step.loss};
  // Only packets addressed to the origin terminate the simulation.
  if (step.outcome->reply.dst != origin) {
    return Outcome{.received = false, .loss = LossReason::kDropped};
  }
  return std::move(*step.outcome);
}

Engine::Outcome Engine::DrainReply(Transit& t, netbase::Ipv4Address origin,
                                   EngineStats& stats,
                                   ReplyMemo* memo) const {
  Packet& p = *t.packet;
  ReplyMemo::Key key;
  std::uint64_t hash = 0;
  ReplyMemo* recorder = nullptr;
  if (memo != nullptr) {
    key.router = t.router;
    key.in_interface = t.in_interface;
    key.src = p.src;
    key.dst = p.dst;
    key.ip_ttl = p.ip_ttl;
    key.flow_id = p.flow_id;
    key.kind = p.kind;
    key.flags = static_cast<std::uint8_t>((t.locally_originated ? 1 : 0) |
                                          (t.skip_ip_decrement ? 2 : 0));
    hash = ReplyMemo::Hash(key, p.labels);
    const ReplyMemo::Entry* e = memo->Find(hash, key, p.labels);
    // The recorded walk passed the max_hops guard at every hop; from this
    // start it does so only while it ends within the budget.
    if (e != nullptr &&
        std::int64_t{p.hops_traversed} + e->trail_size <= options_.max_hops) {
      ++memo->counts_.hits;
      memo->counts_.replayed_hops += e->hops_processed;
      stats.hops_processed += e->hops_processed;
      stats.icmp_generated += e->icmp_generated;
      stats.labels_pushed += e->labels_pushed;
      stats.labels_popped += e->labels_popped;
      if (Footprint* footprint = t.footprint) {
        for (std::uint32_t i = e->ases_begin; i < e->ases_begin + e->ases_size;
             ++i) {
          footprint->Add(memo->ases_[i]);
        }
      }
      StepResult replay{.loss = e->loss};
      if (e->loss == LossReason::kNone) {
        // Forward's additions, in walk order: a bit-identical elapsed
        // time.
        const double fraction = options_.delay_jitter_fraction;
        for (std::uint32_t i = e->trail_begin;
             i < e->trail_begin + e->trail_size; ++i) {
          const topo::LinkId link = memo->trail_[i];
          p.elapsed_ms += JitteredDelay(adjacency_[link].delay_ms, fraction,
                                        p.probe_id, link);
        }
        p.hops_traversed += static_cast<int>(e->trail_size);
        p.ip_ttl = e->final_ip_ttl;
        const netbase::LabelStackEntry* final_labels =
            memo->labels_.data() + e->labels_begin + e->key_labels;
        p.labels.assign(final_labels, final_labels + e->final_labels);
        const double rtt_ms = p.elapsed_ms + options_.host_stub_delay_ms;
        replay.outcome = Outcome{
            .received = true, .reply = std::move(p), .rtt_ms = rtt_ms};
      }
      return Settle(std::move(replay), origin);
    }
    ++memo->counts_.misses;
    // A key already recorded (the budget sent it here) is walked only.
    if (e == nullptr && memo->BeginRecord(p.labels)) recorder = memo;
  }

  const EngineStats before = stats;
  while (true) {
    const int hops_before = p.hops_traversed;
    if (recorder != nullptr) recorder->RecordAs(router_as_[t.router]);
    StepResult step = ProcessAt(t, stats);
    if (step.ended()) {
      if (recorder != nullptr) {
        // A walk cut by the loop guard depends on its start hop count,
        // which the key leaves out: never recorded.
        if (step.loss == LossReason::kTtlLoop) {
          recorder->AbortRecord();
        } else {
          recorder->CommitRecord(hash, key, step.loss,
                                 step.outcome ? step.outcome->reply : p,
                                 Minus(stats, before));
        }
      }
      return Settle(std::move(step), origin);
    }
    if (recorder != nullptr) {
      WORMHOLE_DCHECK(p.hops_traversed == hops_before + 1,
                      "a reply step that does not end the walk forwards "
                      "exactly once");
      recorder->RecordStep(t.link);
    }
  }
}

void Engine::CommitStats(const EngineStats& stats) const {
  StatShard& shard = stat_shards_[exec::ThreadSlot(kStatShards)];
  shard.packets_injected.fetch_add(stats.packets_injected,
                                   std::memory_order_relaxed);
  shard.hops_processed.fetch_add(stats.hops_processed,
                                 std::memory_order_relaxed);
  shard.icmp_generated.fetch_add(stats.icmp_generated,
                                 std::memory_order_relaxed);
  shard.labels_pushed.fetch_add(stats.labels_pushed,
                                std::memory_order_relaxed);
  shard.labels_popped.fetch_add(stats.labels_popped,
                                std::memory_order_relaxed);
}

Engine::StepResult Engine::ProcessAt(Transit& t, EngineStats& stats) const {
  if (t.packet->hops_traversed > options_.max_hops) {
    return StepResult{.loss = LossReason::kTtlLoop};
  }
  ++stats.hops_processed;
  if (Footprint* footprint = t.footprint) footprint->Add(router_as_[t.router]);
  if (t.packet->has_labels()) return ProcessMpls(t, stats);
  return ProcessIp(t, stats);
}

Engine::StepResult Engine::ProcessMpls(Transit& t, EngineStats& stats) const {
  const RouterId r = t.router;
  WORMHOLE_DCHECK(t.packet->has_labels(),
                  "ProcessMpls entered without a label stack");
  // In-flight stacks keep the top of stack at the BACK: push/swap/pop are
  // O(1) writes at the end, and the expiry path below is the only place
  // the stack is ever copied (for the RFC 4950 quotation) — an untouched
  // pre-decrement stack is quoted directly, so the non-expiring hop never
  // copies anything.
  LabelStackEntry& top = t.packet->labels.back();

  if (top.label == kExplicitNull) {
    // UHP disposition at the Egress LER. The LSE-TTL check still applies
    // (it can only fire under ttl-propagate).
    const auto decremented = static_cast<std::uint8_t>(top.ttl - 1);
    if (decremented == 0) {
      if (t.packet->kind != PacketKind::kEchoRequest) {
        return StepResult{.loss = LossReason::kReplyExpired};
      }
      // Stack still as received: quote it. No table maps explicit-null,
      // so there is no label operation to forward the ICMP along.
      return OriginateError(t, PacketKind::kTimeExceeded,
                            /*quote_labels=*/true, stats);
    }
    t.packet->labels.pop_back();
    ++stats.labels_popped;
    // Emulation-calibrated: decrement without an expiry check, no min copy
    // (see engine.h); then a fresh IP pass with no further decrement.
    if (t.packet->ip_ttl > 0) {
      --t.packet->ip_ttl;
    } else if (t.IpFollows()) {
      // The clamp at 0 is no shift of the probe TTL: past here only a
      // retry resumes.
      t.slack = 0;
    }
    t.skip_ip_decrement = true;
    return ProcessIp(t, stats);
  }

  const auto op = ResolveLabel(r, top.label, *t.packet);
  if (!op) return StepResult{.loss = LossReason::kDropped};

  const auto decremented = static_cast<std::uint8_t>(top.ttl - 1);
  if (decremented == 0) {
    if (t.packet->kind != PacketKind::kEchoRequest) {
      return StepResult{.loss = LossReason::kReplyExpired};
    }
    // Stack still holds the pre-decrement values (RFC 4950 quotes the
    // packet as received); reuse the op resolved above for the
    // ICMP-along-the-LSP decision instead of resolving again.
    return OriginateError(t, PacketKind::kTimeExceeded,
                          /*quote_labels=*/true, stats, &*op);
  }
  top.ttl = decremented;

  switch (op->kind) {
    case LabelOp::Kind::kPop: {
      // PHP pop (or a neighbor without a binding — same data-plane
      // effect): the min rule applies between the popped LSE-TTL and
      // whatever gets exposed — the inner label of a stacked packet (SR
      // SID lists) or the IP header (RFC 3443 §5.4).
      const auto popped = static_cast<int>(decremented);
      const bool popped_follows =
          (t.follows & Transit::LabelBit(t.packet->labels.size() - 1)) != 0;
      t.packet->labels.pop_back();
      ++stats.labels_popped;
      if (router_cache_[r].config->min_ttl_on_pop) {
        if (!t.packet->labels.empty()) {
          LabelStackEntry& exposed = t.packet->labels.back();
          t.MinRule(Transit::LabelBit(t.packet->labels.size() - 1),
                    exposed.ttl, popped, popped_follows);
          exposed.ttl = static_cast<std::uint8_t>(
              std::min(static_cast<int>(exposed.ttl), popped));
        } else {
          t.MinRule(1, t.packet->ip_ttl, popped, popped_follows);
          t.packet->ip_ttl = std::min(t.packet->ip_ttl, popped);
        }
      }
      break;
    }
    case LabelOp::Kind::kSwapExplicitNull:
      top.label = kExplicitNull;
      break;
    case LabelOp::Kind::kSwap:
      top.label = op->out_label;
      break;
  }
  Forward(t, op->hop);
  return {};
}

Engine::StepResult Engine::ProcessIp(Transit& t, EngineStats& stats) const {
  const RouterId r = t.router;
  // RFC 3443 TTL domain: the IP TTL is an 8-bit field; `int` storage only
  // exists so arithmetic never silently wraps (see Packet::ip_ttl).
  WORMHOLE_ASSERT(t.packet->ip_ttl >= 0 && t.packet->ip_ttl <= 255,
                  "IP TTL outside [0, 255]");
  const RouterCache& rc = router_cache_[r];
  const topo::Router& router = *rc.router;
  // One config resolution per hop: the SR check, the TE check and
  // MaybeImpose below all read this reference instead of re-fetching.
  const mpls::MplsConfig& config = *rc.config;
  Packet& p = *t.packet;

  // Delivery to one of this router's own addresses happens before any
  // decrement (the packet has arrived).
  if (IsLocalAddress(r, p.dst)) {
    if (p.kind != PacketKind::kEchoRequest) {
      // A reply addressed to a router: nothing is waiting for it.
      return StepResult{.loss = LossReason::kDropped};
    }
    if (config.icmp_silent || IcmpLost(p, r, config.icmp_loss)) {
      return StepResult{.loss = LossReason::kDropped};
    }
    const VendorBehavior behavior = BehaviorOf(router.vendor);
    Packet reply = MakeEchoReply(t, p.dst, behavior.initial_ttl_echo_reply);
    ++stats.icmp_generated;
    *t.packet = std::move(reply);  // answered at the same router
    t.locally_originated = true;
    return {};
  }

  // Transit decrement (skipped right after local origination or UHP pop).
  if (!t.locally_originated && !t.skip_ip_decrement) {
    --p.ip_ttl;
    if (p.ip_ttl <= 0) {
      if (p.kind != PacketKind::kEchoRequest) {
        return StepResult{.loss = LossReason::kReplyExpired};
      }
      return OriginateError(t, PacketKind::kTimeExceeded,
                            /*quote_labels=*/false, stats);
    }
  }
  t.locally_originated = false;
  t.skip_ip_decrement = false;

  // Delivery to an attached host (after the decrement — the stub segment
  // is an ordinary IP hop). Only hosts gatewayed by THIS router matter,
  // so the cached per-router list replaces the global host hash.
  for (const AttachedHost& host : rc.hosts) {
    if (host.address != p.dst) continue;
    if (p.is_reply()) {
      Outcome outcome;
      outcome.received = true;
      outcome.rtt_ms = p.elapsed_ms + options_.host_stub_delay_ms;
      outcome.reply = std::move(p);
      return StepResult{.outcome = std::move(outcome)};
    }
    // An echo-request probing the host itself: the host answers.
    Packet reply = MakeEchoReply(t, p.dst, kHostEchoReplyTtl);
    reply.elapsed_ms += 2 * options_.host_stub_delay_ms;
    ++stats.icmp_generated;
    *t.packet = std::move(reply);
    t.in_interface = host.stub_interface;
    // The gateway forwards (and decrements) the host's reply normally:
    // locally_originated stays false.
    return {};
  }

  // SR steering: the ingress imposes the policy's SID list; the packet
  // then waypoint-hops through the domain.
  if (sr_ != nullptr && config.enabled) {
    if (const mpls::SrPolicy* policy = sr_->PolicyFor(r, p.dst)) {
      const FibEntry* route = rc.fib->LookupExact(netbase::Prefix::Host(
          topology_->router(policy->waypoints.front()).loopback));
      if (route != nullptr && !route->next_hops.empty()) {
        const NextHop hop = PickNextHop(route->next_hops, p);
        const bool propagate = config.ttl_propagate;
        // Impose the SID list directly onto the in-flight stack: deepest
        // segment first, so the first waypoint's SID ends up on top (the
        // back). The deepest new entry carries the bottom-of-stack flag.
        const std::size_t before = p.labels.size();
        const auto& waypoints = policy->waypoints;
        WORMHOLE_DCHECK(!propagate || (p.ip_ttl >= 1 && p.ip_ttl <= 255),
                        "propagated LSE TTL outside [1, 255]");
        for (auto it = waypoints.rbegin(); it != waypoints.rend(); ++it) {
          LabelStackEntry lse;
          lse.label = mpls::NodeSid(*it);
          WORMHOLE_ASSERT(lse.label <= netbase::kMaxLabel,
                          "SR node SID exceeds the 20-bit label space");
          lse.ttl = static_cast<std::uint8_t>(propagate ? p.ip_ttl : 255);
          lse.bottom_of_stack = false;
          t.Pushed(p.labels.size(), propagate && t.IpFollows());
          p.labels.push_back(lse);
        }
        if (p.labels.size() > before) {
          p.labels[before].bottom_of_stack = true;
        }
        if (hop.neighbor == waypoints.front()) {
          p.labels.pop_back();  // PHP at push for the first segment
        }
        stats.labels_pushed += p.labels.size() - before;
        Forward(t, hop);
        return {};
      }
    }
  }

  // RSVP-TE steering: a tunnel ingress pins selected prefixes onto an
  // explicit route, overriding the IGP next hop.
  if (te_ != nullptr && config.enabled) {
    if (const mpls::TeSteering* steering = te_->SteeringFor(r, p.dst)) {
      if (steering->labeled) {
        LabelStackEntry lse;
        lse.label = steering->label;
        WORMHOLE_ASSERT(lse.label <= netbase::kMaxLabel,
                        "TE steering label exceeds the 20-bit label space");
        WORMHOLE_DCHECK(
            !config.ttl_propagate || (p.ip_ttl >= 1 && p.ip_ttl <= 255),
            "propagated LSE TTL outside [1, 255]");
        lse.ttl = static_cast<std::uint8_t>(
            config.ttl_propagate ? p.ip_ttl : 255);
        t.Pushed(p.labels.size(), config.ttl_propagate && t.IpFollows());
        p.labels.push_back(lse);
        ++stats.labels_pushed;
      }
      Forward(t, NextHop{steering->link, steering->next});
      return {};
    }
  }

  // A reply heads to its probe's origin host, whose route from here the
  // routes-home table already holds; a probe takes the longest-prefix
  // match.
  const FibEntry* entry = nullptr;
  if (p.is_reply() && t.home != kNoHost) {
    WORMHOLE_DCHECK(p.dst == topology_->hosts()[t.home].address,
                    "a reply heads to its probe's origin host");
    entry = host_routes_[std::size_t{r} * host_count_ + t.home];
    WORMHOLE_DCHECK(entry == rc.fib->Lookup(p.dst),
                    "the routes-home table matches the FIB");
  } else {
    entry = rc.fib->Lookup(p.dst);
  }
  if (entry == nullptr) {
    if (p.kind != PacketKind::kEchoRequest) {
      return StepResult{.loss = LossReason::kNoRoute};
    }
    return OriginateError(t, PacketKind::kDestinationUnreachable,
                          /*quote_labels=*/false, stats);
  }

  if (entry->next_hops.empty()) {
    // Connected subnet: the destination is the far end of one of our links
    // (or an unassigned address => unreachable).
    for (const topo::InterfaceId iid : router.interfaces) {
      const topo::Interface& iface = topology_->interface(iid);
      if (iface.link == topo::kNoLink || iface.subnet != entry->prefix ||
          !topology_->link(iface.link).up) {
        continue;
      }
      const topo::Interface& peer = topology_->OtherEnd(iface.link, r);
      if (peer.address == p.dst) {
        Forward(t, NextHop{iface.link, peer.router});
        return {};
      }
    }
    if (p.kind != PacketKind::kEchoRequest) {
      return StepResult{.loss = LossReason::kNoRoute};
    }
    return OriginateError(t, PacketKind::kDestinationUnreachable,
                          /*quote_labels=*/false, stats);
  }

  const NextHop& hop = PickNextHop(entry->next_hops, p);
  MaybeImpose(rc, *entry, hop, t, stats);
  Forward(t, hop);
  return {};
}

Engine::StepResult Engine::OriginateError(Transit& t,
                                          netbase::PacketKind kind,
                                          bool quote_labels,
                                          EngineStats& stats,
                                          const LabelOp* lsp_op) const {
  const RouterId r = t.router;
  const RouterCache& rc = router_cache_[r];
  const mpls::MplsConfig& config = *rc.config;
  if (config.icmp_silent || IcmpLost(*t.packet, r, config.icmp_loss)) {
    return StepResult{.loss = LossReason::kDropped};
  }
  const VendorBehavior behavior = BehaviorOf(rc.router->vendor);
  ++stats.icmp_generated;

  Packet reply;
  reply.kind = kind;
  reply.src = topology_->interface(t.in_interface).address;
  reply.dst = t.packet->src;
  reply.ip_ttl = behavior.initial_ttl_time_exceeded;
  reply.flow_id = t.packet->flow_id;
  reply.probe_id = t.packet->probe_id;
  reply.quoted_dst = t.packet->dst;
  reply.elapsed_ms = t.packet->elapsed_ms;
  reply.hops_traversed = t.packet->hops_traversed;
  if (quote_labels && config.rfc4950) {
    reply.quoted_labels = netbase::QuoteStack(t.packet->labels);
  }

  // An error generated mid-LSP is first forwarded along the tunnel: it is
  // sent out with the label the offending packet would have carried
  // (`lsp_op`, resolved once by the caller). When the operation is a PHP
  // pop (no label left), the reply is routed directly instead.
  if (quote_labels && config.icmp_along_lsp && !t.packet->labels.empty()) {
    if (lsp_op != nullptr && lsp_op->kind != LabelOp::Kind::kPop) {
      LabelStackEntry lse;
      lse.label = lsp_op->kind == LabelOp::Kind::kSwapExplicitNull
                      ? kExplicitNull
                      : lsp_op->out_label;
      lse.ttl = static_cast<std::uint8_t>(
          config.ttl_propagate ? reply.ip_ttl : 255);
      reply.labels = {lse};
      ++stats.labels_pushed;
      *t.packet = std::move(reply);  // same router, same incoming
      Forward(t, lsp_op->hop);
      return {};
    }
  }

  *t.packet = std::move(reply);
  t.locally_originated = true;
  t.skip_ip_decrement = false;
  return {};
}

netbase::Packet Engine::MakeEchoReply(const Transit& t,
                                      netbase::Ipv4Address reply_src,
                                      int initial_ttl) const {
  Packet reply;
  reply.kind = PacketKind::kEchoReply;
  reply.src = reply_src;
  reply.dst = t.packet->src;
  reply.ip_ttl = initial_ttl;
  reply.flow_id = t.packet->flow_id;
  reply.probe_id = t.packet->probe_id;
  reply.elapsed_ms = t.packet->elapsed_ms;
  reply.hops_traversed = t.packet->hops_traversed;
  return reply;
}

void Engine::Forward(Transit& t, const routing::NextHop& hop) const {
  WORMHOLE_DCHECK(hop.link != topo::kNoLink && hop.neighbor != topo::kNoRouter,
                  "Forward over an unresolved next hop");
  WORMHOLE_DCHECK(hop.link < adjacency_.size(),
                  "Forward over a link the engine was not built with");
  const Adjacency& adjacency = adjacency_[hop.link];
  t.packet->elapsed_ms +=
      JitteredDelay(adjacency.delay_ms, options_.delay_jitter_fraction,
                    t.packet->probe_id, hop.link);
  ++t.packet->hops_traversed;
  t.router = hop.neighbor;
  t.link = hop.link;
  t.in_interface =
      hop.neighbor == adjacency.router_a ? adjacency.a : adjacency.b;
  WORMHOLE_DCHECK(
      t.in_interface == topology_->EndOn(hop.link, hop.neighbor).id,
      "the adjacency record names the neighbor's end of the link");
  // The one-shot flags describe the router the packet just left, never the
  // neighbor it arrives at.
  t.locally_originated = false;
  t.skip_ip_decrement = false;
}

const routing::NextHop& Engine::PickNextHop(
    const routing::NextHopSet& hops,
    const netbase::Packet& packet) const {
  if (hops.size() == 1 || !options_.ecmp_enabled) return hops.front();
  return hops[FlowHash(packet) % hops.size()];
}

void Engine::MaybeImpose(const RouterCache& rc,
                         const routing::FibEntry& entry,
                         const routing::NextHop& hop, Transit& t,
                         EngineStats& stats) const {
  const mpls::MplsConfig& config = *rc.config;
  if (!config.enabled) return;
  const mpls::LdpDomain* domain = rc.domain;
  if (domain == nullptr) return;

  netbase::Prefix fec;
  switch (entry.source) {
    case routing::RouteSource::kBgp:
      // External traffic is switched via the LSP towards the BGP next hop
      // (the egress LER's loopback, next-hop-self).
      if (entry.bgp_next_hop.is_unspecified()) return;  // eBGP exit
      fec = netbase::Prefix::Host(entry.bgp_next_hop);
      break;
    case routing::RouteSource::kIgp:
      fec = entry.prefix;
      break;
    case routing::RouteSource::kConnected:
      return;
  }

  const auto binding = domain->BindingOf(hop.neighbor, fec);
  if (!binding) return;
  if (binding->kind == mpls::BindingKind::kImplicitNull) return;  // pop+push

  LabelStackEntry lse;
  lse.label = binding->kind == mpls::BindingKind::kExplicitNull
                  ? kExplicitNull
                  : binding->label;
  WORMHOLE_ASSERT(lse.label == kExplicitNull ||
                      (lse.label >= netbase::kFirstUnreservedLabel &&
                       lse.label <= netbase::kMaxLabel),
                  "imposed label outside the unreserved range");
  Packet& packet = *t.packet;
  WORMHOLE_DCHECK(
      !config.ttl_propagate || (packet.ip_ttl >= 1 && packet.ip_ttl <= 255),
      "propagated LSE TTL outside [1, 255]");
  lse.ttl =
      static_cast<std::uint8_t>(config.ttl_propagate ? packet.ip_ttl : 255);
  t.Pushed(packet.labels.size(), config.ttl_propagate && t.IpFollows());
  packet.labels.push_back(lse);  // in-flight order: new top goes at the back
  ++stats.labels_pushed;
}

bool Engine::IsLocalAddress(topo::RouterId router,
                            netbase::Ipv4Address address) const {
  // Scanning this router's few addresses beats the global address hash;
  // the set is exactly what FindRouterByAddress would map to `router`.
  // The [lo, hi] bracket rejects nearly all transit traffic first: a
  // router's addresses cluster inside its AS block, so a packet merely
  // passing through fails the range check with two compares.
  const RouterCache& rc = router_cache_[router];
  if (address < rc.addr_lo || rc.addr_hi < address) return false;
  for (const netbase::Ipv4Address local : rc.local_addresses) {
    if (local == address) return true;
  }
  return false;
}

}  // namespace wormhole::sim
