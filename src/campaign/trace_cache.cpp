#include "campaign/trace_cache.h"

#include <algorithm>
#include <utility>

#include "netbase/contracts.h"

namespace wormhole::campaign {
namespace {

using Index = std::unordered_map<std::uint32_t, std::uint32_t>;

/// Find can serve `entry` again: the index points at it and it carries
/// the current epoch (Find needs the exact epoch, and epochs only grow).
template <typename E>
bool CanHit(const E& entry, std::uint64_t epoch) {
  return !entry.superseded && entry.epoch == epoch;
}

/// Points `index` at the entry about to be appended to `entries` for
/// `target`, marking the entry it replaces superseded.
template <typename E>
void IndexNewest(std::vector<E>& entries, Index& index,
                 netbase::Ipv4Address target) {
  const auto newest = static_cast<std::uint32_t>(entries.size());
  const auto [it, inserted] = index.try_emplace(target.value(), newest);
  if (inserted) return;
  entries[it->second].superseded = true;
  it->second = newest;
}

/// Keeps the `live` entries that can hit at `epoch`, in recorded order,
/// after `rehome` moves each one's out-of-line bytes; remaps `index` in
/// place and erases the targets whose newest entry is dropped.
template <typename E, typename Rehome>
void KeepLive(std::vector<E>& entries, Index& index, std::size_t live,
              std::uint64_t epoch, Rehome rehome) {
  std::vector<E> kept;
  kept.reserve(live);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    E& entry = entries[i];
    if (!CanHit(entry, epoch)) {
      if (!entry.superseded) index.erase(entry.target.value());
      continue;
    }
    const auto it = index.find(entry.target.value());
    WORMHOLE_DCHECK(it != index.end() && it->second == i,
                    "an unsuperseded entry is its target's newest");
    it->second = static_cast<std::uint32_t>(kept.size());
    rehome(entry);
    kept.push_back(entry);
  }
  entries = std::move(kept);
}

}  // namespace

void TraceCache::Begin(const topo::Topology& topology, std::size_t vp_count,
                       std::uint64_t epoch) {
  if (topology_ != &topology || vp_count_ != vp_count) {
    slots_.clear();
    ping_slots_.clear();
    topology_ = &topology;
    vp_count_ = vp_count;
  }
  slots_.resize(2 * vp_count_);
  ping_slots_.resize(vp_count_);
  for (Slot& slot : slots_) Compact(slot, epoch);
  for (PingSlot& slot : ping_slots_) Compact(slot, epoch);
}

void TraceCache::Compact(Slot& slot, std::uint64_t epoch) {
  // Bytes as RetainedBytes counts them: log header and hops, the Entry,
  // its AS slice.
  std::size_t live = 0;
  std::size_t live_hops = 0;
  std::size_t live_ases = 0;
  std::size_t live_bytes = 0;
  std::size_t dead_bytes = 0;
  for (const Entry& entry : slot.entries) {
    const std::size_t hops = slot.log.HopsOf(entry.trace_index);
    const std::size_t ases = entry.as_end - entry.as_begin;
    const std::size_t bytes = CompactTraceLog::BytesFor(1, hops) +
                              sizeof(Entry) + ases * sizeof(topo::AsNumber);
    if (!CanHit(entry, epoch)) {
      dead_bytes += bytes;
      continue;
    }
    ++live;
    live_hops += hops;
    live_ases += ases;
    live_bytes += bytes;
  }
  if (dead_bytes <= live_bytes) return;

  CompactTraceLog log;
  log.Reserve(live, live_hops);
  std::vector<topo::AsNumber> as_pool;
  as_pool.reserve(live_ases);
  KeepLive(slot.entries, slot.index, live, epoch, [&](Entry& entry) {
    const auto trace_index = static_cast<std::uint32_t>(log.size());
    log.AppendFrom(slot.log, entry.trace_index);
    entry.trace_index = trace_index;
    const auto as_begin = static_cast<std::uint32_t>(as_pool.size());
    as_pool.insert(as_pool.end(), slot.as_pool.begin() + entry.as_begin,
                   slot.as_pool.begin() + entry.as_end);
    entry.as_begin = as_begin;
    entry.as_end = static_cast<std::uint32_t>(as_pool.size());
  });
  slot.log = std::move(log);
  slot.as_pool = std::move(as_pool);
}

void TraceCache::Compact(PingSlot& slot, std::uint64_t epoch) {
  // Every ping entry costs sizeof(PingEntry), so comparing bytes is
  // comparing counts.
  std::size_t live = 0;
  for (const PingEntry& entry : slot.entries) {
    if (CanHit(entry, epoch)) ++live;
  }
  if (slot.entries.size() - live <= live) return;
  KeepLive(slot.entries, slot.index, live, epoch, [](PingEntry&) {});
}

const TraceCache::Slot& TraceCache::SlotOf(Phase phase,
                                           std::size_t vp) const {
  return slots_.at(static_cast<std::size_t>(phase) * vp_count_ + vp);
}

TraceCache::Slot& TraceCache::SlotOf(Phase phase, std::size_t vp) {
  return slots_.at(static_cast<std::size_t>(phase) * vp_count_ + vp);
}

topo::AsNumber TraceCache::AddressAs(netbase::Ipv4Address address) const {
  if (const auto rid = topology_->FindRouterByAddress(address)) {
    return topology_->router(*rid).asn;
  }
  if (const topo::Host* host = topology_->FindHost(address)) {
    return topology_->router(host->gateway).asn;
  }
  return 0;
}

TraceCache::Lookup TraceCache::Find(Phase phase, std::size_t vp,
                                    netbase::Ipv4Address target,
                                    std::uint64_t epoch,
                                    std::uint64_t probes_sent,
                                    bool strict_offsets) const {
  const Slot& slot = SlotOf(phase, vp);
  const auto it = slot.index.find(target.value());
  if (it == slot.index.end()) return {};
  const Entry& entry = slot.entries[it->second];
  if (entry.epoch != epoch) return {};
  if (strict_offsets && entry.start_probe_count != probes_sent) return {};
  return Lookup{.hit = true,
                .trace_index = entry.trace_index,
                .probes_used = entry.probes_used};
}

void TraceCache::Record(Phase phase, std::size_t vp,
                        const probe::TraceResult& trace, std::uint64_t epoch,
                        std::uint64_t start_probe_count,
                        std::uint64_t probes_used) {
  Slot& slot = SlotOf(phase, vp);
  if (!slot.bound) {
    slot.vantage_point = trace.source;
    slot.vp_as = AddressAs(trace.source);
    slot.bound = true;
  }
  WORMHOLE_DCHECK(slot.vantage_point == trace.source,
                  "one TraceCache slot per vantage point");

  Entry entry;
  entry.target = trace.target;
  entry.trace_index = static_cast<std::uint32_t>(slot.log.size());
  entry.epoch = epoch;
  entry.start_probe_count = start_probe_count;
  entry.probes_used = static_cast<std::uint32_t>(probes_used);

  // The entry's AS footprint: every AS whose routing state the trace
  // bytes can depend on through responders (return paths start in the
  // responder's AS). The vantage point and the oracle's forward walk are
  // folded in at Invalidate time.
  std::vector<topo::AsNumber> ases;
  ases.reserve(trace.hops.size() + 1);
  const topo::AsNumber target_as = AddressAs(trace.target);
  if (target_as == 0) entry.any_unknown_as = true;
  else ases.push_back(target_as);
  for (const probe::Hop& hop : trace.hops) {
    if (!hop.address) continue;
    const topo::AsNumber asn = AddressAs(*hop.address);
    if (asn == 0) entry.any_unknown_as = true;
    else ases.push_back(asn);
  }
  std::sort(ases.begin(), ases.end());
  ases.erase(std::unique(ases.begin(), ases.end()), ases.end());
  entry.as_begin = static_cast<std::uint32_t>(slot.as_pool.size());
  slot.as_pool.insert(slot.as_pool.end(), ases.begin(), ases.end());
  entry.as_end = static_cast<std::uint32_t>(slot.as_pool.size());

  slot.log.Append(trace);
  IndexNewest(slot.entries, slot.index, trace.target);
  slot.entries.push_back(entry);
}

const CompactTraceLog& TraceCache::LogOf(Phase phase, std::size_t vp) const {
  return SlotOf(phase, vp).log;
}

TraceCache::PingLookup TraceCache::FindPing(std::size_t vp,
                                            netbase::Ipv4Address address,
                                            std::uint64_t epoch,
                                            std::uint64_t probes_sent,
                                            bool strict_offsets) const {
  const PingSlot& slot = ping_slots_.at(vp);
  const auto it = slot.index.find(address.value());
  if (it == slot.index.end()) return {};
  const PingEntry& entry = slot.entries[it->second];
  if (entry.epoch != epoch) return {};
  if (strict_offsets && entry.start_probe_count != probes_sent) return {};
  PingLookup lookup;
  lookup.hit = true;
  lookup.result.target = entry.target;
  lookup.result.responded = entry.responded;
  lookup.result.reply_ip_ttl = entry.reply_ip_ttl;
  lookup.result.rtt_ms = entry.rtt_ms;
  lookup.probes_used = entry.probes_used;
  return lookup;
}

void TraceCache::RecordPing(std::size_t vp, netbase::Ipv4Address source,
                            const probe::PingResult& ping,
                            std::uint64_t epoch,
                            std::uint64_t start_probe_count,
                            std::uint64_t probes_used) {
  PingSlot& slot = ping_slots_.at(vp);
  if (!slot.bound) {
    slot.vantage_point = source;
    slot.vp_as = AddressAs(source);
    slot.bound = true;
  }
  WORMHOLE_DCHECK(slot.vantage_point == source,
                  "one ping slot per vantage point");
  PingEntry entry;
  entry.target = ping.target;
  entry.asn = AddressAs(ping.target);
  entry.epoch = epoch;
  entry.start_probe_count = start_probe_count;
  entry.probes_used = static_cast<std::uint32_t>(probes_used);
  entry.responded = ping.responded;
  entry.reply_ip_ttl = ping.reply_ip_ttl;
  entry.rtt_ms = ping.rtt_ms;
  IndexNewest(slot.entries, slot.index, ping.target);
  slot.entries.push_back(entry);
}

void TraceCache::Invalidate(const routing::ConvergenceDelta& delta,
                            const routing::AsPathOracle& oracle) {
  if (delta.scope == routing::ConvergenceDelta::Scope::kGlobal) {
    // The AS level itself moved: every path may differ and the oracle's
    // pre-flap answers say nothing. Drop everything.
    for (Slot& slot : slots_) slot = Slot{};
    for (PingSlot& slot : ping_slots_) slot = PingSlot{};
    return;
  }

  const topo::AsNumber touched =
      delta.scope == routing::ConvergenceDelta::Scope::kIntraAs
          ? delta.touched_as
          : 0;
  // Both phase slots of a vantage point share its address and source AS,
  // so the (expensive to warm) walk memos below are built once per VP
  // and reused across the phases.
  for (std::size_t vp = 0; vp < vp_count_; ++vp) {
    Slot* const phase_slots[] = {&SlotOf(Phase::kDiscovery, vp),
                                 &SlotOf(Phase::kTargeted, vp)};
    PingSlot& pings = ping_slots_.at(vp);
    netbase::Ipv4Address vantage_point{};
    topo::AsNumber vp_as = 0;
    bool bound = false;
    for (const Slot* slot : phase_slots) {
      if (slot->bound) {
        vantage_point = slot->vantage_point;
        vp_as = slot->vp_as;
        bound = true;
      }
    }
    if (pings.bound) {
      WORMHOLE_DCHECK(!bound || pings.vantage_point == vantage_point,
                      "ping slot of one VP shares the vantage point");
      vantage_point = pings.vantage_point;
      vp_as = pings.vp_as;
      bound = true;
    }
    if (!bound) continue;

    // Per-VP classifier: "can a reply from AS `a` to this vantage point
    // cross the touched AS?" — responders repeat across entries and
    // their walks share tails, so verdicts amortize to O(1). Note
    // reply.MayContain(touched) is trivially true (a path starts in its
    // own AS), so scanning an entry's recorded footprint also catches
    // footprints that contain the touched AS itself.
    routing::ReturnPathClassifier reply(oracle, vantage_point, touched);
    const auto reply_path_touched = [&](topo::AsNumber a) {
      return reply.MayContain(a);
    };

    // Per-VP forward classifier: "may the forward path from this VP to
    // the target cross the touched AS, or any AS on it have a dirty
    // return path?" (a previously silent hop could start or stop
    // replying if its reply's path moved). Announcer- and owner-level
    // memos make it amortized O(1) per entry; the one per-address walk
    // element — RouterOwnerOf(target) — is exactly AddressAs(target),
    // which Record folded into the entry's footprint slice, so the
    // slice scan below covers it. (Targets whose address does not
    // resolve were already marked any_unknown_as at Record time.)
    routing::ForwardPathClassifier forward(oracle, reply, vp_as);

    for (Slot* const slot : phase_slots) {
      if (!slot->bound || slot->entries.empty()) continue;
      WORMHOLE_DCHECK(slot->vantage_point == vantage_point,
                      "phase slots of one VP share the vantage point");
      // Walking the flat entries vector visits superseded entries too.
      // They may carry the previous epoch (under strict offsets a
      // re-trace supersedes an entry of its own epoch), so their mark,
      // not their epoch, skips them. Promotion is per-entry, so visit
      // order cannot change the outcome.
      for (Entry& entry : slot->entries) {
        // Only previous-epoch entries are promotable; older ones
        // already miss and will be re-traced (self-healing after an
        // uninvalidated reconvergence).
        if (entry.superseded || entry.epoch + 1 != delta.epoch) continue;
        if (delta.scope == routing::ConvergenceDelta::Scope::kNone) {
          entry.epoch = delta.epoch;
          continue;
        }

        bool dirty = entry.any_unknown_as || vp_as == 0;
        // Cheap pre-filter: anything under the touched AS's announced
        // aggregate routes toward (or through) it — dirty without a
        // walk.
        if (!dirty && delta.touched_aggregate.Contains(entry.target)) {
          dirty = true;
        }
        // Return paths from every AS holding an observed responder —
        // including AddressAs(target), which doubles as the walk's
        // per-address RouterOwnerOf element (see the memo note above).
        for (std::uint32_t a = entry.as_begin; !dirty && a < entry.as_end;
             ++a) {
          dirty = reply_path_touched(slot->as_pool[a]);
        }
        if (!dirty) {
          dirty = forward.Dirty(entry.target,
                                oracle.BlockOwnerOf(entry.target));
        }
        if (!dirty) entry.epoch = delta.epoch;
      }
    }

    // Reduce-time echo pings: the trace dirty rule with the pinged
    // address in the role of the target. A ping has exactly one
    // responder (the address itself), so the footprint scan collapses
    // to one reply-path check of its AS.
    for (PingEntry& entry : pings.entries) {
      if (entry.superseded || entry.epoch + 1 != delta.epoch) continue;
      if (delta.scope == routing::ConvergenceDelta::Scope::kNone) {
        entry.epoch = delta.epoch;
        continue;
      }
      bool dirty = entry.asn == 0 || vp_as == 0;
      if (!dirty && delta.touched_aggregate.Contains(entry.target)) {
        dirty = true;
      }
      if (!dirty) dirty = reply_path_touched(entry.asn);
      if (!dirty) {
        dirty = forward.Dirty(entry.target,
                              oracle.BlockOwnerOf(entry.target));
      }
      if (!dirty) entry.epoch = delta.epoch;
    }
  }
}

std::size_t TraceCache::RetainedBytes() const {
  std::size_t bytes = 0;
  for (const Slot& slot : slots_) {
    bytes += slot.log.RetainedBytes();
    bytes += slot.entries.capacity() * sizeof(Entry);
    bytes += slot.as_pool.capacity() * sizeof(topo::AsNumber);
    // Node-based map: key+value plus per-node bookkeeping.
    bytes += slot.index.size() *
             (sizeof(std::uint32_t) * 2 + 4 * sizeof(void*));
  }
  for (const PingSlot& slot : ping_slots_) {
    bytes += slot.entries.capacity() * sizeof(PingEntry);
    bytes += slot.index.size() *
             (sizeof(std::uint32_t) * 2 + 4 * sizeof(void*));
  }
  return bytes;
}

}  // namespace wormhole::campaign
