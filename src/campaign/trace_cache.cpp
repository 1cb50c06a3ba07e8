#include "campaign/trace_cache.h"

#include <algorithm>
#include <utility>

#include "netbase/contracts.h"

namespace wormhole::campaign {
namespace {

using Index = std::unordered_map<std::uint32_t, std::uint32_t>;
using Scope = routing::ConvergenceDelta::Scope;

/// Find can serve `entry` again: the index points at it and it carries
/// the current epoch (Find needs the exact epoch, and epochs only grow).
template <typename E>
bool CanHit(const E& entry, std::uint64_t epoch) {
  return !entry.superseded && entry.epoch == epoch;
}

template <typename E>
std::size_t FootprintSize(const E& entry) {
  return entry.as_end - entry.as_begin;
}

/// The entry that serves `target` at `epoch`, and under `strict_offsets`
/// at `probes_sent` too; null when none does.
template <typename E>
const E* Serving(const std::vector<E>& entries, const Index& index,
                 netbase::Ipv4Address target, std::uint64_t epoch,
                 std::uint64_t probes_sent, bool strict_offsets) {
  const auto it = index.find(target.value());
  if (it == index.end()) return nullptr;
  const E& entry = entries[it->second];
  if (entry.epoch != epoch) return nullptr;
  if (strict_offsets && entry.start_probe_count != probes_sent) {
    return nullptr;
  }
  return &entry;
}

/// Appends `entry` with its footprint to `table` as its target's newest,
/// marking the entry it replaces superseded.
template <typename T, typename E>
void Add(T& table, E entry, std::span<const topo::AsNumber> footprint) {
  WORMHOLE_DCHECK(std::is_sorted(footprint.begin(), footprint.end()),
                  "a footprint is sorted");
  entry.as_begin = static_cast<std::uint32_t>(table.as_pool.size());
  table.as_pool.insert(table.as_pool.end(), footprint.begin(),
                       footprint.end());
  entry.as_end = static_cast<std::uint32_t>(table.as_pool.size());
  const auto newest = static_cast<std::uint32_t>(table.entries.size());
  const auto [it, inserted] =
      table.index.try_emplace(entry.target.value(), newest);
  if (!inserted) {
    table.entries[it->second].superseded = true;
    it->second = newest;
  }
  table.entries.push_back(entry);
}

/// Moves every previous-epoch entry of `table` that `delta` leaves
/// unchanged to delta.epoch.
template <typename T>
void Promote(T& table, const routing::ConvergenceDelta& delta) {
  // Walking the flat entries vector visits superseded entries too. They
  // may carry the previous epoch (under strict offsets a re-trace
  // supersedes an entry of its own epoch), so their mark, not their
  // epoch, skips them. Older entries already miss and will be re-traced
  // (self-healing after an uninvalidated reconvergence).
  for (auto& entry : table.entries) {
    if (entry.superseded || entry.epoch + 1 != delta.epoch) continue;
    if (delta.scope == Scope::kIntraAs &&
        std::binary_search(table.as_pool.begin() + entry.as_begin,
                           table.as_pool.begin() + entry.as_end,
                           delta.touched_as)) {
      continue;
    }
    entry.epoch = delta.epoch;
  }
}

/// Keeps the `live` entries of `table` that can hit at `epoch`, in
/// recorded order, with their `live_ases` footprint ASes, after `rehome`
/// moves each one's log bytes; remaps the index in place and erases the
/// targets whose newest entry is dropped.
template <typename T, typename Rehome>
void KeepLive(T& table, std::size_t live, std::size_t live_ases,
              std::uint64_t epoch, Rehome rehome) {
  auto& entries = table.entries;
  decltype(table.entries) kept;
  kept.reserve(live);
  std::vector<topo::AsNumber> as_pool;
  as_pool.reserve(live_ases);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    auto& entry = entries[i];
    if (!CanHit(entry, epoch)) {
      if (!entry.superseded) table.index.erase(entry.target.value());
      continue;
    }
    const auto it = table.index.find(entry.target.value());
    WORMHOLE_DCHECK(it != table.index.end() && it->second == i,
                    "an unsuperseded entry is its target's newest");
    it->second = static_cast<std::uint32_t>(kept.size());
    const auto as_begin = static_cast<std::uint32_t>(as_pool.size());
    as_pool.insert(as_pool.end(), table.as_pool.begin() + entry.as_begin,
                   table.as_pool.begin() + entry.as_end);
    entry.as_begin = as_begin;
    entry.as_end = static_cast<std::uint32_t>(as_pool.size());
    rehome(entry);
    kept.push_back(entry);
  }
  entries = std::move(kept);
  table.as_pool = std::move(as_pool);
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
  // its footprint.
  std::size_t live = 0;
  std::size_t live_hops = 0;
  std::size_t live_ases = 0;
  std::size_t live_bytes = 0;
  std::size_t dead_bytes = 0;
  for (const Entry& entry : slot.entries) {
    const std::size_t hops = slot.log.HopsOf(entry.trace_index);
    const std::size_t bytes = CompactTraceLog::BytesFor(1, hops) +
                              sizeof(Entry) +
                              FootprintSize(entry) * sizeof(topo::AsNumber);
    if (!CanHit(entry, epoch)) {
      dead_bytes += bytes;
      continue;
    }
    ++live;
    live_hops += hops;
    live_ases += FootprintSize(entry);
    live_bytes += bytes;
  }
  if (dead_bytes <= live_bytes) return;

  CompactTraceLog log;
  log.Reserve(live, live_hops);
  KeepLive(slot, live, live_ases, epoch, [&](Entry& entry) {
    const auto trace_index = static_cast<std::uint32_t>(log.size());
    log.AppendFrom(slot.log, entry.trace_index);
    entry.trace_index = trace_index;
  });
  slot.log = std::move(log);
}

void TraceCache::Compact(PingSlot& slot, std::uint64_t epoch) {
  std::size_t live = 0;
  std::size_t live_ases = 0;
  std::size_t live_bytes = 0;
  std::size_t dead_bytes = 0;
  for (const PingEntry& entry : slot.entries) {
    const std::size_t bytes =
        sizeof(PingEntry) + FootprintSize(entry) * sizeof(topo::AsNumber);
    if (!CanHit(entry, epoch)) {
      dead_bytes += bytes;
      continue;
    }
    ++live;
    live_ases += FootprintSize(entry);
    live_bytes += bytes;
  }
  if (dead_bytes <= live_bytes) return;
  KeepLive(slot, live, live_ases, epoch, [](PingEntry&) {});
}

const TraceCache::Slot& TraceCache::SlotOf(Phase phase,
                                           std::size_t vp) const {
  return slots_.at(static_cast<std::size_t>(phase) * vp_count_ + vp);
}

TraceCache::Slot& TraceCache::SlotOf(Phase phase, std::size_t vp) {
  return slots_.at(static_cast<std::size_t>(phase) * vp_count_ + vp);
}

TraceCache::Lookup TraceCache::Find(Phase phase, std::size_t vp,
                                    netbase::Ipv4Address target,
                                    std::uint64_t epoch,
                                    std::uint64_t probes_sent,
                                    bool strict_offsets) const {
  const Slot& slot = SlotOf(phase, vp);
  const Entry* entry = Serving(slot.entries, slot.index, target, epoch,
                               probes_sent, strict_offsets);
  if (entry == nullptr) return {};
  return Lookup{.hit = true,
                .trace_index = entry->trace_index,
                .probes_used = entry->probes_used};
}

void TraceCache::Record(Phase phase, std::size_t vp,
                        const probe::TraceResult& trace,
                        std::span<const topo::AsNumber> footprint,
                        std::uint64_t epoch,
                        std::uint64_t start_probe_count,
                        std::uint64_t probes_used) {
  Slot& slot = SlotOf(phase, vp);
  Entry entry;
  entry.target = trace.target;
  entry.trace_index = static_cast<std::uint32_t>(slot.log.size());
  entry.epoch = epoch;
  entry.start_probe_count = start_probe_count;
  entry.probes_used = static_cast<std::uint32_t>(probes_used);
  slot.log.Append(trace);
  Add(slot, entry, footprint);
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
  const PingEntry* entry = Serving(slot.entries, slot.index, address, epoch,
                                   probes_sent, strict_offsets);
  if (entry == nullptr) return {};
  PingLookup lookup;
  lookup.hit = true;
  lookup.result.target = entry->target;
  lookup.result.responded = entry->responded;
  lookup.result.reply_ip_ttl = entry->reply_ip_ttl;
  lookup.result.rtt_ms = entry->rtt_ms;
  lookup.probes_used = entry->probes_used;
  return lookup;
}

void TraceCache::RecordPing(std::size_t vp, const probe::PingResult& ping,
                            std::span<const topo::AsNumber> footprint,
                            std::uint64_t epoch,
                            std::uint64_t start_probe_count,
                            std::uint64_t probes_used) {
  PingEntry entry;
  entry.target = ping.target;
  entry.epoch = epoch;
  entry.start_probe_count = start_probe_count;
  entry.probes_used = static_cast<std::uint32_t>(probes_used);
  entry.responded = ping.responded;
  entry.reply_ip_ttl = ping.reply_ip_ttl;
  entry.rtt_ms = ping.rtt_ms;
  Add(ping_slots_.at(vp), entry, footprint);
}

void TraceCache::Invalidate(const routing::ConvergenceDelta& delta) {
  if (delta.scope == Scope::kGlobal) {
    // Every FIB was rebuilt: any walk may differ. Drop everything.
    for (Slot& slot : slots_) slot = Slot{};
    for (PingSlot& slot : ping_slots_) slot = PingSlot{};
    return;
  }
  // Promotion is per entry, so visit order cannot change the outcome.
  for (Slot& slot : slots_) Promote(slot, delta);
  for (PingSlot& slot : ping_slots_) Promote(slot, delta);
}

void TraceCache::Invalidate(const routing::ConvergenceDelta& delta,
                            const routing::AsPathOracle& /*oracle*/) {
  Invalidate(delta);
}

std::size_t TraceCache::RetainedBytes() const {
  // Node-based map: key+value plus per-node bookkeeping.
  constexpr std::size_t kIndexNode =
      sizeof(std::uint32_t) * 2 + 4 * sizeof(void*);
  std::size_t bytes = 0;
  for (const Slot& slot : slots_) {
    bytes += slot.log.RetainedBytes();
    bytes += slot.entries.capacity() * sizeof(Entry);
    bytes += slot.as_pool.capacity() * sizeof(topo::AsNumber);
    bytes += slot.index.size() * kIndexNode;
  }
  for (const PingSlot& slot : ping_slots_) {
    bytes += slot.entries.capacity() * sizeof(PingEntry);
    bytes += slot.as_pool.capacity() * sizeof(topo::AsNumber);
    bytes += slot.index.size() * kIndexNode;
  }
  return bytes;
}

}  // namespace wormhole::campaign
