// Epoch-versioned campaign trace cache (docs/incremental.md).
//
// One entry per (phase, vantage point, target): the packed trace bytes
// (CompactTraceLog), the probe-id budget the trace consumed, the
// convergence epoch the trace is valid for, and its footprint: the sorted
// ASes of every router its probes' and replies' walks processed a hop at
// (sim/footprint.h). After a link flap the owner calls Invalidate with
// the ConvergenceDelta from sim::Network::OnLinkStateChange. A kIntraAs
// delta rebuilt only the touched AS's routing, label and engine state,
// so an entry whose footprint misses that AS replays unchanged: it is
// promoted to the new epoch, and every other entry is left stale and
// re-probed live by the next Campaign::RunDelta. The rule is exact, not
// a conservative guess: a stale entry's walks did visit the touched AS.
//
// Reduce-time echo pings (the fingerprint echo-reply half and the
// candidate-egress ping) are cached the same way in a per-VP ping table,
// each with the footprint of its one probe and reply. Revelation probing
// is never cached: it is multi-probe, state-dependent inference and
// re-running it live against the current epoch is what keeps delta runs
// exact.
//
// Memory model: an entry can hit again only while its table's index
// points at it and it carries the current convergence epoch (Find needs
// the exact epoch, and epochs only grow). Every other entry is dead:
// superseded by a re-probe of its target (marked when Record or
// RecordPing overwrites the index slot, since under strict offsets the
// replacement may carry the same epoch), left stale by Invalidate, or
// left behind by a reconvergence nobody invalidated. Begin, which runs at
// the start of every RunDelta, compacts each (phase, vp) slot and each
// ping slot whose dead bytes exceed its live bytes: it rewrites the log,
// entries and footprint pool with only the live entries, in recorded
// order, and remaps the index in place. So after any loss-free RunDelta
// RetainedBytes stays within twice the live bytes plus vector growth
// slack and the index. A trace entry costs sizeof(Entry) (40 B) + 16 B
// header + 8 B per hop + 4 B per footprint AS; a ping entry
// sizeof(PingEntry) (48 B) + 4 B per footprint AS.
//
// Thread safety: Begin and Invalidate require exclusivity. Find / Record
// / LogOf touch only the (phase, vp) slot they name, so any number of
// worker threads may use DISTINCT (phase, vp) pairs concurrently — the
// exact discipline Campaign's one-task-per-VP fan-out follows.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "campaign/compact_trace.h"
#include "probe/trace.h"
#include "routing/as_path.h"
#include "routing/delta.h"
#include "topo/topology.h"

namespace wormhole::campaign {

class TraceCache {
 public:
  /// The two cached probing phases of a campaign run. Reduce-time echo
  /// pings have their own per-VP table (FindPing / RecordPing);
  /// revelation probes are never cached and always re-run live.
  enum class Phase : std::uint8_t { kDiscovery = 0, kTargeted = 1 };

  struct Lookup {
    bool hit = false;
    /// Index into LogOf(phase, vp) when hit, until the next Begin.
    std::uint32_t trace_index = 0;
    /// Probe ids the cached trace consumed (Prober::SkipProbes replay).
    std::uint64_t probes_used = 0;
  };

  /// Binds the cache to a topology and sizes the slot table; resets
  /// everything when the topology or the vantage-point count changes.
  /// Then compacts every slot whose dead bytes exceed its live bytes,
  /// keeping only the entries that can still hit at `epoch` (the current
  /// convergence epoch); lookups answer as before. `topology` must
  /// outlive the cache.
  void Begin(const topo::Topology& topology, std::size_t vp_count,
             std::uint64_t epoch);

  /// Cache probe for one (phase, vp, target) pair. A hit requires the
  /// entry to carry `epoch` exactly; when `strict_offsets` (lossy worlds:
  /// reply bytes depend on probe ids) it additionally requires the
  /// prober's current probes_sent to equal the count the trace was
  /// recorded at — a mismatched offset would replay bytes a cold run
  /// would not produce, so it re-traces live instead.
  [[nodiscard]] Lookup Find(Phase phase, std::size_t vp,
                            netbase::Ipv4Address target, std::uint64_t epoch,
                            std::uint64_t probes_sent,
                            bool strict_offsets) const;

  /// Records a freshly traced result for (phase, vp, trace.target) with
  /// its sorted `footprint` (the prober's sim::Footprint::ases()),
  /// superseding any older entry for the same target.
  void Record(Phase phase, std::size_t vp, const probe::TraceResult& trace,
              std::span<const topo::AsNumber> footprint, std::uint64_t epoch,
              std::uint64_t start_probe_count, std::uint64_t probes_used);

  /// The packed log Lookup::trace_index points into.
  [[nodiscard]] const CompactTraceLog& LogOf(Phase phase,
                                             std::size_t vp) const;

  struct PingLookup {
    bool hit = false;
    /// The cached reply bytes (valid when hit).
    probe::PingResult result;
    /// Probe ids the cached ping consumed (Prober::SkipProbes replay).
    std::uint64_t probes_used = 0;
  };

  /// Cache probe for one reduce-time echo ping from vantage point `vp`
  /// to `address`. Epoch and offset semantics are identical to Find's.
  [[nodiscard]] PingLookup FindPing(std::size_t vp,
                                    netbase::Ipv4Address address,
                                    std::uint64_t epoch,
                                    std::uint64_t probes_sent,
                                    bool strict_offsets) const;

  /// Records a freshly issued ping for (vp, ping.target) with its sorted
  /// `footprint`, superseding any older entry for the same address.
  void RecordPing(std::size_t vp, const probe::PingResult& ping,
                  std::span<const topo::AsNumber> footprint,
                  std::uint64_t epoch, std::uint64_t start_probe_count,
                  std::uint64_t probes_used);

  /// Applies a convergence delta to every entry of the previous epoch
  /// (delta.epoch - 1): kNone promotes each to delta.epoch, kIntraAs
  /// promotes exactly those whose footprint misses delta.touched_as and
  /// leaves the rest stale, and kGlobal drops every entry.
  void Invalidate(const routing::ConvergenceDelta& delta);

  /// Invalidate(delta); the oracle is ignored. Kept only because the
  /// repository benchmark (perfbench/perfbench.cpp) still passes one; it
  /// goes with the next change to that benchmark (ROADMAP item 8).
  void Invalidate(const routing::ConvergenceDelta& delta,
                  const routing::AsPathOracle& oracle);

  /// Bytes retained by logs, entries, footprints and indexes (bench/test
  /// memory accounting).
  [[nodiscard]] std::size_t RetainedBytes() const;

 private:
  struct Entry {
    netbase::Ipv4Address target;
    std::uint32_t trace_index = 0;
    std::uint64_t epoch = 0;
    std::uint64_t start_probe_count = 0;
    std::uint32_t probes_used = 0;
    /// [as_begin, as_end) slice of the table's as_pool: the footprint.
    std::uint32_t as_begin = 0;
    std::uint32_t as_end = 0;
    /// The index points at a newer entry for the target: never hits again.
    bool superseded = false;
  };
  static_assert(sizeof(Entry) <= 40, "the superseded mark fills padding");
  struct PingEntry {
    /// The pinged address.
    netbase::Ipv4Address target;
    /// As Entry's.
    std::uint32_t as_begin = 0;
    std::uint64_t epoch = 0;
    std::uint64_t start_probe_count = 0;
    std::uint32_t probes_used = 0;
    std::uint32_t as_end = 0;
    int reply_ip_ttl = 0;
    bool responded = false;
    bool superseded = false;
    double rtt_ms = 0.0;
  };
  /// One vantage point's entries of one kind.
  template <typename E>
  struct Table {
    std::vector<E> entries;
    /// target address value -> index of the newest entry for that target.
    std::unordered_map<std::uint32_t, std::uint32_t> index;
    /// The entries' footprints, back to back.
    std::vector<topo::AsNumber> as_pool;
  };
  struct Slot : Table<Entry> {
    CompactTraceLog log;
  };
  using PingSlot = Table<PingEntry>;

  [[nodiscard]] const Slot& SlotOf(Phase phase, std::size_t vp) const;
  [[nodiscard]] Slot& SlotOf(Phase phase, std::size_t vp);
  /// Rewrites `slot` with only its entries that can hit at `epoch` once
  /// their bytes are outweighed by those of the entries that cannot.
  static void Compact(Slot& slot, std::uint64_t epoch);
  static void Compact(PingSlot& slot, std::uint64_t epoch);

  const topo::Topology* topology_ = nullptr;
  std::size_t vp_count_ = 0;
  /// 2 * vp_count_ slots: [phase][vp].
  std::vector<Slot> slots_;
  /// vp_count_ reduce-time echo-ping slots. The reduce is sequential,
  /// so unlike slots_ these never see concurrent access.
  std::vector<PingSlot> ping_slots_;
};

}  // namespace wormhole::campaign
