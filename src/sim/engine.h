// The packet-level IP + MPLS data plane.
//
// This is the GNS3/Internet substitute: it forwards one packet at a time,
// hop by hop, applying the TTL semantics the paper's techniques exploit.
// The rules are calibrated so that bench/fig04_emulation reproduces the
// per-hop addresses *and return TTLs* of the paper's Fig. 4 exactly:
//
//  * Plain IP hop: decrement IP-TTL; expiry => ICMP time-exceeded sourced
//    from the incoming interface, with the vendor's initial TTL.
//  * Ingress LER: IP hop first (decrement), then push; LSE-TTL := IP-TTL
//    under ttl-propagate, else 255.
//  * LSR: decrement only the top LSE-TTL. Expiry => time-exceeded quoting
//    the received LSE stack (RFC 4950); if the ICMP can still be label-
//    switched (the expiring hop's out-binding is a real or explicit-null
//    label) it is forwarded along the LSP to the tunnel end first, which
//    produces Fig. 4a's 247/248 return-TTL inversion.
//  * PHP pop (implicit-null out-binding): IP-TTL := min(IP-TTL, LSE-TTL)
//    ("min rule", RFC 3443 / Cisco), then forward without a further IP
//    decrement.
//  * UHP pop (packet arrives with explicit-null): pop, decrement IP-TTL
//    *without* an expiry check and with no min copy, then a fresh IP
//    lookup with no further decrement. This is the emulation-calibrated
//    behaviour that makes even the Egress LER invisible (Fig. 4d).
//  * Locally originated packets (all ICMP replies) are not decremented at
//    their originating router and may be label-imposed like any traffic.
//  * Errors are never generated about ICMP errors or echo replies: an
//    expiring reply is silently dropped (the probe times out).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mpls/config.h"
#include "mpls/ldp.h"
#include "mpls/rsvp_te.h"
#include "mpls/segment_routing.h"
#include "netbase/packet.h"
#include "routing/fib.h"
#include "topo/topology.h"

namespace wormhole::exec {
class ThreadPool;
}  // namespace wormhole::exec

namespace wormhole::sim {

class ReplyMemo;

struct EngineOptions {
  /// Spread traffic over equal-cost next hops by flow hash; with ECMP off
  /// the first (lowest) next hop is always taken.
  bool ecmp_enabled = true;
  /// Hard bound on data-plane hops per injected packet (loop guard).
  int max_hops = 256;
  /// One-way delay of a host stub segment, in milliseconds.
  double host_stub_delay_ms = 0.05;
  /// Per-packet delay jitter as a fraction of each link's base delay
  /// (0 = fully deterministic RTTs). The draw is deterministic per
  /// (probe id, link), so repeated sends of the same probe id see the
  /// same latency.
  double delay_jitter_fraction = 0.0;
};

/// Why an injected probe produced no answer.
enum class LossReason : std::uint8_t {
  kNone,
  kTtlLoop,          ///< exceeded max_hops
  kNoRoute,          ///< a reply (not the probe) hit a routing black hole
  kReplyExpired,     ///< a reply's own TTL ran out
  kDropped,          ///< malformed/label without binding
};

/// Counters for the perf bench and campaign accounting.
struct EngineStats {
  std::uint64_t packets_injected = 0;
  std::uint64_t hops_processed = 0;
  std::uint64_t icmp_generated = 0;
  std::uint64_t labels_pushed = 0;
  std::uint64_t labels_popped = 0;

  EngineStats& operator+=(const EngineStats& other) {
    packets_injected += other.packets_injected;
    hops_processed += other.hops_processed;
    icmp_generated += other.icmp_generated;
    labels_pushed += other.labels_pushed;
    labels_popped += other.labels_popped;
    return *this;
  }
  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

class Engine {
 public:
  /// All references must outlive the engine. `te` and `sr` may be null
  /// (no RSVP-TE tunnels / no Segment Routing). With a `pool`, the
  /// per-router caches are built in parallel (disjoint writes, identical
  /// content at any worker count).
  Engine(const topo::Topology& topology, const mpls::MplsConfigMap& configs,
         const std::vector<routing::Fib>& fibs, const mpls::LdpTables& ldp,
         EngineOptions options = {}, const mpls::TeDatabase* te = nullptr,
         const mpls::SrDatabase* sr = nullptr,
         exec::ThreadPool* pool = nullptr);

  /// Rebuilds the hot-path caches of just `routers` after an incremental
  /// reconvergence re-installed their routes/labels (the FIB vector and
  /// LDP tables keep their addresses; only derived state is re-resolved).
  /// Bumps the convergence epoch.
  void RefreshRouters(const std::vector<topo::RouterId>& routers);

  /// Monotone convergence-epoch counter: 1 after construction, +1 per
  /// RefreshRouters call (sim::Network calls it exactly once per
  /// reconvergence). A probe's outcome is a pure function of the state
  /// published under one epoch, so an epoch-stamped result cache knows a
  /// cached entry is only servable while the stamp matches — the single
  /// source of truth the delta-reprobe layer versions against
  /// (docs/incremental.md).
  [[nodiscard]] std::uint64_t convergence_epoch() const {
    return convergence_epoch_;
  }

  /// True when some router's ICMP-loss probability is non-zero: the loss
  /// draw is keyed by (probe id, router), so trace BYTES then depend on
  /// the probe-id offset a trace starts at. When false, reply existence
  /// and content are pure functions of the routing state (delay jitter
  /// only perturbs RTTs, which compact trace logs drop), so a cached
  /// trace replays byte-identically at any probe-id offset. Scans the
  /// live configs on each call — tests mutate them after construction.
  [[nodiscard]] bool RepliesDependOnProbeIds() const;

  struct Outcome {
    bool received = false;
    LossReason loss = LossReason::kNone;
    /// The reply as delivered to the origin host (ip_ttl = remaining TTL —
    /// the bracketed numbers in Fig. 4).
    netbase::Packet reply;
    /// Round-trip time: probe path + reply path.
    double rtt_ms = 0.0;

    friend bool operator==(const Outcome&, const Outcome&) = default;
  };

  /// Injects `probe` from the host owning `probe.src` and runs the data
  /// plane until a reply returns to that host or the packet dies.
  /// `probe.src` must be an attached host address.
  ///
  /// With a `memo`, a reply whose forwarding state the memo has seen under
  /// the current epoch is replayed instead of walked (sim/reply_memo.h);
  /// outcome, RTT bits and stats are exactly what the walk gives. Without
  /// one, every hop is walked: the reference path.
  ///
  /// Thread-safe: Send is logically const — routing/LDP/topology state is
  /// shared read-only, and the stats counters are sharded per thread — so
  /// any number of probers may inject packets concurrently, each with its
  /// own memo.
  Outcome Send(netbase::Packet probe, ReplyMemo* memo = nullptr) const;

  /// Results of one SendBatch call plus its recycled stepping state.
  ///
  /// All storage is reused across batches (capacity is kept on clear), so
  /// a caller that holds on to one BatchResult steps every subsequent
  /// batch without allocating. One BatchResult per calling thread; the
  /// engine never retains a pointer to it past the SendBatch call.
  class BatchResult {
   public:
    /// `outcomes[i]` is exactly what `Send(probes[i])` would have
    /// returned: completed outcomes are written to their original batch
    /// slot, whatever order the rounds retired them in.
    std::vector<Outcome> outcomes;
    /// Per-slot counter deltas (parallel to `outcomes`); their sum is what
    /// the batch contributed to `stats()`. Callers that defer the flush
    /// (SendBatchOptions::commit_stats == false) commit a subset of slots
    /// through Engine::CommitStats.
    std::vector<EngineStats> per_slot_stats;

   private:
    friend class Engine;
    // Packet arena: slot-indexed, sized once per batch so packets (and
    // their inline label stacks) never move while rounds run. Transits
    // reference arena packets by pointer.
    std::vector<netbase::Packet> arena;
    // Per-slot origin host address (reply acceptance check).
    std::vector<netbase::Ipv4Address> origin;
    // Live-transit SoA rows, compacted and grouped by router each round.
    // While a row is live these columns — not the arena packet — are the
    // AUTHORITATIVE copy of its top-of-stack (`ttl`, `top_label`;
    // kNoTopLabel when unlabelled, in which case `ttl` is the IP TTL),
    // elapsed time and hop count: shared-decision runs update only the
    // columns, and the packet is written back just before any generic
    // step, expiry or delivery (see StepBatchRow's prologue and the
    // kPop/impose write-backs in TryStepRunShared). The prefetch and
    // run-sharing decisions therefore never touch the packet.
    std::vector<std::uint32_t> slot;
    std::vector<topo::RouterId> router;
    std::vector<topo::InterfaceId> in_iface;
    std::vector<std::uint8_t> ttl;
    std::vector<std::uint32_t> top_label;
    std::vector<std::uint8_t> flags;
    std::vector<double> elapsed;
    std::vector<std::int32_t> hops;
    // Gather targets for the group-by-router permutation (swapped with
    // the rows above each round).
    std::vector<std::uint32_t> slot2;
    std::vector<topo::RouterId> router2;
    std::vector<topo::InterfaceId> in_iface2;
    std::vector<std::uint8_t> ttl2;
    std::vector<std::uint32_t> top_label2;
    std::vector<std::uint8_t> flags2;
    std::vector<double> elapsed2;
    std::vector<std::int32_t> hops2;
    // Sort scratch: the round's live permutation and per-router counts.
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> counts;
  };

  struct SendBatchOptions {
    /// Flush the batch's summed counters into this thread's stat shard
    /// before returning (one flush per batch). Callers that must
    /// attribute counters probe-by-probe (the speculative batched
    /// prober discards mispredicted slots) pass false and commit the
    /// consumed slots' sum through CommitStats themselves.
    bool commit_stats = true;
    /// Replays known reply walks, as Send's `memo` does. One memo per
    /// calling thread; the engine keeps no pointer to it.
    ReplyMemo* reply_memo = nullptr;
  };

  /// Steps all of `probes` through the data plane at once and writes
  /// `Send`-identical outcomes into `batch.outcomes`, slot for slot.
  ///
  /// Each round groups the live transits by current router (stable in
  /// batch order), so every lookup against one RouterCache, its FIB and
  /// its ldp_op tables happens back-to-back, with the next group's state
  /// software-prefetched while the current one is processed. Probes are
  /// consumed (moved into the batch arena). Every `probe.src` must be an
  /// attached host address (throws std::invalid_argument otherwise, in
  /// which case the batch contents are unspecified).
  ///
  /// Thread-safe under the same contract as Send, provided each thread
  /// uses its own BatchResult.
  void SendBatch(std::span<netbase::Packet> probes, BatchResult& batch,
                 SendBatchOptions batch_options) const;
  void SendBatch(std::span<netbase::Packet> probes, BatchResult& batch) const {
    SendBatch(probes, batch, SendBatchOptions{});
  }

  /// Adds `stats` to this thread's stat shard — the deferred-commit half
  /// of SendBatchOptions::commit_stats == false.
  void CommitStats(const EngineStats& stats) const;

  /// Totals merged across the per-thread stat shards.
  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }

 private:
  struct Transit {
    /// The in-flight packet. A pointer so one stepping code path serves
    /// both entry points: Send aims it at a stack local, SendBatch at a
    /// stable arena slot — either way the packet bytes never move while
    /// the hop loop runs.
    netbase::Packet* packet = nullptr;
    topo::RouterId router = topo::kNoRouter;
    topo::InterfaceId in_interface = topo::kNoInterface;
    /// Set while the packet sits at the router that just originated it;
    /// suppresses the IP decrement for that first hop.
    bool locally_originated = false;
    /// One-shot decrement suppression after a UHP pop at the same router.
    bool skip_ip_decrement = false;
  };

  // Each step either advances the caller's Transit IN PLACE (default
  // result: no outcome, loss == kNone), finishes with an Outcome, or
  // loses the packet. Threading one mutable Transit through the loop —
  // instead of returning a fresh one per hop — keeps the packet (with
  // its inline label stacks) unmoved in memory across hops.
  struct StepResult {
    std::optional<Outcome> outcome;
    LossReason loss = LossReason::kNone;

    [[nodiscard]] bool ended() const {
      return outcome.has_value() || loss != LossReason::kNone;
    }
  };

  /// The Outcome an ended step reports to the host at `origin`: only
  /// packets addressed to it terminate the simulation.
  static Outcome Settle(StepResult step, netbase::Ipv4Address origin);

  /// A resolved label operation: where the labelled packet goes next and
  /// what happens to its top label. Unifies LDP and RSVP-TE forwarding.
  struct LabelOp {
    routing::NextHop hop;
    enum class Kind : std::uint8_t {
      kSwap,
      kPop,               ///< PHP pop: min rule, then plain forwarding
      kSwapExplicitNull,  ///< UHP: hand an explicit-null to the egress
    } kind = Kind::kSwap;
    std::uint32_t out_label = 0;
  };

  /// A host hanging off a router, reduced to what the delivery check
  /// needs per hop.
  struct AttachedHost {
    netbase::Ipv4Address address;
    topo::InterfaceId stub_interface = topo::kNoInterface;
  };

  /// Per-router hot-path state resolved once at engine construction, so
  /// the per-hop loop never repeats the config / LDP-domain / FIB hash
  /// and bounds-checked lookups. Pointees are stable: MplsConfigMap and
  /// LdpTables are node-based maps that are never erased from, and the
  /// FIB vector is fixed-size for the engine's lifetime. Config *values*
  /// may still be tweaked after construction (tests do) — the cache holds
  /// pointers, not copies, so it always sees the live values. The derived
  /// tables (addresses, hosts, LDP ops) snapshot structures that the
  /// simulator never mutates after the control plane converged.
  struct RouterCache {
    const topo::Router* router = nullptr;
    const mpls::MplsConfig* config = nullptr;
    const mpls::LdpDomain* domain = nullptr;  ///< null: AS not MPLS-enabled
    const routing::Fib* fib = nullptr;
    /// Addresses owned by this router (loopback + every interface),
    /// scanned instead of the global address hash on local delivery.
    /// [addr_lo, addr_hi] brackets the set so the per-hop delivery check
    /// rejects almost every transit packet with two compares instead of
    /// a scan over a well-connected router's interface list.
    std::vector<netbase::Ipv4Address> local_addresses;
    netbase::Ipv4Address addr_lo;
    netbase::Ipv4Address addr_hi;
    /// Hosts whose gateway is this router (usually none or one).
    std::vector<AttachedHost> hosts;
    /// LDP forwarding, fully resolved in CSR form: in-label `l` maps to
    /// pool slice [offsets[l-16], offsets[l-16+1]) — one LabelOp per
    /// ECMP next hop of the FEC's route (empty slice: label unbound, or
    /// FEC without a usable route — resolves to nullopt). Collapses the
    /// FecOfLabel → LookupExact → BindingOf chain of the swap path into
    /// a single indexed load, with all of a router's ops in one
    /// contiguous buffer instead of a vector-of-vectors; valid because
    /// LDP labels are allocated densely from kFirstUnreservedLabel and
    /// the converged tables are immutable.
    std::vector<std::uint32_t> ldp_op_offsets;  ///< size labels+1 (or 0)
    std::vector<LabelOp> ldp_op_pool;
  };

  /// Builds one router's hot-path cache (everything except `hosts`, which
  /// the caller attaches from the topology's host list).
  [[nodiscard]] RouterCache BuildRouterCache(topo::RouterId r) const;

  /// Resolves `label` at `router`, consulting RSVP-TE then LDP tables.
  [[nodiscard]] std::optional<LabelOp> ResolveLabel(
      topo::RouterId router, std::uint32_t label,
      const netbase::Packet& packet) const;

  // The per-packet walk accumulates counters into a caller-local
  // EngineStats (no shared mutation on the hot path); Send flushes it
  // into this thread's shard once per injected packet.

  /// Runs the reply in `t` to its end — delivery or loss — and checks the
  /// delivery against `origin`. The one reply-drain routine behind Send
  /// and StepBatchRow: with a `memo` it replays a recorded walk when the
  /// key matches and the hop budget allows, else walks and records.
  Outcome DrainReply(Transit& t, netbase::Ipv4Address origin,
                     EngineStats& stats, ReplyMemo* memo) const;

  /// One iteration of the hop loop: the max_hops guard, then one hop at
  /// `t.router`.
  StepResult ProcessAt(Transit& t, EngineStats& stats) const;
  StepResult ProcessMpls(Transit& t, EngineStats& stats) const;
  StepResult ProcessIp(Transit& t, EngineStats& stats) const;

  /// Replaces `t.packet` with an ICMP error about it, sourced from the
  /// incoming interface, and hands it to routing (possibly along the LSP).
  /// `lsp_op` is the already-resolved label operation of the offending
  /// packet's top label (null when none resolved — plain IP expiry or an
  /// explicit-null top, which no table maps); it drives the
  /// ICMP-along-the-LSP forwarding without a second ResolveLabel.
  StepResult OriginateError(Transit& t, netbase::PacketKind kind,
                            bool quote_labels, EngineStats& stats,
                            const LabelOp* lsp_op = nullptr) const;
  netbase::Packet MakeEchoReply(const Transit& t,
                                netbase::Ipv4Address reply_src,
                                int initial_ttl) const;

  /// Forwards `t.packet` out of `t.router` towards `hop` in place:
  /// accumulates link delay and re-homes `t` at the neighbor. The packet
  /// bytes never move.
  void Forward(Transit& t, const routing::NextHop& hop) const;

  /// Chooses the ECMP next hop for this packet (stable per flow).
  const routing::NextHop& PickNextHop(
      const routing::NextHopSet& hops,
      const netbase::Packet& packet) const;

  /// Pushes a label if the route and LDP tables call for it.
  void MaybeImpose(const RouterCache& rc, const routing::FibEntry& entry,
                   const routing::NextHop& hop, netbase::Packet& packet,
                   EngineStats& stats) const;

  [[nodiscard]] bool IsLocalAddress(topo::RouterId router,
                                    netbase::Ipv4Address address) const;

  // --- batched stepping internals (see SendBatch) -----------------------

  /// Compacts the dead rows out of `batch`'s first `live` SoA rows and
  /// stable-sorts the survivors by current router (batch order within a
  /// router). Returns the new live count.
  std::size_t GroupLiveByRouter(BatchResult& batch, std::size_t live) const;

  /// Runs one generic data-plane step on row `pos` — exactly one
  /// iteration of Send's hop loop, then DrainReply if the step made a
  /// reply — writing a finished outcome to its slot (and tombstoning the
  /// row) or refreshing the row in place.
  void StepBatchRow(BatchResult& batch, std::size_t pos,
                    ReplyMemo* memo) const;

  /// Shared-decision fast path for rows [begin, end) of one router group
  /// that carry identical forwarding keys: resolves the routing decision
  /// once on the leader and applies it to every member with member-local
  /// TTL/delay arithmetic, byte-identical to StepBatchRow on each.
  /// Returns false (having stepped nothing) when the decision is not of a
  /// shareable kind; the caller then steps the rows generically.
  bool TryStepRunShared(BatchResult& batch, std::size_t begin,
                        std::size_t end) const;

  /// Re-derives row `pos`'s SoA fields (router, interface, TTL, top
  /// label, flags, elapsed, hops) from its transit after a step left it
  /// in flight — the packet is coherent at that point.
  void RefreshBatchRow(BatchResult& batch, std::size_t pos,
                       const Transit& t) const;

  /// Writes row `pos`'s column-resident state (top-of-stack TTL/label,
  /// elapsed time, hop count) back into its arena packet, restoring full
  /// packet coherence before a generic step runs Send's hop loop on it.
  void WriteBackBatchRow(BatchResult& batch, std::size_t pos) const;

  const topo::Topology* topology_;
  const mpls::MplsConfigMap* configs_;
  const std::vector<routing::Fib>* fibs_;
  const mpls::LdpTables* ldp_;
  const mpls::TeDatabase* te_;  ///< may be null
  const mpls::SrDatabase* sr_;  ///< may be null
  EngineOptions options_;
  /// Indexed by RouterId; built once in the constructor.
  std::vector<RouterCache> router_cache_;
  /// See convergence_epoch(). Written only inside the exclusive
  /// convergence phase (RefreshRouters), read freely outside it.
  std::uint64_t convergence_epoch_ = 1;

  // Cache-line-sized stat shards, one per thread slot (threads beyond the
  // shard count share slots, hence the relaxed atomics). stats() merges on
  // read. Concurrency contract: every field is an atomic touched only via
  // fetch_add (CommitStats) and load (stats), so the aggregate needs no
  // GUARDED_BY — there is no capability here, and thread-safety analysis
  // verifies atomics structurally. The semantic lint's const-mutation rule
  // recognizes this shape as its "atomic aggregate" exemption.
  static constexpr std::size_t kStatShards = 32;
  struct alignas(64) StatShard {
    std::atomic<std::uint64_t> packets_injected{0};
    std::atomic<std::uint64_t> hops_processed{0};
    std::atomic<std::uint64_t> icmp_generated{0};
    std::atomic<std::uint64_t> labels_pushed{0};
    std::atomic<std::uint64_t> labels_popped{0};
  };
  mutable std::array<StatShard, kStatShards> stat_shards_;
};

}  // namespace wormhole::sim
