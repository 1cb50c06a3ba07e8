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
#include <limits>
#include <optional>
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

class Footprint;
class ForwardCursor;
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

  /// Rebuilds the hot-path caches and the routes home of just `routers`
  /// after an incremental reconvergence re-installed their routes/labels
  /// (the FIB vector and LDP tables keep their addresses; only derived
  /// state is re-resolved). Bumps the convergence epoch.
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
  /// the current epoch is replayed instead of walked (sim/reply_memo.h).
  /// With a `cursor`, a probe that continues the cursor's trace resumes
  /// where the trace's previous probe stopped instead of walking from the
  /// gateway (sim/forward_cursor.h). Either way the outcome, RTT bits and
  /// stats are exactly what the walk gives. Without them, every hop is
  /// walked: the reference path.
  ///
  /// With a `footprint`, the AS of every router at which the probe's or
  /// the reply's walk processes a hop is added to it, replayed and
  /// resumed stretches included (sim/footprint.h): the same ASes at any
  /// memo and cursor state.
  ///
  /// Thread-safe: Send is logically const — routing/LDP/topology state is
  /// shared read-only, and the stats counters are sharded per thread — so
  /// any number of probers may inject packets concurrently, each with its
  /// own memo, cursor and footprint.
  Outcome Send(netbase::Packet probe, ReplyMemo* memo = nullptr,
               ForwardCursor* cursor = nullptr,
               Footprint* footprint = nullptr) const;

  /// Totals merged across the per-thread stat shards.
  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }

  /// The route `router` forwards a reply to `topology().hosts()[host]`
  /// by: always `fibs[router].Lookup` of that host's address, resolved
  /// when the engine is built and again for every router passed to
  /// RefreshRouters. Read-only; for tests that pin the table.
  [[nodiscard]] const routing::FibEntry* RouteHome(topo::RouterId router,
                                                   std::size_t host) const;

 private:
  /// Index of no host in `topology().hosts()`.
  static constexpr std::uint32_t kNoHost = static_cast<std::uint32_t>(-1);

  struct Transit {
    /// The in-flight packet, held by pointer so the packet bytes never
    /// move while the hop loop runs.
    netbase::Packet* packet = nullptr;
    topo::RouterId router = topo::kNoRouter;
    topo::InterfaceId in_interface = topo::kNoInterface;
    /// The link the packet last crossed (set by Forward).
    topo::LinkId link = topo::kNoLink;
    /// Send's footprint (may be null): ProcessAt adds each hop's AS.
    Footprint* footprint = nullptr;
    /// Index of the host every reply of this Send is addressed to: the
    /// probe's origin. kNoHost when Send was handed a reply, whose
    /// destination it does not know in advance, or when the origin was
    /// attached after this engine was built.
    std::uint32_t home = kNoHost;
    /// Set while the packet sits at the router that just originated it;
    /// suppresses the IP decrement for that first hop.
    bool locally_originated = false;
    /// One-shot decrement suppression after a UHP pop at the same router.
    bool skip_ip_decrement = false;
    /// TTL provenance for the forward cursor: bit 0 is set while the
    /// IP-TTL follows the probe's TTL, LabelBit(i) while labels[i]'s TTL
    /// does; every other TTL field is constant in it. The walk stays the
    /// same, shifted, for a probe TTL up to `slack` above this one; past
    /// that, a min rule it applied would pick the other side.
    std::uint64_t follows = 0;
    int slack = std::numeric_limits<int>::max();

    /// The provenance bit of label index `index` (in-flight order); 0
    /// past what the mask can name.
    static std::uint64_t LabelBit(std::size_t index) {
      return index < 63 ? std::uint64_t{2} << index : 0;
    }
    [[nodiscard]] bool IpFollows() const { return (follows & 1) != 0; }
    /// Records a push at stack index `index`.
    void Pushed(std::size_t index, bool follows_ttl);
    /// Records the RFC 3443 min rule writing min(kept, popped) into the
    /// field with provenance bit `bit`.
    void MinRule(std::uint64_t bit, int kept, int popped,
                 bool popped_follows);
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

  /// One link as Forward reads it: its delay and both ends, so a hop
  /// costs one load instead of the Link and two Interface records. Link
  /// ends and delays never change once an engine exists (a topology that
  /// grows gets a new engine; see docs/semantics.md, "Fast path").
  struct Adjacency {
    double delay_ms = 0.0;
    topo::InterfaceId a = topo::kNoInterface;
    topo::InterfaceId b = topo::kNoInterface;
    topo::RouterId router_a = topo::kNoRouter;
  };

  /// Builds one router's hot-path cache (everything except `hosts`, which
  /// the caller attaches from the topology's host list).
  [[nodiscard]] RouterCache BuildRouterCache(topo::RouterId r) const;

  /// Resolves router `r`'s row of the routes-home table.
  void ResolveRoutesHome(topo::RouterId r);

  /// Resolves `label` at `router`, consulting RSVP-TE then LDP tables.
  [[nodiscard]] std::optional<LabelOp> ResolveLabel(
      topo::RouterId router, std::uint32_t label,
      const netbase::Packet& packet) const;

  // The per-packet walk accumulates counters into a caller-local
  // EngineStats (no shared mutation on the hot path); Send flushes it
  // into this thread's shard once per injected packet.
  void CommitStats(const EngineStats& stats) const;

  /// Steps the fresh probe in `t` until it ends or turns into a reply,
  /// resuming at `cursor`'s saved step (and adding the skipped steps' ASes
  /// to `t.footprint`) when the probe continues its trace, and saving the
  /// transit before every step it takes.
  StepResult WalkForward(Transit& t, EngineStats& stats,
                         ForwardCursor& cursor) const;

  /// Runs the reply in `t` to its end — delivery or loss — and checks the
  /// delivery against `origin`. With a `memo` it replays a recorded walk
  /// (and its ASes into `t.footprint`) when the key matches and the hop
  /// budget allows, else walks and records.
  Outcome DrainReply(Transit& t, netbase::Ipv4Address origin,
                     EngineStats& stats, ReplyMemo* memo) const;

  /// One iteration of the hop loop: the max_hops guard, then one hop at
  /// `t.router`, whose AS goes into `t.footprint`.
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
                   const routing::NextHop& hop, Transit& t,
                   EngineStats& stats) const;

  [[nodiscard]] bool IsLocalAddress(topo::RouterId router,
                                    netbase::Ipv4Address address) const;

  const topo::Topology* topology_;
  const mpls::MplsConfigMap* configs_;
  const std::vector<routing::Fib>* fibs_;
  const mpls::LdpTables* ldp_;
  const mpls::TeDatabase* te_;  ///< may be null
  const mpls::SrDatabase* sr_;  ///< may be null
  EngineOptions options_;
  /// Indexed by RouterId; built once in the constructor.
  std::vector<RouterCache> router_cache_;
  /// Indexed by LinkId; built once in the constructor.
  std::vector<Adjacency> adjacency_;
  /// Each router's AS, indexed by RouterId: what footprints record, kept
  /// apart from router_cache_ so the hop loop's reads stay dense.
  std::vector<topo::AsNumber> router_as_;
  /// Routes home, router-major: entry [r * host_count_ + h] is
  /// fibs[r].Lookup(hosts[h].address). Replies index it instead of
  /// running a longest-prefix match (every reply heads to its probe's
  /// origin host). Kept fresh under the same contract as router_cache_.
  std::vector<const routing::FibEntry*> host_routes_;
  /// Hosts the table covers: the topology's hosts at construction.
  std::size_t host_count_ = 0;
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
