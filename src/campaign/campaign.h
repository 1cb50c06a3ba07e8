// The full measurement campaign (paper Sec. 4): plain discovery traces →
// inferred dataset → HDN detection → targeted probing around HDNs →
// candidate Ingress/Egress extraction → revelation (DPR/BRPR) →
// fingerprinting + FRPLA + RTLA analyses.
#pragma once

#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "campaign/compact_trace.h"
#include "campaign/dataset.h"
#include "campaign/targets.h"
#include "campaign/trace_cache.h"
#include "exec/thread_pool.h"
#include "fingerprint/signature.h"
#include "netbase/stats.h"
#include "probe/prober.h"
#include "reveal/frpla.h"
#include "reveal/revelator.h"
#include "reveal/rtla.h"
#include "reveal/uhp_trigger.h"
#include "sim/engine.h"

namespace wormhole::campaign {

struct EndpointPair {
  netbase::Ipv4Address ingress;
  netbase::Ipv4Address egress;
  friend auto operator<=>(const EndpointPair&, const EndpointPair&) = default;
};

struct CampaignOptions {
  /// Degree threshold tagging High Degree Nodes (the paper uses 128 at
  /// Internet scale; scaled to our synthetic size).
  std::size_t hdn_threshold = 8;
  /// Probing options; the paper's scamper starts at TTL 2.
  probe::TraceOptions trace_options{.first_ttl = 2};
  /// Drive every trace (discovery, targeted and revelation) through the
  /// batched SendBatch stepper. Results are byte-identical to sequential
  /// stepping; this only trades memory locality for throughput. Overrides
  /// `trace_options.batched` at construction.
  bool batched_stepping = true;
  /// Require both candidate endpoints to be HDN nodes (paper Sec. 4); relax
  /// for small topologies.
  bool require_hdn_endpoints = true;
  /// Ping every new address for the echo-reply half of its signature.
  bool fingerprint = true;
  /// Split phase-one targets across VPs (the paper's five teams probed
  /// disjoint destination shards). Default off: every VP probes every
  /// HDN-area target, which maximises the number of (ingress, egress)
  /// views per suspicious AS — the discovery phase stays sharded either
  /// way.
  bool shard_targets = false;
  /// Worker threads probing vantage-point shards concurrently; 0 means
  /// hardware concurrency. The result is bit-identical for every value
  /// (see "Concurrency model" in docs/semantics.md).
  std::size_t jobs = 0;
  /// Streaming mode (docs/scaling.md). When > 0, every vantage point
  /// traces its targets in consecutive shards of this many targets; as a
  /// shard retires, its traces are compacted into a packed per-VP log
  /// (CompactTraceLog, ~8 B/hop) and the full TraceResults are freed —
  /// peak memory is bounded by shard size instead of target count. The
  /// sequential reduce then replays the logs in the same
  /// (vp, target-index) order buffered mode uses, so every stat,
  /// candidate, revelation and report byte is identical at any shard
  /// size and any jobs count. The only difference: CampaignResult::traces
  /// stays empty (that buffer is exactly the memory this mode exists to
  /// not spend); use CampaignResult::trace_count for accounting.
  /// 0 = buffered mode: retain every targeted TraceResult.
  std::size_t stream_shard_size = 0;
};

/// Everything the campaign measured. Figures/tables are derived from this.
struct CandidateRecord {
  EndpointPair pair;
  topo::AsNumber asn = 0;  ///< AS of the suspected tunnel
  int egress_forward_ttl = 0;   ///< probe TTL the egress answered at
  int egress_return_ttl = 0;    ///< raw time-exceeded reply TTL
  std::optional<int> egress_echo_ttl;  ///< raw echo-reply TTL (ping)
  bool revealed = false;
  int revealed_count = 0;
};

struct CampaignResult {
  /// Phase-one traces (the targeted ones used for analysis). Empty in
  /// streaming mode — see CampaignOptions::stream_shard_size.
  std::vector<probe::TraceResult> traces;
  /// Number of targeted traces (== traces.size() in buffered mode; the
  /// only trace statistic streaming mode retains).
  std::uint64_t trace_count = 0;
  /// Dataset inferred from ALL traces (discovery + targeted).
  topo::ItdkDataset inferred;
  TargetSets targets;
  std::map<EndpointPair, reveal::RevelationResult> revelations;
  std::vector<CandidateRecord> candidates;
  fingerprint::SignatureCollector signatures;
  reveal::FrplaAnalysis frpla;
  reveal::RtlaAnalysis rtla;
  /// Trace path lengths before (tunnels hidden) / after (revealed hops
  /// added back) — Fig. 11.
  netbase::IntDistribution path_length_invisible;
  netbase::IntDistribution path_length_visible;
  /// Duplicate-hop (UHP) suspicions per AS of the suspected ingress — the
  /// only signal a totally invisible cloud leaves behind.
  std::map<topo::AsNumber, std::size_t> uhp_suspicions;
  std::uint64_t probes_sent = 0;
  std::uint64_t revelation_traces = 0;
  /// Delta-run accounting (RunDelta only; zero otherwise): (vp, target)
  /// pairs considered across both probing phases, and how many of them
  /// were actually re-probed live (the rest were served from the cache).
  /// Not part of the report — the report stays byte-identical to a cold
  /// run by construction.
  std::uint64_t delta_pairs_total = 0;
  std::uint64_t delta_pairs_reprobed = 0;

  /// Successful revelations only.
  [[nodiscard]] std::size_t revealed_count() const;
  /// Forward-tunnel-length distribution per method (Fig. 5). Length is the
  /// hop count to the egress: revealed LSRs + 1.
  [[nodiscard]] netbase::IntDistribution TunnelLengths(
      reveal::RevelationMethod method) const;
  [[nodiscard]] netbase::IntDistribution AllTunnelLengths() const;
};

/// Runs the measurement pipeline, spreading the probing load over a
/// per-VP worker pool (options.jobs threads). Parallelism never changes
/// the result: probing is sharded per vantage point (each prober is
/// driven by exactly one task, so its probe-id sequence is fixed), and
/// everything order-dependent — dataset mutation, candidate analysis,
/// revelation dedup — happens in a sequential post-merge pass over the
/// traces in (vp, target-index) order.
class Campaign {
 public:
  /// One prober per vantage point is created on `engine`.
  Campaign(const sim::Engine& engine, std::vector<netbase::Ipv4Address> vps,
           CampaignOptions options = {});

  /// Runs the whole pipeline. `discovery_targets` seeds the plain campaign
  /// that builds the inferred dataset (typically every router loopback).
  CampaignResult Run(const std::vector<netbase::Ipv4Address>&
                         discovery_targets);

  /// Phase-zero only: the plain campaign + inferred dataset (Fig. 1).
  std::vector<probe::TraceResult> RunDiscovery(
      const std::vector<netbase::Ipv4Address>& targets);

  /// Cache-backed streaming run (docs/incremental.md). Byte-identical to
  /// a cold Run at any jobs/shard combination: every (vp, target) trace
  /// whose cache entry carries the current convergence epoch is spliced
  /// from the cache (with its probe-id consumption replayed), everything
  /// else — cache misses, fingerprint pings, revelations — runs live.
  /// The probers are reset first, so each RunDelta is id-for-id the
  /// campaign a fresh Campaign object would run. Typical cycle: cold
  /// RunDelta fills `cache`; after topology.SetLinkUp +
  /// Network::OnLinkStateChange, Invalidate the cache with the returned
  /// delta; RunDelta again re-probes only the dirty pairs.
  CampaignResult RunDelta(
      const std::vector<netbase::Ipv4Address>& discovery_targets,
      TraceCache& cache);

  /// The worker count actually in use (resolves jobs == 0).
  [[nodiscard]] std::size_t jobs() const { return pool_.size(); }

 private:
  /// Traceroutes every shard concurrently (shard i drives probers_[i]);
  /// returns the traces per VP, each inner vector in shard order.
  std::vector<std::vector<probe::TraceResult>> TraceShards(
      const std::vector<std::vector<netbase::Ipv4Address>>& shards);

  /// Streaming twin of TraceShards: each VP walks its target list in
  /// fixed-size shards (options_.stream_shard_size), compacting every
  /// retired shard into its packed log and freeing the full traces. The
  /// probe streams are identical to TraceShards', so the compact logs
  /// hold byte-identical observations.
  std::vector<CompactTraceLog> TraceShardsStreaming(
      const std::vector<std::vector<netbase::Ipv4Address>>& shards);

  /// Delta twin of TraceShardsStreaming: per (vp, target) either splices
  /// the cached packed trace (replaying its probe-id budget) or traces
  /// live and records the result. Target order — and therefore each
  /// prober's probe-id stream — is identical to TraceShardsStreaming's.
  /// `served` / `total` accumulate per-VP hit accounting.
  std::vector<CompactTraceLog> TraceShardsDelta(
      TraceCache::Phase phase,
      const std::vector<std::vector<netbase::Ipv4Address>>& shards,
      TraceCache& cache, std::uint64_t epoch, bool strict_offsets,
      std::vector<std::uint64_t>& served, std::vector<std::uint64_t>& total);

  /// The streaming (bounded-memory) twin of Run; same output bytes.
  CampaignResult RunStreaming(
      const std::vector<netbase::Ipv4Address>& discovery_targets);

  /// Shared body of RunStreaming (cache == nullptr) and RunDelta.
  CampaignResult StreamingCampaign(
      const std::vector<netbase::Ipv4Address>& discovery_targets,
      TraceCache* cache);

  /// Restarts every prober so probe ids restart at 1 — the precondition
  /// for a RunDelta to be id-for-id a cold campaign. Buffers and reply
  /// memos are kept (Prober::Restart).
  void ResetProbers();

  /// Returns the candidate endpoint pair extracted from the trace, if any.
  /// `vp` is the prober's vantage-point index (CachedPing slot key).
  std::optional<EndpointPair> AnalyzeTrace(
      const probe::TraceResult& trace, CampaignResult& result, std::size_t vp,
      probe::Prober& prober,
      const std::unordered_set<topo::NodeId>& hdn_set);

  /// Reduce-time echo ping (fingerprint echo half, candidate egress
  /// probe). Outside a delta run this is exactly prober.Ping; inside one
  /// it consults the cache's per-VP ping table first, replaying the
  /// probe-id budget of a hit so the prober's id stream stays id-for-id
  /// the cold run's (docs/incremental.md).
  probe::PingResult CachedPing(std::size_t vp, probe::Prober& prober,
                               netbase::Ipv4Address address);

  /// The ingress/egress address sets of the revelation map — the FRPLA
  /// responder-role classifier's inputs, computed once after the reduce.
  struct FrplaSets {
    std::unordered_set<netbase::Ipv4Address> ingresses;
    std::unordered_set<netbase::Ipv4Address> egresses;
  };
  static FrplaSets FrplaSetsOf(const CampaignResult& result);
  /// Adds one trace's hop-level RFA samples (both Run flavours call this
  /// over the traces in the same (vp, target-index) order).
  static void FrplaFromTrace(const probe::TraceResult& trace,
                             const FrplaSets& sets, CampaignResult& result);
  void ClassifyFrpla(CampaignResult& result) const;
  static void RfaSampleFromCandidate(const CandidateRecord& record,
                                     CampaignResult& result);

  const sim::Engine* engine_;
  std::vector<probe::Prober> probers_;
  CampaignOptions options_;
  exec::ThreadPool pool_;
  /// Non-null only while StreamingCampaign runs with a cache: routes
  /// CachedPing through it. The reduce is sequential, so the ping table
  /// never sees concurrent access.
  TraceCache* delta_cache_ = nullptr;
  std::uint64_t delta_epoch_ = 0;
  bool delta_strict_ = false;
};

}  // namespace wormhole::campaign
