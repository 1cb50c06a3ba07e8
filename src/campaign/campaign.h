// The full measurement campaign (paper Sec. 4): plain discovery traces →
// inferred dataset → HDN detection → targeted probing around HDNs →
// candidate Ingress/Egress extraction → revelation (DPR/BRPR) →
// fingerprinting + FRPLA + RTLA analyses.
#pragma once

#include <map>
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
  /// Ignored: every trace steps through Engine::Send with its prober's
  /// forward cursor. Kept only because the repository benchmark
  /// (perfbench/perfbench.cpp) still reads it; it goes with the next
  /// change to that benchmark, together with TraceOptions::batched.
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
  /// Only zero versus non-zero matters; the magnitude is ignored. Zero
  /// (buffered mode) keeps every targeted trace in full in
  /// CampaignResult::traces; non-zero (streaming mode, docs/scaling.md)
  /// keeps none. Either way each vantage point traces one target at a
  /// time and packs it into its CompactTraceLog (~8 B/hop), and the
  /// sequential reduce reads those logs in (vp, target-index) order, so
  /// every stat, candidate, revelation and report byte is identical in
  /// both modes at any jobs count. Streaming mode only saves the memory
  /// of the full traces; use CampaignResult::trace_count for accounting.
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
  /// Phase-one traces (the targeted ones used for analysis), label
  /// stacks and RTTs included. Filled only by Run in buffered mode; empty
  /// in streaming mode and after RunDelta — see
  /// CampaignOptions::stream_shard_size.
  std::vector<probe::TraceResult> traces;
  /// Number of targeted traces (== traces.size() whenever traces is
  /// filled; the only trace statistic the other runs retain).
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
/// traces in (vp, target-index) order. Every run restarts the probers
/// first, so it is id-for-id the run a fresh Campaign object would make.
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

  /// Cache-backed run (docs/incremental.md). Byte-identical to a cold
  /// Run at any jobs/shard combination: every (vp, target) trace whose
  /// cache entry carries the current convergence epoch is spliced from
  /// the cache (with its probe-id consumption replayed), everything
  /// else — cache misses, fingerprint pings, revelations — runs live.
  /// Typical cycle: cold RunDelta fills `cache`; after
  /// topology.SetLinkUp + Network::OnLinkStateChange, Invalidate the
  /// cache with the returned delta; RunDelta again re-probes only the
  /// dirty pairs.
  CampaignResult RunDelta(
      const std::vector<netbase::Ipv4Address>& discovery_targets,
      TraceCache& cache);

  /// The worker count actually in use (resolves jobs == 0).
  [[nodiscard]] std::size_t jobs() const { return pool_.size(); }

 private:
  /// Per-run state, made by StartRun.
  struct RunContext {
    /// The delta run's cache; null on a cold run.
    TraceCache* cache = nullptr;
    /// The convergence epoch the run probes at.
    std::uint64_t epoch = 0;
    /// Cache hits must sit at the probe-id offset they were recorded at.
    bool strict_offsets = false;
    /// Per VP over both probing phases: the targets the cache served.
    std::vector<std::uint64_t> hits;
  };

  /// Restarts every prober (Prober::Restart), binds `cache` when there
  /// is one and returns the run's context.
  RunContext StartRun(TraceCache* cache);

  /// The one probing loop: per VP and target in order, splice a current
  /// cache entry or trace live, and append the trace to the VP's log. A
  /// `keep` sink (cold runs only) gets a full copy of each live trace.
  std::vector<CompactTraceLog> Probe(
      TraceCache::Phase phase,
      const std::vector<std::vector<netbase::Ipv4Address>>& shards,
      RunContext& ctx, std::vector<std::vector<probe::TraceResult>>* keep);

  /// The whole pipeline: discovery, target selection, targeted probing
  /// and one reduce over the logs. Run passes no cache, RunDelta one.
  CampaignResult Execute(
      const std::vector<netbase::Ipv4Address>& discovery_targets,
      TraceCache* cache);

  /// Returns the candidate endpoint pair extracted from the trace, if any.
  /// `vp` is the prober's vantage-point index.
  std::optional<EndpointPair> AnalyzeTrace(
      const probe::TraceResult& trace, CampaignResult& result, std::size_t vp,
      const RunContext& ctx, const std::unordered_set<topo::NodeId>& hdn_set);

  /// Reduce-time echo ping (fingerprint echo half, candidate egress
  /// probe) from vantage point `vp`. On a cold run this is exactly
  /// Prober::Ping; on a delta run it consults the cache's per-VP ping
  /// table first, replaying the probe-id budget of a hit so the prober's
  /// id stream stays id-for-id the cold run's (docs/incremental.md).
  probe::PingResult Ping(std::size_t vp, netbase::Ipv4Address address,
                         const RunContext& ctx);

  const sim::Engine* engine_;
  std::vector<probe::Prober> probers_;
  CampaignOptions options_;
  exec::ThreadPool pool_;
};

}  // namespace wormhole::campaign
