#include "campaign/campaign.h"

#include <algorithm>
#include <stdexcept>
#include <set>

#include "netbase/contracts.h"

namespace wormhole::campaign {

using netbase::PacketKind;

std::size_t CampaignResult::revealed_count() const {
  std::size_t count = 0;
  for (const auto& [pair, revelation] : revelations) {
    if (revelation.succeeded()) ++count;
  }
  return count;
}

netbase::IntDistribution CampaignResult::TunnelLengths(
    reveal::RevelationMethod method) const {
  netbase::IntDistribution d;
  for (const auto& [pair, revelation] : revelations) {
    if (revelation.method == method) d.Add(revelation.tunnel_length());
  }
  return d;
}

netbase::IntDistribution CampaignResult::AllTunnelLengths() const {
  netbase::IntDistribution d;
  for (const auto& [pair, revelation] : revelations) {
    if (revelation.succeeded()) d.Add(revelation.tunnel_length());
  }
  return d;
}

Campaign::Campaign(const sim::Engine& engine,
                   std::vector<netbase::Ipv4Address> vps,
                   CampaignOptions options)
    : engine_(&engine),
      options_(options),
      pool_(options.jobs != 0 ? options.jobs : exec::HardwareConcurrency()) {
  probers_.reserve(vps.size());
  for (const netbase::Ipv4Address vp : vps) {
    probers_.emplace_back(engine, vp);
  }
  if (probers_.empty()) {
    throw std::invalid_argument("Campaign: no vantage points");
  }
}

std::vector<std::vector<probe::TraceResult>> Campaign::TraceShards(
    const std::vector<std::vector<netbase::Ipv4Address>>& shards) {
  // One task per vantage point: probers_[vp] is touched by that task only,
  // and it walks its shard in order, so the probe-id stream of every
  // prober — and with it every simulated reply — is independent of the
  // worker count and of scheduling.
  std::vector<std::vector<probe::TraceResult>> per_vp(probers_.size());
  exec::ParallelFor(pool_, probers_.size(), [&](std::size_t vp) {
    per_vp[vp].reserve(shards[vp].size());
    for (const netbase::Ipv4Address target : shards[vp]) {
      per_vp[vp].push_back(
          probers_[vp].Traceroute(target, options_.trace_options));
    }
  });
  return per_vp;
}

std::vector<probe::TraceResult> Campaign::RunDiscovery(
    const std::vector<netbase::Ipv4Address>& targets) {
  const auto shards = ShardTargets(targets, probers_.size());
  auto per_vp = TraceShards(shards);

  std::vector<probe::TraceResult> traces;
  traces.reserve(targets.size());
  for (auto& vp_traces : per_vp) {
    for (auto& trace : vp_traces) traces.push_back(std::move(trace));
  }
  return traces;
}

CampaignResult Campaign::Run(
    const std::vector<netbase::Ipv4Address>& discovery_targets) {
  if (options_.stream_shard_size > 0) return RunStreaming(discovery_targets);
  CampaignResult result;
  const topo::Topology& topology = engine_->topology();
  const AliasResolver resolver = TruthResolver(topology);

  // Phase 0: plain discovery campaign; infer the (biased) dataset.
  const auto discovery = RunDiscovery(discovery_targets);
  result.inferred = BuildDataset(discovery, resolver, topology);

  // Phase 1: HDN-guided probing.
  result.targets = SelectTargets(result.inferred, options_.hdn_threshold);
  const std::unordered_set<topo::NodeId> hdn_set(
      result.targets.hdns.begin(), result.targets.hdns.end());
  auto shards = options_.shard_targets
                    ? ShardTargets(result.targets.all, probers_.size())
                    : std::vector<std::vector<netbase::Ipv4Address>>(
                          probers_.size(), result.targets.all);

  // Probing (the traceroutes do not read the evolving dataset) runs
  // concurrently across VP shards; the order-dependent part — dataset
  // mutation, candidate analysis, revelation dedup — is a sequential
  // reduce over the merged traces in (vp, target-index) order, exactly
  // the order the sequential implementation used.
  auto per_vp = TraceShards(shards);
  std::size_t total_traces = 0;
  for (const auto& vp_traces : per_vp) total_traces += vp_traces.size();

  std::vector<std::optional<EndpointPair>> trace_pair;
  trace_pair.reserve(total_traces);
  result.traces.reserve(total_traces);
  for (std::size_t vp = 0; vp < probers_.size(); ++vp) {
    for (probe::TraceResult& trace : per_vp[vp]) {
      AddTraceToDataset(result.inferred, trace, resolver, topology);
      trace_pair.push_back(
          AnalyzeTrace(trace, result, vp, probers_[vp], hdn_set));
      result.traces.push_back(std::move(trace));
    }
  }
  result.trace_count = result.traces.size();

  ClassifyFrpla(result);

  // Fig. 11 material: observed vs revelation-corrected path lengths, over
  // the traces that crossed a suspected tunnel (the paper's campaign is
  // exactly that population — transit paths through suspicious ASes).
  for (std::size_t i = 0; i < result.traces.size(); ++i) {
    if (!trace_pair[i]) continue;
    const int observed = result.traces[i].LastRespondingTtl();
    if (observed == 0) continue;
    result.path_length_invisible.Add(observed);
    int corrected = observed;
    const auto it = result.revelations.find(*trace_pair[i]);
    if (it != result.revelations.end() && it->second.succeeded()) {
      corrected += static_cast<int>(it->second.revealed.size());
    }
    result.path_length_visible.Add(corrected);
  }

  for (const probe::Prober& prober : probers_) {
    result.probes_sent += prober.probes_sent();
  }
  return result;
}

std::vector<CompactTraceLog> Campaign::TraceShardsStreaming(
    const std::vector<std::vector<netbase::Ipv4Address>>& shards) {
  // Same single-task-per-prober discipline as TraceShards — each VP's
  // probe-id stream depends only on its own target order, so carving the
  // walk into fixed-size shards changes when memory is freed and nothing
  // else. `scratch` holds one shard of full traces; once the shard is
  // compacted its traces are overwritten in place by the next shard (hop
  // storage included), so the per-VP high-water mark is
  // stream_shard_size traces instead of the whole target list.
  // A probing pass must never span a reconvergence: reconvergence is the
  // engine's exclusive write phase, and a mid-shard epoch bump would mean
  // traces of two routing states under one epoch stamp.
  const std::uint64_t epoch = engine_->convergence_epoch();
  std::vector<CompactTraceLog> logs(probers_.size());
  exec::ParallelFor(pool_, probers_.size(), [&](std::size_t vp) {
    std::vector<probe::TraceResult> scratch;
    for (const auto shard : FixedShards(shards[vp],
                                        options_.stream_shard_size)) {
      WORMHOLE_ASSERT(engine_->convergence_epoch() == epoch,
                      "reconvergence during a probing shard");
      if (scratch.size() < shard.size()) scratch.resize(shard.size());
      for (std::size_t k = 0; k < shard.size(); ++k) {
        probers_[vp].Traceroute(shard[k], options_.trace_options,
                                scratch[k]);
      }
      for (std::size_t k = 0; k < shard.size(); ++k) {
        logs[vp].Append(scratch[k]);
      }
    }
  });
  return logs;
}

CampaignResult Campaign::RunStreaming(
    const std::vector<netbase::Ipv4Address>& discovery_targets) {
  return StreamingCampaign(discovery_targets, nullptr);
}

CampaignResult Campaign::RunDelta(
    const std::vector<netbase::Ipv4Address>& discovery_targets,
    TraceCache& cache) {
  ResetProbers();
  return StreamingCampaign(discovery_targets, &cache);
}

void Campaign::ResetProbers() {
  for (probe::Prober& prober : probers_) prober.Restart();
}

std::vector<CompactTraceLog> Campaign::TraceShardsDelta(
    TraceCache::Phase phase,
    const std::vector<std::vector<netbase::Ipv4Address>>& shards,
    TraceCache& cache, std::uint64_t epoch, bool strict_offsets,
    std::vector<std::uint64_t>& served, std::vector<std::uint64_t>& total) {
  // One task per VP, targets walked in the same order as
  // TraceShardsStreaming, so the live probes land on exactly the ids the
  // cold run gave them (cache hits replay their id budget via
  // SkipProbes). Each task reads and writes only its own (phase, vp)
  // cache slot — see the TraceCache thread-safety contract.
  std::vector<CompactTraceLog> logs(probers_.size());
  exec::ParallelFor(pool_, probers_.size(), [&](std::size_t vp) {
    probe::Prober& prober = probers_[vp];
    probe::TraceResult trace;
    for (const auto shard : FixedShards(shards[vp],
                                        options_.stream_shard_size)) {
      WORMHOLE_ASSERT(engine_->convergence_epoch() == epoch,
                      "reconvergence during a probing shard");
      for (const netbase::Ipv4Address target : shard) {
        ++total[vp];
        const TraceCache::Lookup cached =
            cache.Find(phase, vp, target, epoch, prober.probes_sent(),
                       strict_offsets);
        if (cached.hit) {
          logs[vp].AppendFrom(cache.LogOf(phase, vp), cached.trace_index);
          prober.SkipProbes(cached.probes_used);
          ++served[vp];
          continue;
        }
        const std::uint64_t before = prober.probes_sent();
        prober.Traceroute(target, options_.trace_options, trace);
        cache.Record(phase, vp, trace, epoch, before,
                     prober.probes_sent() - before);
        logs[vp].Append(trace);
      }
    }
  });
  return logs;
}

CampaignResult Campaign::StreamingCampaign(
    const std::vector<netbase::Ipv4Address>& discovery_targets,
    TraceCache* cache) {
  CampaignResult result;
  const topo::Topology& topology = engine_->topology();
  const AliasResolver resolver = TruthResolver(topology);

  const std::uint64_t epoch = engine_->convergence_epoch();
  // On a lossy world the reply bytes depend on probe ids, so a cached
  // trace may only be served at the exact id offset it was recorded at;
  // loss-free worlds can serve at any offset (docs/incremental.md).
  const bool strict_offsets =
      cache != nullptr && engine_->RepliesDependOnProbeIds();
  if (cache != nullptr) cache->Begin(topology, probers_.size(), epoch);
  // Route the reduce's echo pings (fingerprint echo halves, candidate
  // egress probes) through the cache's ping table for the rest of this
  // run; revelation probing always runs live.
  delta_cache_ = cache;
  delta_epoch_ = epoch;
  delta_strict_ = strict_offsets;
  std::vector<std::uint64_t> served(probers_.size(), 0);
  std::vector<std::uint64_t> total(probers_.size(), 0);

  // Phase 0: streamed discovery. The buffered path flattens the per-VP
  // trace vectors vp-major before BuildDataset; replaying the compact
  // logs in the same vp-major order feeds AddTraceToDataset the exact
  // same hop sequence. The logs die with the scope.
  {
    const auto discovery_shards =
        ShardTargets(discovery_targets, probers_.size());
    const auto logs =
        cache != nullptr
            ? TraceShardsDelta(TraceCache::Phase::kDiscovery,
                               discovery_shards, *cache, epoch,
                               strict_offsets, served, total)
            : TraceShardsStreaming(discovery_shards);
    probe::TraceResult scratch;
    for (const CompactTraceLog& log : logs) {
      for (std::size_t i = 0; i < log.size(); ++i) {
        log.InflateInto(i, scratch);
        AddTraceToDataset(result.inferred, scratch, resolver, topology);
      }
    }
  }

  // Phase 1: HDN-guided probing, shard-compacted the same way.
  result.targets = SelectTargets(result.inferred, options_.hdn_threshold);
  const std::unordered_set<topo::NodeId> hdn_set(
      result.targets.hdns.begin(), result.targets.hdns.end());
  const auto shards = options_.shard_targets
                          ? ShardTargets(result.targets.all, probers_.size())
                          : std::vector<std::vector<netbase::Ipv4Address>>(
                                probers_.size(), result.targets.all);
  const auto logs =
      cache != nullptr
          ? TraceShardsDelta(TraceCache::Phase::kTargeted, shards, *cache,
                             epoch, strict_offsets, served, total)
          : TraceShardsStreaming(shards);

  // Sequential reduce in (vp, target-index) order, inflating one trace
  // at a time. All probing above is already done, so the analysis probes
  // AnalyzeTrace issues (fingerprint pings, revelation traces) extend
  // each prober's id stream in exactly the positions the buffered reduce
  // would — every simulated reply, and therefore every byte of the
  // result, matches buffered mode.
  std::size_t total_traces = 0;
  for (const CompactTraceLog& log : logs) total_traces += log.size();
  std::vector<std::optional<EndpointPair>> trace_pair;
  trace_pair.reserve(total_traces);
  std::vector<int> observed_ttls;
  observed_ttls.reserve(total_traces);
  probe::TraceResult scratch;
  for (std::size_t vp = 0; vp < probers_.size(); ++vp) {
    for (std::size_t i = 0; i < logs[vp].size(); ++i) {
      logs[vp].InflateInto(i, scratch);
      AddTraceToDataset(result.inferred, scratch, resolver, topology);
      trace_pair.push_back(
          AnalyzeTrace(scratch, result, vp, probers_[vp], hdn_set));
      observed_ttls.push_back(scratch.LastRespondingTtl());
    }
  }
  result.trace_count = total_traces;

  // FRPLA needs the full revelation map, so it is a second pass over the
  // compact logs — same trace order as the buffered pass over
  // result.traces.
  const FrplaSets sets = FrplaSetsOf(result);
  for (const CandidateRecord& record : result.candidates) {
    RfaSampleFromCandidate(record, result);
  }
  for (const CompactTraceLog& log : logs) {
    for (std::size_t i = 0; i < log.size(); ++i) {
      log.InflateInto(i, scratch);
      FrplaFromTrace(scratch, sets, result);
    }
  }

  // Fig. 11 material from the per-trace notes taken during the reduce.
  for (std::size_t i = 0; i < total_traces; ++i) {
    if (!trace_pair[i]) continue;
    const int observed = observed_ttls[i];
    if (observed == 0) continue;
    result.path_length_invisible.Add(observed);
    int corrected = observed;
    const auto it = result.revelations.find(*trace_pair[i]);
    if (it != result.revelations.end() && it->second.succeeded()) {
      corrected += static_cast<int>(it->second.revealed.size());
    }
    result.path_length_visible.Add(corrected);
  }

  for (const probe::Prober& prober : probers_) {
    result.probes_sent += prober.probes_sent();
  }
  if (cache != nullptr) {
    for (std::size_t vp = 0; vp < probers_.size(); ++vp) {
      result.delta_pairs_total += total[vp];
      result.delta_pairs_reprobed += total[vp] - served[vp];
    }
  }
  delta_cache_ = nullptr;
  delta_epoch_ = 0;
  delta_strict_ = false;
  return result;
}

probe::PingResult Campaign::CachedPing(std::size_t vp,
                                       probe::Prober& prober,
                                       netbase::Ipv4Address address) {
  if (delta_cache_ == nullptr) return prober.Ping(address);
  const TraceCache::PingLookup cached = delta_cache_->FindPing(
      vp, address, delta_epoch_, prober.probes_sent(), delta_strict_);
  if (cached.hit) {
    prober.SkipProbes(cached.probes_used);
    return cached.result;
  }
  const std::uint64_t before = prober.probes_sent();
  const probe::PingResult ping = prober.Ping(address);
  delta_cache_->RecordPing(vp, prober.vantage_point(), ping, delta_epoch_,
                           before, prober.probes_sent() - before);
  return ping;
}

std::optional<EndpointPair> Campaign::AnalyzeTrace(
    const probe::TraceResult& trace, CampaignResult& result, std::size_t vp,
    probe::Prober& prober,
    const std::unordered_set<topo::NodeId>& hdn_set) {
  // UHP signatures: attribute each duplicate-hop suspicion to the AS of
  // the hop before it (the suspected Ingress LER of the invisible cloud).
  for (const auto& suspicion : reveal::DetectUhpSuspicions(trace)) {
    if (!suspicion.before) continue;
    const auto node = result.inferred.FindNode(*suspicion.before);
    const topo::AsNumber asn =
        node ? result.inferred.node(*node).asn
             : engine_->topology().AsOfAddress(*suspicion.before);
    if (asn != 0) ++result.uhp_suspicions[asn];
  }

  // Fingerprinting: the time-exceeded half comes for free from the trace;
  // the echo-reply half needs one ping per new address.
  for (const probe::Hop& hop : trace.hops) {
    if (!hop.address) continue;
    if (hop.reply_kind == PacketKind::kTimeExceeded) {
      result.signatures.RecordTimeExceeded(*hop.address, hop.reply_ip_ttl);
    } else if (hop.reply_kind == PacketKind::kEchoReply) {
      result.signatures.RecordEchoReply(*hop.address, hop.reply_ip_ttl);
    }
    if (options_.fingerprint &&
        result.signatures.NeedsEchoReply(*hop.address)) {
      const probe::PingResult ping = CachedPing(vp, prober, *hop.address);
      if (ping.responded) {
        result.signatures.RecordEchoReply(*hop.address, ping.reply_ip_ttl);
      }
    }
  }

  // Candidate endpoints: the trace must have reached D with ... X, Y, D and
  // X, Y apparently adjacent in the same AS (paper Sec. 4).
  if (!trace.reached) return std::nullopt;
  const auto last3 = trace.LastResponders(3);
  if (last3.size() < 3) return std::nullopt;
  const netbase::Ipv4Address x = last3[0];
  const netbase::Ipv4Address y = last3[1];

  const auto nx = result.inferred.FindNode(x);
  const auto ny = result.inferred.FindNode(y);
  if (!nx || !ny || *nx == *ny) return std::nullopt;
  const topo::AsNumber asn = result.inferred.node(*ny).asn;
  if (asn == 0 || result.inferred.node(*nx).asn != asn) return std::nullopt;

  const auto hop_x = trace.HopOf(x);
  const auto hop_y = trace.HopOf(y);
  if (!hop_x || !hop_y || *hop_y != *hop_x + 1) return std::nullopt;

  if (options_.require_hdn_endpoints) {
    if (!hdn_set.contains(*nx) || !hdn_set.contains(*ny)) {
      return std::nullopt;
    }
  }

  const EndpointPair pair{x, y};
  auto it = result.revelations.find(pair);
  if (it == result.revelations.end()) {
    reveal::Revelator revelator(prober,
                                {.trace_options = options_.trace_options});
    reveal::RevelationResult revelation = revelator.Reveal(x, y);
    result.revelation_traces +=
        static_cast<std::uint64_t>(revelation.traces_used);
    it = result.revelations.emplace(pair, std::move(revelation)).first;
  }

  CandidateRecord record;
  record.pair = pair;
  record.asn = asn;
  const probe::Hop& egress_hop =
      trace.hops.at(static_cast<std::size_t>(*hop_y) -
                    static_cast<std::size_t>(trace.hops[0].probe_ttl));
  record.egress_forward_ttl = egress_hop.probe_ttl;
  record.egress_return_ttl = egress_hop.reply_ip_ttl;
  const probe::PingResult ping = CachedPing(vp, prober, y);
  if (ping.responded) record.egress_echo_ttl = ping.reply_ip_ttl;
  record.revealed = it->second.succeeded();
  record.revealed_count = static_cast<int>(it->second.revealed.size());
  result.candidates.push_back(record);

  // RTLA applies when the egress has a <255,64>-style signature.
  if (record.egress_echo_ttl) {
    const auto observation = reveal::ObserveRtla(
        y, record.egress_return_ttl, *record.egress_echo_ttl);
    if (observation) result.rtla.Add(asn, *observation);
  }
  return pair;
}

Campaign::FrplaSets Campaign::FrplaSetsOf(const CampaignResult& result) {
  FrplaSets sets;
  for (const auto& [pair, revelation] : result.revelations) {
    sets.ingresses.insert(pair.ingress);
    sets.egresses.insert(pair.egress);
  }
  return sets;
}

void Campaign::FrplaFromTrace(const probe::TraceResult& trace,
                              const FrplaSets& sets,
                              CampaignResult& result) {
  for (const probe::Hop& hop : trace.hops) {
    if (!hop.address) continue;
    if (hop.reply_kind != PacketKind::kTimeExceeded) continue;
    // Egresses are handled by RfaSampleFromCandidate.
    if (sets.egresses.contains(*hop.address)) continue;
    const auto observation = reveal::ObserveRfa(hop);
    if (!observation) continue;
    const auto node = result.inferred.FindNode(*hop.address);
    if (!node) continue;
    const topo::AsNumber asn = result.inferred.node(*node).asn;
    if (asn == 0) continue;

    const reveal::ResponderRole role =
        sets.ingresses.contains(*hop.address)
            ? reveal::ResponderRole::kIngress
            : reveal::ResponderRole::kOther;
    result.frpla.Add(asn, role, *observation);
  }
}

void Campaign::ClassifyFrpla(CampaignResult& result) const {
  const FrplaSets sets = FrplaSetsOf(result);

  // Egress RFA samples come from the traces in which the address actually
  // acted as a tunnel egress (the candidate observations). A trace aimed
  // *at* the same PE follows a route that hides nothing, so counting every
  // appearance would wash the shift out.
  for (const CandidateRecord& record : result.candidates) {
    RfaSampleFromCandidate(record, result);
  }

  for (const probe::TraceResult& trace : result.traces) {
    FrplaFromTrace(trace, sets, result);
  }
}

void Campaign::RfaSampleFromCandidate(const CandidateRecord& record,
                                      CampaignResult& result) {
  reveal::RfaObservation observation;
  observation.responder = record.pair.egress;
  observation.forward_length = record.egress_forward_ttl;
  observation.return_length =
      reveal::ReturnPathLength(record.egress_return_ttl);
  result.frpla.Add(record.asn,
                   record.revealed
                       ? reveal::ResponderRole::kEgressRevealed
                       : reveal::ResponderRole::kEgressHidden,
                   observation);
}

}  // namespace wormhole::campaign
