#include "campaign/campaign.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

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

namespace {

/// The ingress/egress address sets of the revelation map — the FRPLA
/// responder-role classifier's inputs, computed once after the reduce.
struct FrplaSets {
  std::unordered_set<netbase::Ipv4Address> ingresses;
  std::unordered_set<netbase::Ipv4Address> egresses;
};

FrplaSets FrplaSetsOf(const CampaignResult& result) {
  FrplaSets sets;
  for (const auto& [pair, revelation] : result.revelations) {
    sets.ingresses.insert(pair.ingress);
    sets.egresses.insert(pair.egress);
  }
  return sets;
}

/// Adds one trace's hop-level RFA samples.
void FrplaFromTrace(const probe::TraceResult& trace, const FrplaSets& sets,
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

void RfaSampleFromCandidate(const CandidateRecord& record,
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

/// Inflates every trace of `logs` in (vp, trace-index) order into one
/// reused TraceResult and hands it to `fn(vp, trace)`.
template <typename Fn>
void Replay(const std::vector<CompactTraceLog>& logs, Fn&& fn) {
  probe::TraceResult trace;
  for (std::size_t vp = 0; vp < logs.size(); ++vp) {
    for (std::size_t i = 0; i < logs[vp].size(); ++i) {
      logs[vp].InflateInto(i, trace);
      fn(vp, trace);
    }
  }
}

/// The per-VP traces concatenated in VP order.
std::vector<probe::TraceResult> Flatten(
    std::vector<std::vector<probe::TraceResult>>& per_vp) {
  std::vector<probe::TraceResult> out;
  for (auto& list : per_vp) std::ranges::move(list, std::back_inserter(out));
  return out;
}

}  // namespace

CampaignResult Campaign::Run(
    const std::vector<netbase::Ipv4Address>& discovery_targets) {
  return Execute(discovery_targets, nullptr);
}

CampaignResult Campaign::RunDelta(
    const std::vector<netbase::Ipv4Address>& discovery_targets,
    TraceCache& cache) {
  return Execute(discovery_targets, &cache);
}

std::vector<probe::TraceResult> Campaign::RunDiscovery(
    const std::vector<netbase::Ipv4Address>& targets) {
  RunContext ctx = StartRun(nullptr);
  std::vector<std::vector<probe::TraceResult>> per_vp(probers_.size());
  (void)Probe(TraceCache::Phase::kDiscovery,
              ShardTargets(targets, probers_.size()), ctx, &per_vp);
  return Flatten(per_vp);
}

Campaign::RunContext Campaign::StartRun(TraceCache* cache) {
  // Only a trace cache reads the probes' footprints.
  for (probe::Prober& prober : probers_) prober.Restart(cache != nullptr);
  RunContext ctx;
  ctx.cache = cache;
  ctx.epoch = engine_->convergence_epoch();
  // On a lossy world the reply bytes depend on probe ids, so a cached
  // trace may only be served at the exact id offset it was recorded at;
  // loss-free worlds can serve at any offset (docs/incremental.md).
  ctx.strict_offsets = cache != nullptr && engine_->RepliesDependOnProbeIds();
  ctx.hits.assign(probers_.size(), 0);
  if (cache != nullptr) {
    cache->Begin(engine_->topology(), probers_.size(), ctx.epoch);
  }
  return ctx;
}

std::vector<CompactTraceLog> Campaign::Probe(
    TraceCache::Phase phase,
    const std::vector<std::vector<netbase::Ipv4Address>>& shards,
    RunContext& ctx, std::vector<std::vector<probe::TraceResult>>* keep) {
  // One task per vantage point: probers_[vp] is touched by that task only,
  // and it walks its shard in order, so the probe-id stream of every
  // prober — and with it every simulated reply — is independent of the
  // worker count and of scheduling. Cache hits replay their id budget
  // via SkipProbes, so the live probes land on exactly the ids a cold run
  // gives them. Each task reads and writes only its own (phase, vp) cache
  // slot — see the TraceCache thread-safety contract.
  TraceCache* cache = ctx.cache;
  std::vector<CompactTraceLog> logs(probers_.size());
  exec::ParallelFor(pool_, probers_.size(), [&](std::size_t vp) {
    probe::Prober& prober = probers_[vp];
    probe::TraceResult trace;
    std::uint64_t hits = 0;
    for (const netbase::Ipv4Address target : shards[vp]) {
      // A probing pass must never span a reconvergence: reconvergence is
      // the engine's exclusive write phase, and an epoch bump mid-pass
      // would mean traces of two routing states under one epoch stamp.
      WORMHOLE_ASSERT(engine_->convergence_epoch() == ctx.epoch,
                      "reconvergence during a probing pass");
      if (cache != nullptr) {
        const TraceCache::Lookup cached =
            cache->Find(phase, vp, target, ctx.epoch, prober.probes_sent(),
                        ctx.strict_offsets);
        if (cached.hit) {
          logs[vp].AppendFrom(cache->LogOf(phase, vp), cached.trace_index);
          prober.SkipProbes(cached.probes_used);
          ++hits;
          continue;
        }
      }
      const std::uint64_t before = prober.probes_sent();
      prober.Traceroute(target, options_.trace_options, trace);
      if (cache != nullptr) {
        cache->Record(phase, vp, trace, prober.footprint().ases(), ctx.epoch,
                      before, prober.probes_sent() - before);
      }
      logs[vp].Append(trace);
      if (keep != nullptr) (*keep)[vp].push_back(trace);
    }
    ctx.hits[vp] += hits;
  });
  return logs;
}

CampaignResult Campaign::Execute(
    const std::vector<netbase::Ipv4Address>& discovery_targets,
    TraceCache* cache) {
  RunContext ctx = StartRun(cache);
  CampaignResult result;
  const topo::Topology& topology = engine_->topology();
  const AliasResolver resolver = TruthResolver(topology);

  // Phase 0: plain discovery campaign; infer the (biased) dataset from
  // the logs, replayed in the vp-major order they were probed in. The
  // logs die with the scope.
  {
    const auto logs = Probe(TraceCache::Phase::kDiscovery,
                            ShardTargets(discovery_targets, probers_.size()),
                            ctx, nullptr);
    Replay(logs, [&](std::size_t, const probe::TraceResult& trace) {
      AddTraceToDataset(result.inferred, trace, resolver, topology);
    });
  }

  // Phase 1: HDN-guided probing. Buffered mode (a cold run with
  // stream_shard_size 0) also keeps every full targeted trace.
  result.targets = SelectTargets(result.inferred, options_.hdn_threshold);
  const std::unordered_set<topo::NodeId> hdn_set(
      result.targets.hdns.begin(), result.targets.hdns.end());
  const auto shards = options_.shard_targets
                          ? ShardTargets(result.targets.all, probers_.size())
                          : std::vector<std::vector<netbase::Ipv4Address>>(
                                probers_.size(), result.targets.all);
  const bool buffered = cache == nullptr && options_.stream_shard_size == 0;
  std::vector<std::vector<probe::TraceResult>> kept(probers_.size());
  const auto logs = Probe(TraceCache::Phase::kTargeted, shards, ctx,
                          buffered ? &kept : nullptr);

  // Sequential reduce in (vp, target-index) order, inflating one trace
  // at a time. All probing above is already done, so the analysis probes
  // AnalyzeTrace issues (fingerprint pings, revelation traces) extend
  // each prober's id stream at positions no worker count or scheduling
  // can move. Each trace that yields a candidate pair crossed a suspected
  // tunnel; its pair and observed path length are the Fig. 11 material.
  std::vector<std::pair<EndpointPair, int>> crossings;
  Replay(logs, [&](std::size_t vp, const probe::TraceResult& trace) {
    ++result.trace_count;
    AddTraceToDataset(result.inferred, trace, resolver, topology);
    if (const auto pair = AnalyzeTrace(trace, result, vp, ctx, hdn_set)) {
      crossings.emplace_back(*pair, trace.LastRespondingTtl());
    }
  });

  // FRPLA needs the full revelation map, so it is a second pass over the
  // logs, in the same trace order. Egress RFA samples come from the
  // traces in which the address actually acted as a tunnel egress (the
  // candidate observations). A trace aimed *at* the same PE follows a
  // route that hides nothing, so counting every appearance would wash
  // the shift out.
  const FrplaSets sets = FrplaSetsOf(result);
  for (const CandidateRecord& record : result.candidates) {
    RfaSampleFromCandidate(record, result);
  }
  Replay(logs, [&](std::size_t, const probe::TraceResult& trace) {
    FrplaFromTrace(trace, sets, result);
  });

  // Fig. 11 material: observed vs revelation-corrected path lengths, over
  // the traces that crossed a suspected tunnel (the paper's campaign is
  // exactly that population — transit paths through suspicious ASes).
  for (const auto& [pair, observed] : crossings) {
    if (observed == 0) continue;
    result.path_length_invisible.Add(observed);
    int corrected = observed;
    const auto it = result.revelations.find(pair);
    if (it != result.revelations.end() && it->second.succeeded()) {
      corrected += static_cast<int>(it->second.revealed.size());
    }
    result.path_length_visible.Add(corrected);
  }

  for (const probe::Prober& prober : probers_) {
    result.probes_sent += prober.probes_sent();
  }
  if (cache != nullptr) {
    // Each VP walked its discovery shard and its targeted list once.
    result.delta_pairs_total = discovery_targets.size() + result.trace_count;
    result.delta_pairs_reprobed = result.delta_pairs_total;
    for (const std::uint64_t hits : ctx.hits) {
      result.delta_pairs_reprobed -= hits;
    }
  }
  result.traces = Flatten(kept);
  return result;
}

probe::PingResult Campaign::Ping(std::size_t vp, netbase::Ipv4Address address,
                                 const RunContext& ctx) {
  probe::Prober& prober = probers_[vp];
  TraceCache* cache = ctx.cache;
  if (cache == nullptr) return prober.Ping(address);
  const TraceCache::PingLookup cached = cache->FindPing(
      vp, address, ctx.epoch, prober.probes_sent(), ctx.strict_offsets);
  if (cached.hit) {
    prober.SkipProbes(cached.probes_used);
    return cached.result;
  }
  const std::uint64_t before = prober.probes_sent();
  const probe::PingResult ping = prober.Ping(address);
  cache->RecordPing(vp, ping, prober.footprint().ases(), ctx.epoch, before,
                    prober.probes_sent() - before);
  return ping;
}

std::optional<EndpointPair> Campaign::AnalyzeTrace(
    const probe::TraceResult& trace, CampaignResult& result, std::size_t vp,
    const RunContext& ctx, const std::unordered_set<topo::NodeId>& hdn_set) {
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
      const probe::PingResult ping = Ping(vp, *hop.address, ctx);
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
    reveal::Revelator revelator(probers_[vp],
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
  const probe::PingResult ping = Ping(vp, y, ctx);
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

}  // namespace wormhole::campaign
