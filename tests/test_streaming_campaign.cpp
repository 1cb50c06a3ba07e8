// Streaming-campaign equivalence: a non-zero
// CampaignOptions::stream_shard_size only stops Run from keeping the full
// targeted traces (the reduce reads the per-VP CompactTraceLogs in both
// modes), so it must not change ONE byte of the analysis output — same
// engine stats, same probe counts, same report — at any shard size and
// any worker count. RunDelta and a second run on one Campaign must
// reproduce the same bytes too. These tests pin that contract on the
// golden seed-17 world.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/campaign_report.h"
#include "campaign/campaign.h"
#include "campaign/compact_trace.h"
#include "campaign/trace_cache.h"
#include "gen/internet.h"
#include "sim/network.h"

namespace wormhole {
namespace {

/// Builds the golden-snapshot world, runs the campaign, and serializes
/// everything streaming mode is expected to reproduce (the buffered
/// trace buffer itself is deliberately excluded — streaming never
/// retains it; test_golden_campaign pins those bytes).
std::string RunCampaign(std::size_t jobs, std::size_t stream_shard_size) {
  gen::InternetOptions options;
  options.seed = 17;
  options.tier1_count = 2;
  options.transit_count = 4;
  options.stub_count = 10;
  options.vp_count = 3;
  options.anonymous_router_probability = 0.02;
  options.icmp_loss = 0.05;

  gen::SyntheticInternet net(options);
  campaign::Campaign campaign(
      net.engine(), net.vantage_points(),
      {.jobs = jobs, .stream_shard_size = stream_shard_size});
  const campaign::CampaignResult result = campaign.Run(net.AllLoopbacks());
  const sim::EngineStats stats = net.engine().stats();

  if (stream_shard_size > 0) {
    EXPECT_TRUE(result.traces.empty())
        << "streaming mode must not buffer traces";
  } else {
    EXPECT_EQ(result.trace_count, result.traces.size());
  }
  EXPECT_GT(result.trace_count, 0u);

  std::ostringstream out;
  out << "S packets_injected " << stats.packets_injected << "\n";
  out << "S hops_processed " << stats.hops_processed << "\n";
  out << "S icmp_generated " << stats.icmp_generated << "\n";
  out << "S labels_pushed " << stats.labels_pushed << "\n";
  out << "S labels_popped " << stats.labels_popped << "\n";
  out << "S probes_sent " << result.probes_sent << "\n";
  out << "S revelation_traces " << result.revelation_traces << "\n";
  out << "S revealed_count " << result.revealed_count() << "\n";
  out << "S trace_count " << result.trace_count << "\n";
  analysis::WriteCampaignReport(out, result, net.topology());
  return out.str();
}

TEST(StreamingCampaign, ShardSizeNeverChangesAByte) {
  // Only zero versus non-zero matters: 1, 64 and 1<<20 all mean
  // streaming mode, and each must match buffered mode byte for byte.
  const std::string buffered = RunCampaign(/*jobs=*/1, /*shard=*/0);
  ASSERT_FALSE(buffered.empty());
  for (const std::size_t shard : {std::size_t{1}, std::size_t{64},
                                  std::size_t{1} << 20}) {
    const std::string streamed = RunCampaign(/*jobs=*/1, shard);
    EXPECT_EQ(streamed, buffered) << "shard=" << shard;
  }
}

TEST(StreamingCampaign, WorkerCountNeverChangesAByte) {
  const std::string buffered = RunCampaign(/*jobs=*/1, /*shard=*/0);
  for (const std::size_t shard : {std::size_t{1}, std::size_t{64},
                                  std::size_t{1} << 20}) {
    const std::string streamed = RunCampaign(/*jobs=*/4, shard);
    EXPECT_EQ(streamed, buffered) << "jobs=4 shard=" << shard;
  }
}

gen::InternetOptions GoldenWorldOptions() {
  gen::InternetOptions options;
  options.seed = 17;
  options.tier1_count = 2;
  options.transit_count = 4;
  options.stub_count = 10;
  options.vp_count = 3;
  options.anonymous_router_probability = 0.02;
  options.icmp_loss = 0.05;
  return options;
}

/// The first internal link of an MPLS-enabled AS — same choice at every
/// (jobs, shard) combination, so all runs flap the same link.
topo::LinkId PickFlapLink(const gen::SyntheticInternet& world) {
  const topo::Topology& topology = world.topology();
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    if (!topology.IsInternalLink(l)) continue;
    const topo::AsNumber asn =
        topology.router(topology.interface(topology.link(l).a).router).asn;
    if (world.profile(asn).mpls) return l;
  }
  return topo::kNoLink;
}

/// What a delta run must reproduce byte-for-byte. Engine stats are
/// excluded (cache hits skip simulated packets — that saving is the
/// point); probe accounting is included (SkipProbes replays cached id
/// budgets).
std::string DeltaBytes(const campaign::CampaignResult& result,
                       const gen::SyntheticInternet& world) {
  std::ostringstream out;
  out << "S probes_sent " << result.probes_sent << "\n";
  out << "S revelation_traces " << result.revelation_traces << "\n";
  out << "S revealed_count " << result.revealed_count() << "\n";
  out << "S trace_count " << result.trace_count << "\n";
  analysis::WriteCampaignReport(out, result, world.topology());
  return out.str();
}

// The golden world has icmp_loss > 0, so reply bytes depend on probe-id
// offsets and the cache must fall back to its strict-offset guard: a hit
// is only served when the prober sits at exactly the id the trace was
// recorded at (Engine::RepliesDependOnProbeIds). This pins delta parity
// on the HARD world — lossy, anonymous routers — at every jobs/shard
// combination, against a cold buffered reference.
TEST(DeltaCampaign, LossyWorldParityAtEveryJobsAndShardCombination) {
  // Cold reference: a buffered (shard=0) run against the flapped world.
  std::string want;
  {
    gen::SyntheticInternet world(GoldenWorldOptions());
    const topo::LinkId link = PickFlapLink(world);
    ASSERT_NE(link, topo::kNoLink);
    world.mutable_topology().SetLinkUp(link, false);
    world.network().OnLinkStateChange(link);
    campaign::Campaign cold(world.engine(), world.vantage_points(),
                            {.jobs = 1});
    want = DeltaBytes(cold.Run(world.AllLoopbacks()), world);
    ASSERT_FALSE(want.empty());
  }

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t shard : {std::size_t{1}, std::size_t{64},
                                    std::size_t{0}}) {
      gen::SyntheticInternet world(GoldenWorldOptions());
      const auto targets = world.AllLoopbacks();
      const topo::LinkId link = PickFlapLink(world);
      campaign::Campaign campaign(
          world.engine(), world.vantage_points(),
          {.jobs = jobs, .stream_shard_size = shard});
      campaign::TraceCache cache;
      (void)campaign.RunDelta(targets, cache);

      world.mutable_topology().SetLinkUp(link, false);
      const routing::ConvergenceDelta delta =
          world.network().OnLinkStateChange(link);
      cache.Invalidate(delta);

      const campaign::CampaignResult result =
          campaign.RunDelta(targets, cache);
      EXPECT_EQ(DeltaBytes(result, world), want)
          << "jobs=" << jobs << " shard=" << shard;
      EXPECT_TRUE(result.traces.empty())
          << "RunDelta keeps no full traces, jobs=" << jobs
          << " shard=" << shard;
      EXPECT_GT(result.delta_pairs_total, 0u);
      EXPECT_LE(result.delta_pairs_reprobed, result.delta_pairs_total);
      // Even under the strict-offset guard each VP serves at least its
      // clean probing prefix from the cache.
      EXPECT_LT(result.delta_pairs_reprobed, result.delta_pairs_total)
          << "jobs=" << jobs << " shard=" << shard;
    }
  }
}

// Every run restarts the probers, so a second run on one Campaign sends
// the same probe ids as the first and, on this lossy world, sees the same
// replies and writes the same bytes.
TEST(StreamingCampaign, ASecondRunOnOneCampaignRepeatsTheFirst) {
  for (const std::size_t shard : {std::size_t{0}, std::size_t{64}}) {
    gen::SyntheticInternet world(GoldenWorldOptions());
    const auto targets = world.AllLoopbacks();
    campaign::Campaign campaign(world.engine(), world.vantage_points(),
                                {.jobs = 1, .stream_shard_size = shard});
    const std::string first = DeltaBytes(campaign.Run(targets), world);
    EXPECT_EQ(DeltaBytes(campaign.Run(targets), world), first)
        << "shard=" << shard;
  }
}

TEST(CompactTraceLog, RoundTripsEveryFieldTheReduceReads) {
  probe::TraceResult trace;
  trace.source = netbase::Ipv4Address(0x0A000001);
  trace.target = netbase::Ipv4Address(0x0A0000FE);
  trace.flow_id = 7;
  trace.reached = true;
  for (int ttl = 2; ttl <= 5; ++ttl) {
    probe::Hop hop;
    hop.probe_ttl = ttl;
    if (ttl != 3) {  // hop 3 is a timeout ("*")
      hop.address = netbase::Ipv4Address(0x0A000100u + ttl);
      hop.reply_kind = ttl == 5 ? netbase::PacketKind::kEchoReply
                                : netbase::PacketKind::kTimeExceeded;
      hop.reply_ip_ttl = 255 - ttl;
      hop.rtt_ms = 1.5;  // NOT retained, by contract
    }
    trace.hops.push_back(hop);
  }

  campaign::CompactTraceLog log;
  log.Append(trace);
  probe::TraceResult empty;
  empty.source = trace.source;
  empty.target = netbase::Ipv4Address(0x0A0000FD);
  empty.flow_id = 9;
  empty.unreachable = true;
  log.Append(empty);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.hop_count(), 4u);

  const probe::TraceResult back = log.Inflate(0);
  EXPECT_EQ(back.source, trace.source);
  EXPECT_EQ(back.target, trace.target);
  EXPECT_EQ(back.flow_id, trace.flow_id);
  EXPECT_TRUE(back.reached);
  EXPECT_FALSE(back.unreachable);
  ASSERT_EQ(back.hops.size(), trace.hops.size());
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    EXPECT_EQ(back.hops[i].probe_ttl, trace.hops[i].probe_ttl);
    EXPECT_EQ(back.hops[i].address, trace.hops[i].address);
    EXPECT_EQ(back.hops[i].reply_kind, trace.hops[i].reply_kind);
    EXPECT_EQ(back.hops[i].reply_ip_ttl, trace.hops[i].reply_ip_ttl);
  }

  const probe::TraceResult back1 = log.Inflate(1);
  EXPECT_EQ(back1.target, empty.target);
  EXPECT_TRUE(back1.unreachable);
  EXPECT_FALSE(back1.reached);
  EXPECT_TRUE(back1.hops.empty());
}

}  // namespace
}  // namespace wormhole
