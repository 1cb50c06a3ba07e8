// The parallel campaign must be a pure optimisation: running the same
// campaign with any number of worker threads yields bit-identical results
// — traces, revelations, analyses, probe accounting, and merged engine
// stats. Failure injection is switched on so the test also covers the
// probe-id-sensitive paths (deterministic ICMP loss draws).
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/campaign_report.h"
#include "campaign/campaign.h"
#include "gen/internet.h"
#include "io/tracefile.h"
#include "sim/forward_cursor.h"
#include "sim/reply_memo.h"

namespace wormhole::campaign {
namespace {

gen::InternetOptions WorldOptions() {
  gen::InternetOptions options;
  options.seed = 17;
  options.tier1_count = 2;
  options.transit_count = 5;
  options.stub_count = 12;
  options.vp_count = 5;
  options.anonymous_router_probability = 0.02;
  options.icmp_loss = 0.05;
  return options;
}

struct Outcome {
  CampaignResult result;
  sim::EngineStats stats;
  std::string traces_text;
  std::string report_text;
};

Outcome RunWith(std::size_t jobs) {
  // A fresh world per run: engine stat shards start from zero, so the
  // merged EngineStats can be compared exactly.
  gen::SyntheticInternet net(WorldOptions());
  Campaign campaign(net.engine(), net.vantage_points(), {.jobs = jobs});
  Outcome outcome;
  outcome.result = campaign.Run(net.AllLoopbacks());
  outcome.stats = net.engine().stats();
  std::ostringstream traces;
  io::WriteTraces(traces, outcome.result.traces);
  outcome.traces_text = traces.str();
  std::ostringstream report;
  analysis::WriteCampaignReport(report, outcome.result, net.topology());
  outcome.report_text = report.str();
  return outcome;
}

TEST(ParallelDeterminism, CampaignIsIdenticalAcrossJobCounts) {
  const Outcome seq = RunWith(1);
  const Outcome par = RunWith(4);

  // Sanity: the campaign did real work.
  ASSERT_GT(seq.result.traces.size(), 0u);
  ASSERT_GT(seq.result.revelations.size(), 0u);
  ASSERT_GT(seq.result.probes_sent, 0u);

  // Every trace, hop by hop (serialised form covers addresses, TTLs,
  // labels, RTTs).
  EXPECT_EQ(seq.traces_text, par.traces_text);

  // Revelation dedup map: same pairs, same revealed hops, same methods.
  ASSERT_EQ(seq.result.revelations.size(), par.result.revelations.size());
  auto it_par = par.result.revelations.begin();
  for (const auto& [pair, revelation] : seq.result.revelations) {
    ASSERT_EQ(pair, it_par->first);
    EXPECT_EQ(revelation.revealed, it_par->second.revealed);
    EXPECT_EQ(revelation.method, it_par->second.method);
    EXPECT_EQ(revelation.traces_used, it_par->second.traces_used);
    EXPECT_EQ(revelation.batch_sizes, it_par->second.batch_sizes);
    ++it_par;
  }

  // Candidate records in merge order.
  ASSERT_EQ(seq.result.candidates.size(), par.result.candidates.size());
  for (std::size_t i = 0; i < seq.result.candidates.size(); ++i) {
    const CandidateRecord& a = seq.result.candidates[i];
    const CandidateRecord& b = par.result.candidates[i];
    EXPECT_EQ(a.pair, b.pair);
    EXPECT_EQ(a.asn, b.asn);
    EXPECT_EQ(a.egress_forward_ttl, b.egress_forward_ttl);
    EXPECT_EQ(a.egress_return_ttl, b.egress_return_ttl);
    EXPECT_EQ(a.egress_echo_ttl, b.egress_echo_ttl);
    EXPECT_EQ(a.revealed, b.revealed);
    EXPECT_EQ(a.revealed_count, b.revealed_count);
  }

  // FRPLA / RTLA / fingerprints / UHP suspicions / Fig. 11 distributions —
  // all serialised into the campaign report.
  EXPECT_EQ(seq.report_text, par.report_text);

  // Probe accounting and the merged per-thread engine stat shards.
  EXPECT_EQ(seq.result.probes_sent, par.result.probes_sent);
  EXPECT_EQ(seq.result.revelation_traces, par.result.revelation_traces);
  EXPECT_EQ(seq.stats, par.stats);
  EXPECT_EQ(seq.stats.packets_injected, seq.result.probes_sent);
}

TEST(ParallelDeterminism, DiscoveryMergesInVantagePointOrder) {
  gen::SyntheticInternet net(WorldOptions());
  gen::SyntheticInternet net2(WorldOptions());
  Campaign seq(net.engine(), net.vantage_points(), {.jobs = 1});
  Campaign par(net2.engine(), net2.vantage_points(), {.jobs = 4});
  EXPECT_EQ(seq.jobs(), 1u);
  EXPECT_EQ(par.jobs(), 4u);

  const auto targets = net.AllLoopbacks();
  const auto a = seq.RunDiscovery(targets);
  const auto b = par.RunDiscovery(targets);
  std::ostringstream sa, sb;
  io::WriteTraces(sa, a);
  io::WriteTraces(sb, b);
  EXPECT_EQ(sa.str(), sb.str());

  // The reference: a fresh prober per VP traces its shard in order, each
  // trace a new TraceResult, and the shards are merged in VP order. The
  // campaign traces into one recycled TraceResult per VP and keeps
  // copies; that must not change a byte (labels and RTTs included).
  const auto vps = net.vantage_points();
  const auto shards = ShardTargets(targets, vps.size());
  std::vector<probe::TraceResult> want;
  for (std::size_t vp = 0; vp < vps.size(); ++vp) {
    probe::Prober prober(net.engine(), vps[vp]);
    for (const netbase::Ipv4Address target : shards[vp]) {
      want.push_back(
          prober.Traceroute(target, CampaignOptions{}.trace_options));
    }
  }
  std::ostringstream sw;
  io::WriteTraces(sw, want);
  EXPECT_EQ(sa.str(), sw.str());
}

TEST(ParallelDeterminism, ConcurrentCursorSendMatchesSequentialSend) {
  // Many threads sending TTL sweeps against one shared engine, each
  // through its own reply memo and forward cursor (per the contract),
  // must neither race — this test runs under TSan in CI — nor perturb
  // results: every thread's outcomes equal cursor-less Send's for the
  // same probes.
  gen::SyntheticInternet net(WorldOptions());
  const sim::Engine& engine = net.engine();
  const auto vps = net.vantage_points();
  const auto loopbacks = net.AllLoopbacks();

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<netbase::Packet>> per_thread(kThreads);
  for (std::size_t w = 0; w < kThreads; ++w) {
    std::uint32_t id = 0;
    for (std::size_t t = w; t < loopbacks.size(); t += kThreads) {
      for (int ttl = 1; ttl <= 10; ++ttl) {
        netbase::Packet probe;
        probe.kind = netbase::PacketKind::kEchoRequest;
        probe.src = vps[w % vps.size()];
        probe.dst = loopbacks[t];
        probe.ip_ttl = ttl;
        probe.probe_id = ++id;
        per_thread[w].push_back(probe);
      }
    }
  }

  std::vector<std::vector<sim::Engine::Outcome>> expected(kThreads);
  for (std::size_t w = 0; w < kThreads; ++w) {
    for (const netbase::Packet& probe : per_thread[w]) {
      expected[w].push_back(engine.Send(probe));
    }
  }

  exec::ThreadPool pool(kThreads);
  std::vector<std::vector<sim::Engine::Outcome>> got(kThreads);
  std::vector<sim::ForwardCursor::Counts> counts(kThreads);
  exec::ParallelFor(pool, kThreads, [&](std::size_t w) {
    sim::ReplyMemo memo;
    sim::ForwardCursor cursor;
    for (const netbase::Packet& probe : per_thread[w]) {
      got[w].push_back(engine.Send(probe, &memo, &cursor));
    }
    counts[w] = cursor.counts();
  });

  for (std::size_t w = 0; w < kThreads; ++w) {
    ASSERT_EQ(got[w].size(), expected[w].size()) << "thread " << w;
    for (std::size_t i = 0; i < got[w].size(); ++i) {
      EXPECT_EQ(got[w][i], expected[w][i]) << "thread " << w << " slot " << i;
    }
    // The sweeps did resume: the concurrent run covered the cursor.
    EXPECT_GT(counts[w].resumes, 0u) << "thread " << w;
  }
}

TEST(ParallelDeterminism, ZeroJobsResolvesToHardwareConcurrency) {
  gen::SyntheticInternet net(WorldOptions());
  Campaign campaign(net.engine(), net.vantage_points(), {});
  EXPECT_EQ(campaign.jobs(), exec::HardwareConcurrency());
}

}  // namespace
}  // namespace wormhole::campaign
