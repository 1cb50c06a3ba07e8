// Integration tests of the full measurement pipeline against ground truth.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/campaign_report.h"
#include "analysis/correct.h"
#include "analysis/tables.h"
#include "campaign/campaign.h"
#include "campaign/crossval.h"
#include "gen/internet.h"
#include "io/tracefile.h"

namespace wormhole::campaign {
namespace {

// One shared campaign over the default synthetic Internet (runs in well
// under a second).
class CampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new gen::SyntheticInternet({.seed = 7});
    Campaign campaign(net_->engine(), net_->vantage_points(), {});
    result_ = new CampaignResult(campaign.Run(net_->AllLoopbacks()));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete net_;
    net_ = nullptr;
    result_ = nullptr;
  }
  static gen::SyntheticInternet* net_;
  static CampaignResult* result_;
};

gen::SyntheticInternet* CampaignTest::net_ = nullptr;
CampaignResult* CampaignTest::result_ = nullptr;

TEST_F(CampaignTest, FindsHdnsAndTargets) {
  EXPECT_GT(result_->targets.hdns.size(), 0u);
  EXPECT_GT(result_->targets.all.size(), 0u);
  EXPECT_GE(result_->targets.set_a.size() + result_->targets.set_b.size(),
            result_->targets.all.size());
}

TEST_F(CampaignTest, RevealsTunnels) {
  EXPECT_GT(result_->revelations.size(), 0u);
  EXPECT_GT(result_->revealed_count(), 0u);
}

TEST_F(CampaignTest, RevelationsOnlyInInvisiblePhpAses) {
  for (const auto& [pair, revelation] : result_->revelations) {
    const topo::AsNumber asn =
        net_->topology().AsOfAddress(pair.egress);
    ASSERT_NE(asn, 0u);
    const gen::AsProfile& profile = net_->profile(asn);
    if (revelation.succeeded()) {
      EXPECT_TRUE(profile.invisible_tunnels())
          << "revealed a tunnel in visible AS" << asn;
      EXPECT_EQ(profile.popping, mpls::Popping::kPhp);
    }
  }
}

TEST_F(CampaignTest, EveryCandidateInInvisiblePhpAsIsRevealed) {
  // The paper's claim: PHP + LDP implies at least one technique works.
  for (const auto& [pair, revelation] : result_->revelations) {
    const topo::AsNumber asn = net_->topology().AsOfAddress(pair.egress);
    const gen::AsProfile& profile = net_->profile(asn);
    if (profile.invisible_tunnels() &&
        profile.popping == mpls::Popping::kPhp) {
      EXPECT_TRUE(revelation.succeeded())
          << "unrevealed PHP tunnel in AS" << asn;
    }
  }
}

TEST_F(CampaignTest, RevealedHopsAreTrueRouterAddressesOfTheSameAs) {
  for (const auto& [pair, revelation] : result_->revelations) {
    if (!revelation.succeeded()) continue;
    const topo::AsNumber asn = net_->topology().AsOfAddress(pair.egress);
    for (const netbase::Ipv4Address hop : revelation.revealed) {
      const auto router = net_->topology().FindRouterByAddress(hop);
      ASSERT_TRUE(router.has_value());
      EXPECT_EQ(net_->topology().router(*router).asn, asn);
    }
  }
}

TEST_F(CampaignTest, RevealedPathMatchesGroundTruthAdjacency) {
  // Consecutive revealed hops (plus the LER endpoints) must be physically
  // adjacent routers — the revelation reconstructs a real path.
  const topo::Topology& topology = net_->topology();
  const auto router_of = [&](netbase::Ipv4Address a) {
    return *topology.FindRouterByAddress(a);
  };
  const auto adjacent = [&](topo::RouterId a, topo::RouterId b) {
    for (const auto& [neighbor, link] : topology.Neighbors(a)) {
      if (neighbor == b) return true;
    }
    return false;
  };
  for (const auto& [pair, revelation] : result_->revelations) {
    if (!revelation.succeeded()) continue;
    std::vector<topo::RouterId> chain{router_of(pair.ingress)};
    for (const auto hop : revelation.revealed) {
      chain.push_back(router_of(hop));
    }
    chain.push_back(router_of(pair.egress));
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      EXPECT_TRUE(adjacent(chain[i], chain[i + 1]))
          << "non-adjacent revealed hop pair";
    }
  }
}

TEST_F(CampaignTest, MethodMixMatchesLdpPolicies) {
  // Cisco-profile (all-prefix) ASes must be peeled by BRPR, Juniper-profile
  // (loopback-only) ones by DPR; single-LSR tunnels stay ambiguous.
  for (const auto& [pair, revelation] : result_->revelations) {
    if (!revelation.succeeded()) continue;
    if (revelation.method == reveal::RevelationMethod::kEither) continue;
    const topo::AsNumber asn = net_->topology().AsOfAddress(pair.egress);
    const gen::AsProfile& profile = net_->profile(asn);
    if (profile.hardware == gen::HardwareProfile::kCisco) {
      EXPECT_EQ(revelation.method, reveal::RevelationMethod::kBrpr)
          << "AS" << asn;
    }
    if (profile.hardware == gen::HardwareProfile::kJuniper ||
        profile.hardware == gen::HardwareProfile::kMixed) {
      EXPECT_EQ(revelation.method, reveal::RevelationMethod::kDpr)
          << "AS" << asn;
    }
  }
}

TEST(CampaignFrpla, ShiftsPositiveOnRevealedEgresses) {
  // FRPLA needs egress LERs whose time-exceeded replies start at 255 — for
  // a <128,128> or <64,64> egress the return LSE-TTL (from 255) always
  // exceeds the reply's IP-TTL, the min rule never fires, and the return
  // tunnel stays uncounted (a real limitation, see Table 1 discussion).
  // Use a Cisco/Juniper world, as in the paper's Fig. 7.
  gen::InternetOptions options;
  options.seed = 7;
  options.cisco_weight = 0.55;
  options.juniper_weight = 0.45;
  options.mixed_weight = 0.0;
  options.other_weight = 0.0;
  gen::SyntheticInternet net(options);
  Campaign campaign(net.engine(), net.vantage_points(), {});
  const CampaignResult result = campaign.Run(net.AllLoopbacks());

  const auto egress =
      result.frpla.Combined(reveal::ResponderRole::kEgressRevealed);
  const auto others = result.frpla.Combined(reveal::ResponderRole::kOther);
  ASSERT_FALSE(egress.empty());
  ASSERT_FALSE(others.empty());
  // Fig. 7a: the egress PDF shifts right of the others.
  EXPECT_GE(egress.Median(), others.Median() + 1);
  EXPECT_GT(egress.Mean(), others.Mean());
  EXPECT_LE(std::abs(others.Mean()), 1.5);
}

TEST_F(CampaignTest, RtlaMatchesRevealedTunnelLengths) {
  // Fig. 9b: return tunnel length (RTLA) minus forward tunnel length
  // (revealed) centres near 0 when routing is near-symmetric.
  netbase::IntDistribution asymmetry;
  for (const CandidateRecord& record : result_->candidates) {
    if (!record.revealed || !record.egress_echo_ttl) continue;
    const auto obs = reveal::ObserveRtla(
        record.pair.egress, record.egress_return_ttl,
        *record.egress_echo_ttl);
    if (!obs) continue;
    asymmetry.Add(obs->return_tunnel_length() - record.revealed_count);
  }
  if (!asymmetry.empty()) {
    EXPECT_LE(std::abs(asymmetry.Median()), 1);
  }
}

TEST_F(CampaignTest, PathLengthsGrowAfterCorrection) {
  ASSERT_FALSE(result_->path_length_invisible.empty());
  EXPECT_GT(result_->path_length_visible.Mean(),
            result_->path_length_invisible.Mean());
}

TEST_F(CampaignTest, CorrectionReducesDegreeAndDensity) {
  const auto corrected = analysis::CorrectedCopy(
      result_->inferred, result_->revelations,
      TruthResolver(net_->topology()), net_->topology());
  // Max degree must not grow; at least one HDN deflates.
  const auto before = result_->inferred.DegreeDistribution();
  const auto after = corrected.DegreeDistribution();
  EXPECT_LE(after.Max(), before.Max());

  const auto rows = analysis::MakeDiscoveryTable(
      *result_, corrected, net_->topology(), 8);
  ASSERT_FALSE(rows.empty());
  bool any_denser_before = false;
  for (const auto& row : rows) {
    if (row.pct_revealed > 50.0 && row.density_before > row.density_after) {
      any_denser_before = true;
    }
  }
  EXPECT_TRUE(any_denser_before);
}

TEST_F(CampaignTest, DeploymentTableReflectsHardwareProfiles) {
  const auto rows =
      analysis::MakeDeploymentTable(*result_, net_->topology());
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    const gen::AsProfile& profile = net_->profile(row.asn);
    switch (profile.hardware) {
      case gen::HardwareProfile::kCisco:
        EXPECT_GT(row.pct_cisco, 80.0) << "AS" << row.asn;
        break;
      case gen::HardwareProfile::kJuniper:
        EXPECT_GT(row.pct_junos, 80.0) << "AS" << row.asn;
        break;
      case gen::HardwareProfile::kMixed:
        EXPECT_GT(row.pct_junos + row.pct_6464 + row.pct_cisco, 80.0);
        break;
      case gen::HardwareProfile::kOther:
        EXPECT_GT(row.pct_other + row.pct_6464, 50.0);
        break;
    }
    // Sane percentages.
    EXPECT_LE(row.pct_dpr + row.pct_brpr + row.pct_either + row.pct_hybrid,
              100.001);
  }
}

TEST_F(CampaignTest, DatasetBuilderPrunesPrivateAddressesAndGaps) {
  probe::TraceResult trace;
  trace.hops.resize(4);
  trace.hops[0] = {.probe_ttl = 1,
                   .address = netbase::Ipv4Address(5, 0, 0, 1)};
  trace.hops[1] = {.probe_ttl = 2,
                   .address = netbase::Ipv4Address(192, 168, 0, 1)};
  trace.hops[2] = {.probe_ttl = 3};  // timeout
  trace.hops[3] = {.probe_ttl = 4,
                   .address = netbase::Ipv4Address(5, 0, 0, 2)};
  topo::ItdkDataset dataset;
  const auto identity = [](netbase::Ipv4Address a) { return a; };
  AddTraceToDataset(dataset, trace, identity, net_->topology());
  EXPECT_EQ(dataset.node_count(), 2u);  // private hop pruned
  EXPECT_EQ(dataset.link_count(), 0u);  // gap broke adjacency
}

TEST(CampaignUhp, UhpSuspicionsPointAtUhpAses) {
  // Force a world with UHP clouds and check the duplicate-hop signal is
  // attributed to them (and overwhelmingly to actual UHP deployments).
  gen::InternetOptions options;
  options.seed = 5;
  options.tier1_count = 2;
  options.transit_count = 6;
  options.stub_count = 12;
  options.vp_count = 6;
  options.uhp_probability = 0.5;
  options.no_ttl_propagate_probability = 1.0;
  gen::SyntheticInternet net(options);
  bool has_uhp = false;
  for (const auto& [asn, profile] : net.profiles()) {
    if (profile.mpls && profile.popping == mpls::Popping::kUhp) {
      has_uhp = true;
    }
  }
  ASSERT_TRUE(has_uhp);

  Campaign campaign(net.engine(), net.vantage_points(), {});
  const auto result = campaign.Run(net.AllLoopbacks());
  ASSERT_FALSE(result.uhp_suspicions.empty());
  std::size_t at_uhp = 0, elsewhere = 0;
  for (const auto& [asn, count] : result.uhp_suspicions) {
    if (net.profile(asn).popping == mpls::Popping::kUhp &&
        net.profile(asn).mpls) {
      at_uhp += count;
    } else {
      elsewhere += count;
    }
  }
  EXPECT_GT(at_uhp, 0u);
  EXPECT_GT(at_uhp, elsewhere * 3);
}

TEST_F(CampaignTest, ReportContainsTheHeadlineSections) {
  std::stringstream report;
  analysis::WriteCampaignReport(report, *result_, net_->topology());
  const std::string text = report.str();
  for (const char* expected :
       {"campaign report", "Graph correction", "Discovery per AS",
        "Deployment per AS", "tunnels revealed", "forward tunnel length"}) {
    EXPECT_NE(text.find(expected), std::string::npos) << expected;
  }
}

TEST_F(CampaignTest, DistributionCsvIsWellFormed) {
  std::stringstream csv;
  analysis::WriteDistributionCsv(csv, result_->path_length_invisible);
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "value,count,pdf");
  std::size_t rows = 0;
  while (std::getline(csv, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2) << line;
    ++rows;
  }
  EXPECT_EQ(rows, result_->path_length_invisible.buckets().size());
}

TEST_F(CampaignTest, AliasResolutionMergesNodesAndLinks) {
  // Alias resolution can only merge: fewer (or equal) nodes and links than
  // the raw per-interface graph, and every interface-level address must
  // resolve into some truth-level node.
  const auto none = BuildDataset(result_->traces, InterfaceResolver(),
                                 net_->topology());
  const auto truth = BuildDataset(result_->traces,
                                  TruthResolver(net_->topology()),
                                  net_->topology());
  EXPECT_GE(none.node_count(), truth.node_count());
  EXPECT_GE(none.link_count(), truth.link_count());
  for (const topo::ItdkNode& node : none.nodes()) {
    EXPECT_TRUE(truth.FindNode(node.addresses.front()).has_value());
  }
}

TEST_F(CampaignTest, NoisyResolverInterpolatesBetweenExtremes) {
  const auto truth = BuildDataset(result_->traces,
                                  TruthResolver(net_->topology()),
                                  net_->topology());
  const auto noisy = BuildDataset(
      result_->traces, NoisyResolver(net_->topology(), 0.3, 1),
      net_->topology());
  const auto none = BuildDataset(result_->traces, InterfaceResolver(),
                                 net_->topology());
  EXPECT_GE(noisy.node_count(), truth.node_count());
  EXPECT_LE(noisy.node_count(), none.node_count());
  // Determinism: the same seed merges the same addresses.
  const auto again = BuildDataset(
      result_->traces, NoisyResolver(net_->topology(), 0.3, 1),
      net_->topology());
  EXPECT_EQ(noisy.node_count(), again.node_count());
  EXPECT_EQ(noisy.link_count(), again.link_count());
}

// --- Cross-validation (Table 3) ---------------------------------------------

TEST(CrossValidation, ValidatesDprAndBrprOnExplicitTunnels) {
  gen::SyntheticInternet net({.seed = 11});
  net.ForceTtlPropagation(true);

  std::vector<probe::Prober> probers;
  for (const auto vp : net.vantage_points()) {
    probers.emplace_back(net.engine(), vp);
  }
  // Collect explicit tunnels with plain traces to every loopback.
  std::vector<probe::TraceResult> traces;
  for (std::size_t i = 0; i < probers.size(); ++i) {
    for (const auto loopback : net.AllLoopbacks()) {
      traces.push_back(probers[i].Traceroute(loopback, {.first_ttl = 2}));
    }
  }
  const auto tunnels = ExtractExplicitTunnels(traces, net.topology());
  ASSERT_GT(tunnels.size(), 0u);

  const auto summary = CrossValidateAll(probers, tunnels, {.first_ttl = 2});
  EXPECT_EQ(summary.pairs_total, tunnels.size());
  // The bulk must validate: DPR on loopback-only ASes, BRPR on all-prefix
  // ones, "either" for single-LSR tunnels.
  const std::size_t ok =
      summary.dpr + summary.brpr + summary.either + summary.hybrid;
  EXPECT_GT(ok, 0u);
  EXPECT_GE(static_cast<double>(ok),
            0.8 * static_cast<double>(summary.validated()));
}

TEST(CrossValidation, ExtractsOnlySameAsCleanTunnels) {
  gen::SyntheticInternet net({.seed = 11});
  net.ForceTtlPropagation(true);
  probe::Prober prober(net.engine(), net.vantage_points().front());
  std::vector<probe::TraceResult> traces;
  for (const auto loopback : net.AllLoopbacks()) {
    traces.push_back(prober.Traceroute(loopback, {.first_ttl = 2}));
  }
  for (const auto& tunnel :
       ExtractExplicitTunnels(traces, net.topology())) {
    EXPECT_FALSE(tunnel.lsrs.empty());
    EXPECT_EQ(net.topology().AsOfAddress(tunnel.ingress), tunnel.asn);
    EXPECT_EQ(net.topology().AsOfAddress(tunnel.egress), tunnel.asn);
    for (const auto lsr : tunnel.lsrs) {
      EXPECT_EQ(net.topology().AsOfAddress(lsr), tunnel.asn);
    }
  }
}


std::string CampaignFingerprint(bool batched, std::size_t jobs) {
  gen::InternetOptions options;
  options.seed = 17;
  options.tier1_count = 2;
  options.transit_count = 4;
  options.stub_count = 10;
  options.vp_count = 3;
  options.anonymous_router_probability = 0.02;
  options.icmp_loss = 0.05;
  gen::SyntheticInternet net(options);
  Campaign campaign(net.engine(), net.vantage_points(),
                    {.batched_stepping = batched, .jobs = jobs});
  const CampaignResult result = campaign.Run(net.AllLoopbacks());
  const sim::EngineStats stats = net.engine().stats();
  std::ostringstream out;
  out << stats.packets_injected << " " << stats.hops_processed << " "
      << stats.icmp_generated << " " << stats.labels_pushed << " "
      << stats.labels_popped << " " << result.probes_sent << "\n";
  io::WriteTraces(out, result.traces);
  analysis::WriteCampaignReport(out, result, net.topology());
  return out.str();
}

TEST(BatchParity, CampaignIsByteIdenticalBatchedOrNot) {
  // CampaignOptions::batched_stepping is ignored, but the repository
  // benchmark still sets it: either value, at any job count, must give
  // the same traces, report, engine stats and probe count.
  const std::string sequential = CampaignFingerprint(false, 1);
  EXPECT_EQ(CampaignFingerprint(true, 1), sequential);
  EXPECT_EQ(CampaignFingerprint(true, 4), sequential);
}

}  // namespace
}  // namespace wormhole::campaign
