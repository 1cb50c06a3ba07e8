// Property-style parameterised sweeps:
//  * the full Table 2 visibility matrix (LDP policy × TTL policy × target),
//  * "revelation == ground truth" over seeds and configurations,
//  * traceroute/SPF consistency on random topologies.
#include <gtest/gtest.h>

#include <cstdint>

#include "gen/gns3.h"
#include "gen/internet.h"
#include "probe/prober.h"
#include "reveal/frpla.h"
#include "reveal/revelator.h"
#include "reveal/rtla.h"
#include "routing/igp.h"
#include "sim/network.h"

namespace wormhole {
namespace {

using gen::Gns3Scenario;
using topo::Vendor;

// --- Table 2: visibility matrix ---------------------------------------------

struct Table2Case {
  mpls::LdpPolicy ldp;
  bool ttl_propagate;
  bool external_target;  // CE2.left (external) vs PE2.left (internal)
  // expectations
  bool tunnel_visible;     // interior hops appear in the trace
  bool labels_quoted;      // RFC4950 LSEs in the trace
  bool shift;              // FRPLA-positive RFA at the egress
};

std::string CaseName(const ::testing::TestParamInfo<Table2Case>& info) {
  const auto& c = info.param;
  std::string name;
  name += c.ldp == mpls::LdpPolicy::kAllPrefixes ? "AllPrefixes" : "Loopback";
  name += c.ttl_propagate ? "Propagate" : "NoPropagate";
  name += c.external_target ? "External" : "Internal";
  return name;
}

class Table2Test : public ::testing::TestWithParam<Table2Case> {};

TEST_P(Table2Test, VisibilityMatrix) {
  const Table2Case& c = GetParam();
  // Build the Fig. 2 testbed with the exact knob combination.
  gen::Gns3Testbed testbed({.scenario = Gns3Scenario::kDefault});
  mpls::MplsConfigMap::AsOptions options;
  options.ttl_propagate = c.ttl_propagate;
  options.ldp_policy = c.ldp;
  auto& configs = testbed.configs();
  configs.EnableAs(2, options);
  testbed.Reconverge();

  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  const auto target =
      testbed.Address(c.external_target ? "CE2.left" : "PE2.left");
  const auto trace = prober.Traceroute(target);
  ASSERT_TRUE(trace.reached);

  // Interior visibility: do P1/P2/P3 appear?
  int interior = 0;
  for (const char* name : {"P1.left", "P2.left", "P3.left"}) {
    if (trace.HopOf(testbed.Address(name))) ++interior;
  }
  if (c.tunnel_visible) {
    EXPECT_GE(interior, c.external_target ? 3 : 1);
  } else {
    EXPECT_EQ(interior, 0);
  }
  EXPECT_EQ(trace.HasExplicitMpls(), c.labels_quoted);

  // FRPLA shift at the trace's last AS2 hop.
  const probe::Hop* egress_hop = nullptr;
  for (const auto& hop : trace.hops) {
    if (hop.address &&
        testbed.topology().AsOfAddress(*hop.address) == 2) {
      egress_hop = &hop;
    }
  }
  ASSERT_NE(egress_hop, nullptr);
  const auto rfa = reveal::ObserveRfa(*egress_hop);
  ASSERT_TRUE(rfa.has_value());
  if (c.shift) {
    EXPECT_GT(rfa->rfa(), 0);
  } else {
    EXPECT_LE(rfa->rfa(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VisibilityMatrix, Table2Test,
    ::testing::Values(
        // ttl-propagate: explicit LSP, no shift — both policies, both
        // targets (internal + loopback-only rides the plain IGP route:
        // visible but label-free).
        Table2Case{mpls::LdpPolicy::kAllPrefixes, true, true, true, true,
                   false},
        Table2Case{mpls::LdpPolicy::kAllPrefixes, true, false, true, true,
                   false},
        Table2Case{mpls::LdpPolicy::kLoopbacksOnly, true, true, true, true,
                   false},
        Table2Case{mpls::LdpPolicy::kLoopbacksOnly, true, false, true,
                   false, false},
        // no-ttl-propagate: invisible LSP + FRPLA shift for external
        // targets; internal targets leak the LH (all-prefix) or the whole
        // route (loopback-only).
        Table2Case{mpls::LdpPolicy::kAllPrefixes, false, true, false, false,
                   true},
        Table2Case{mpls::LdpPolicy::kAllPrefixes, false, false, true, false,
                   true},
        Table2Case{mpls::LdpPolicy::kLoopbacksOnly, false, true, false,
                   false, true},
        Table2Case{mpls::LdpPolicy::kLoopbacksOnly, false, false, true,
                   false, false}),
    CaseName);

// --- RTLA gap == true return tunnel length over tunnel lengths --------------

class RtlaSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(RtlaSweepTest, GapEqualsTunnelLength) {
  const int lsr_count = GetParam();
  // Chain: gw | in - m1 .. m<k> - out | dst, Juniper AS2, invisible.
  topo::Topology topology;
  topology.AddAs(1, "src");
  topology.AddAs(2, "mpls");
  topology.AddAs(3, "dst");
  const auto gw = topology.AddRouter(1, "gw", Vendor::kCiscoIos);
  const auto in = topology.AddRouter(2, "in", Vendor::kJuniperJunos);
  topo::RouterId previous = in;
  for (int i = 0; i < lsr_count; ++i) {
    const auto m = topology.AddRouter(2, "m" + std::to_string(i),
                                      Vendor::kJuniperJunos);
    topology.AddLink(previous, m);
    previous = m;
  }
  const auto out = topology.AddRouter(2, "out", Vendor::kJuniperJunos);
  topology.AddLink(previous, out);
  const auto dst = topology.AddRouter(3, "dst", Vendor::kCiscoIos);
  topology.AddLink(gw, in);
  topology.AddLink(out, dst);
  const auto vp = topology.AttachHost(gw, "VP");

  mpls::MplsConfigMap configs(topology);
  configs.EnableAs(2, {.ttl_propagate = false,
                       .ldp_policy = mpls::LdpPolicy::kAllPrefixes});
  sim::Network network(topology, configs,
                       routing::BgpPolicy{.stub_ases = {1, 3}});
  probe::Prober prober(network.engine(), vp);

  const auto trace = prober.Traceroute(topology.router(dst).loopback);
  ASSERT_TRUE(trace.reached);
  // The egress "out" is the last AS2 hop.
  const probe::Hop* egress_hop = nullptr;
  for (const auto& hop : trace.hops) {
    if (hop.address && topology.AsOfAddress(*hop.address) == 2) {
      egress_hop = &hop;
    }
  }
  ASSERT_NE(egress_hop, nullptr);
  const auto ping = prober.Ping(*egress_hop->address);
  ASSERT_TRUE(ping.responded);
  const auto obs = reveal::ObserveRtla(
      *egress_hop->address, egress_hop->reply_ip_ttl, ping.reply_ip_ttl);
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->return_tunnel_length(), lsr_count);
}

INSTANTIATE_TEST_SUITE_P(TunnelLengths, RtlaSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

// --- BRPR/DPR vs ground truth over tunnel lengths and policies --------------

// gtest names each case after the parameter's raw bytes, so the bytes that
// would otherwise be padding are spelled out and always zero; left as
// padding they held stack garbage and the test names changed run to run.
struct RevealCase {
  int lsr_count;
  mpls::LdpPolicy ldp;
  std::uint8_t zero[3] = {};
};
static_assert(sizeof(RevealCase) == 8, "RevealCase must have no padding");

class RevealSweepTest : public ::testing::TestWithParam<RevealCase> {};

TEST_P(RevealSweepTest, RevealsExactlyTheHiddenChain) {
  const int lsr_count = GetParam().lsr_count;
  const mpls::LdpPolicy ldp = GetParam().ldp;
  topo::Topology topology;
  topology.AddAs(1, "src");
  topology.AddAs(2, "mpls");
  topology.AddAs(3, "dst");
  const auto gw = topology.AddRouter(1, "gw", Vendor::kCiscoIos);
  const auto in = topology.AddRouter(2, "in", Vendor::kCiscoIos);
  std::vector<topo::RouterId> lsrs;
  topo::RouterId previous = in;
  for (int i = 0; i < lsr_count; ++i) {
    lsrs.push_back(topology.AddRouter(2, "m" + std::to_string(i),
                                      Vendor::kCiscoIos));
    topology.AddLink(previous, lsrs.back());
    previous = lsrs.back();
  }
  const auto out = topology.AddRouter(2, "out", Vendor::kCiscoIos);
  topology.AddLink(previous, out);
  const auto dst = topology.AddRouter(3, "dst", Vendor::kCiscoIos);
  topology.AddLink(gw, in);
  topology.AddLink(out, dst);
  const auto vp = topology.AttachHost(gw, "VP");

  mpls::MplsConfigMap configs(topology);
  configs.EnableAs(2, {.ttl_propagate = false, .ldp_policy = ldp});
  sim::Network network(topology, configs,
                       routing::BgpPolicy{.stub_ases = {1, 3}});
  probe::Prober prober(network.engine(), vp);

  // The invisible trace shows in, out adjacent.
  const auto trace = prober.Traceroute(topology.router(dst).loopback);
  ASSERT_TRUE(trace.reached);
  const auto last3 = trace.LastResponders(3);
  ASSERT_EQ(last3.size(), 3u);

  reveal::Revelator revelator(prober);
  const auto result = revelator.Reveal(last3[0], last3[1]);
  ASSERT_TRUE(result.succeeded());
  ASSERT_EQ(result.revealed.size(), static_cast<std::size_t>(lsr_count));
  for (int i = 0; i < lsr_count; ++i) {
    const auto owner = topology.FindRouterByAddress(
        result.revealed[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(*owner, lsrs[static_cast<std::size_t>(i)])
        << "hop " << i << " mismatched";
  }
  // Method matches the LDP policy (single-LSR tunnels stay ambiguous).
  if (lsr_count > 1) {
    EXPECT_EQ(result.method, ldp == mpls::LdpPolicy::kAllPrefixes
                                 ? reveal::RevelationMethod::kBrpr
                                 : reveal::RevelationMethod::kDpr);
  } else {
    EXPECT_EQ(result.method, reveal::RevelationMethod::kEither);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chains, RevealSweepTest,
    ::testing::Values(RevealCase{1, mpls::LdpPolicy::kAllPrefixes},
                      RevealCase{2, mpls::LdpPolicy::kAllPrefixes},
                      RevealCase{4, mpls::LdpPolicy::kAllPrefixes},
                      RevealCase{7, mpls::LdpPolicy::kAllPrefixes},
                      RevealCase{1, mpls::LdpPolicy::kLoopbacksOnly},
                      RevealCase{2, mpls::LdpPolicy::kLoopbacksOnly},
                      RevealCase{4, mpls::LdpPolicy::kLoopbacksOnly},
                      RevealCase{7, mpls::LdpPolicy::kLoopbacksOnly}));

// --- UHP sweep: total invisibility scales with tunnel length ----------------

class UhpSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(UhpSweepTest, UhpHidesInteriorPlusEgressAndResistsRevelation) {
  const int lsr_count = GetParam();
  topo::Topology topology;
  topology.AddAs(1, "src");
  topology.AddAs(2, "uhp");
  topology.AddAs(3, "dst");
  const auto gw = topology.AddRouter(1, "gw", Vendor::kCiscoIos);
  const auto in = topology.AddRouter(2, "in", Vendor::kCiscoIos);
  topo::RouterId previous = in;
  for (int i = 0; i < lsr_count; ++i) {
    const auto m = topology.AddRouter(2, "m" + std::to_string(i),
                                      Vendor::kCiscoIos);
    topology.AddLink(previous, m);
    previous = m;
  }
  const auto out = topology.AddRouter(2, "out", Vendor::kCiscoIos);
  topology.AddLink(previous, out);
  const auto dst = topology.AddRouter(3, "dst", Vendor::kCiscoIos);
  topology.AddLink(gw, in);
  topology.AddLink(out, dst);
  const auto vp = topology.AttachHost(gw, "VP");

  mpls::MplsConfigMap configs(topology);
  configs.EnableAs(2, {.ttl_propagate = false,
                       .popping = mpls::Popping::kUhp});
  sim::Network network(topology, configs,
                       routing::BgpPolicy{.stub_ases = {1, 3}});
  probe::Prober prober(network.engine(), vp);

  const auto trace = prober.Traceroute(topology.router(dst).loopback);
  ASSERT_TRUE(trace.reached);
  // Physical path: gw, in, m*, out, dst = lsr_count + 4 routers; observed:
  // gw, in, dst — the k LSRs AND the egress disappear, regardless of k.
  std::vector<topo::RouterId> responders;
  for (const auto& hop : trace.hops) {
    if (hop.address) {
      responders.push_back(*topology.FindRouterByAddress(*hop.address));
    }
  }
  EXPECT_EQ(responders, (std::vector<topo::RouterId>{gw, in, dst}));

  // And nothing can be revealed between the apparent neighbors.
  const auto last3 = trace.LastResponders(3);
  ASSERT_EQ(last3.size(), 3u);
  reveal::Revelator revelator(prober);
  EXPECT_FALSE(revelator.Reveal(last3[0], last3[1]).succeeded());
}

INSTANTIATE_TEST_SUITE_P(TunnelLengths, UhpSweepTest,
                         ::testing::Values(1, 2, 4, 7, 11));

// --- traceroute vs SPF on random internets ----------------------------------

class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, TraceLengthMatchesSpfWithoutMpls) {
  // Disable MPLS entirely: traceroute hop counts must equal the routing
  // distance (intra-AS SPF hops + inter-AS segments).
  gen::InternetOptions options;
  options.seed = GetParam();
  options.tier1_count = 2;
  options.transit_count = 3;
  options.stub_count = 8;
  options.mpls_probability = 0.0;
  options.vp_count = 2;
  gen::SyntheticInternet net(options);
  probe::Prober prober(net.engine(), net.vantage_points().front());

  int checked = 0;
  for (const auto loopback : net.AllLoopbacks()) {
    const auto trace = prober.Traceroute(loopback);
    if (!trace.reached) continue;
    ++checked;
    // Monotone hop numbering with no repeats.
    std::set<netbase::Ipv4Address> seen;
    for (const auto& hop : trace.hops) {
      if (!hop.address) continue;
      EXPECT_TRUE(seen.insert(*hop.address).second)
          << "address repeated in trace (loop?)";
    }
  }
  EXPECT_GT(checked, 0);
}

TEST_P(SeedSweepTest, InvisibleTunnelsOnlyShortenPaths) {
  gen::InternetOptions options;
  options.seed = GetParam();
  options.tier1_count = 2;
  options.transit_count = 3;
  options.stub_count = 8;
  options.vp_count = 2;
  options.no_ttl_propagate_probability = 1.0;  // every MPLS AS invisible
  options.uhp_probability = 0.0;
  gen::SyntheticInternet net(options);

  // Compare observed lengths against the same world with tunnels forced
  // visible: hidden <= visible, per destination.
  probe::Prober hidden_prober(net.engine(), net.vantage_points().front());
  std::map<netbase::Ipv4Address, int> hidden_lengths;
  for (const auto loopback : net.AllLoopbacks()) {
    const auto trace = hidden_prober.Traceroute(loopback);
    if (trace.reached) hidden_lengths[loopback] = trace.LastRespondingTtl();
  }
  net.ForceTtlPropagation(true);
  probe::Prober visible_prober(net.engine(), net.vantage_points().front());
  int compared = 0;
  int strictly_shorter = 0;
  for (const auto& [loopback, hidden_length] : hidden_lengths) {
    const auto trace = visible_prober.Traceroute(loopback);
    if (!trace.reached) continue;
    ++compared;
    EXPECT_LE(hidden_length, trace.LastRespondingTtl());
    if (hidden_length < trace.LastRespondingTtl()) ++strictly_shorter;
  }
  EXPECT_GT(compared, 0);
  EXPECT_GT(strictly_shorter, 0);  // some tunnel actually hid hops
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace wormhole
