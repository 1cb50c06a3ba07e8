// The UHP duplicate-hop trigger: detection on synthetic traces, on the
// simulated data plane, and its absence in every non-UHP configuration.
#include <gtest/gtest.h>

#include <string>

#include "gen/gns3.h"
#include "mpls/config.h"
#include "probe/prober.h"
#include "reveal/uhp_trigger.h"
#include "sim/network.h"

namespace wormhole::reveal {
namespace {

using netbase::Ipv4Address;

probe::Hop MakeHop(int ttl, std::optional<Ipv4Address> address) {
  probe::Hop hop;
  hop.probe_ttl = ttl;
  hop.address = address;
  return hop;
}

TEST(UhpTrigger, DetectsConsecutiveDuplicates) {
  probe::TraceResult trace;
  const Ipv4Address a(5, 0, 0, 1), b(5, 0, 0, 2), c(5, 0, 0, 3);
  trace.hops = {MakeHop(1, a), MakeHop(2, b), MakeHop(3, b), MakeHop(4, c)};
  const auto suspicions = DetectUhpSuspicions(trace);
  ASSERT_EQ(suspicions.size(), 1u);
  EXPECT_EQ(suspicions[0].duplicate, b);
  EXPECT_EQ(suspicions[0].first_ttl, 2);
  ASSERT_TRUE(suspicions[0].before.has_value());
  EXPECT_EQ(*suspicions[0].before, a);
  EXPECT_TRUE(LooksLikeUhp(trace));
}

TEST(UhpTrigger, IgnoresNonAdjacentRepeatsAndTimeouts) {
  probe::TraceResult trace;
  const Ipv4Address a(5, 0, 0, 1), b(5, 0, 0, 2);
  // a ... b ... a again (a loop, not UHP), and b * b (timeout between).
  trace.hops = {MakeHop(1, a), MakeHop(2, b), MakeHop(3, a),
                MakeHop(4, b),  MakeHop(5, std::nullopt), MakeHop(6, b)};
  EXPECT_TRUE(DetectUhpSuspicions(trace).empty());
  EXPECT_FALSE(LooksLikeUhp(trace));
}

TEST(UhpTrigger, TripleAnswerYieldsTwoSuspicions) {
  probe::TraceResult trace;
  const Ipv4Address a(5, 0, 0, 1), b(5, 0, 0, 2);
  trace.hops = {MakeHop(1, a), MakeHop(2, b), MakeHop(3, b), MakeHop(4, b)};
  EXPECT_EQ(DetectUhpSuspicions(trace).size(), 2u);
}

// End-to-end: the simulated UHP cloud produces the signature; every other
// configuration does not.
TEST(UhpTrigger, FiresOnSimulatedUhpCloud) {
  topo::Topology topology;
  topology.AddAs(1, "src");
  topology.AddAs(2, "uhp");
  topology.AddAs(3, "dst");
  const auto gw = topology.AddRouter(1, "gw", topo::Vendor::kCiscoIos);
  const auto in = topology.AddRouter(2, "in", topo::Vendor::kCiscoIos);
  const auto m = topology.AddRouter(2, "m", topo::Vendor::kCiscoIos);
  const auto out = topology.AddRouter(2, "out", topo::Vendor::kCiscoIos);
  const auto d1 = topology.AddRouter(3, "d1", topo::Vendor::kCiscoIos);
  const auto d2 = topology.AddRouter(3, "d2", topo::Vendor::kCiscoIos);
  topology.AddLink(gw, in);
  topology.AddLink(in, m);
  topology.AddLink(m, out);
  topology.AddLink(out, d1);
  topology.AddLink(d1, d2);
  const auto vp = topology.AttachHost(gw, "VP");
  mpls::MplsConfigMap configs(topology);
  configs.EnableAs(2, {.ttl_propagate = false,
                       .popping = mpls::Popping::kUhp});
  sim::Network network(topology, configs,
                       routing::BgpPolicy{.stub_ases = {1, 3}});
  probe::Prober prober(network.engine(), vp);

  const auto trace = prober.Traceroute(topology.router(d2).loopback);
  const auto suspicions = DetectUhpSuspicions(trace);
  ASSERT_EQ(suspicions.size(), 1u);
  EXPECT_EQ(topology.FindRouterByAddress(suspicions[0].duplicate),
            std::optional<topo::RouterId>(d1));
  // The hop before the duplicate is the Ingress LER (the cloud hid
  // everything after it).
  ASSERT_TRUE(suspicions[0].before.has_value());
  EXPECT_EQ(topology.FindRouterByAddress(*suspicions[0].before),
            std::optional<topo::RouterId>(in));
}

class NonUhpScenarios
    : public ::testing::TestWithParam<gen::Gns3Scenario> {};

TEST_P(NonUhpScenarios, NeverFireTheUhpTrigger) {
  gen::Gns3Testbed testbed({.scenario = GetParam()});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  for (const char* target : {"CE2.left", "PE2.left", "P2.left"}) {
    EXPECT_FALSE(
        LooksLikeUhp(prober.Traceroute(testbed.Address(target))))
        << target;
  }
}

// Each case is named after its scenario ("BackwardRecursive"): the name
// says what it runs and stays put when a scenario is added.
std::string ScenarioName(
    const ::testing::TestParamInfo<gen::Gns3Scenario>& info) {
  std::string name = gen::ToString(info.param);
  std::erase(name, ' ');
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, NonUhpScenarios,
    ::testing::Values(gen::Gns3Scenario::kDefault,
                      gen::Gns3Scenario::kBackwardRecursive,
                      gen::Gns3Scenario::kExplicitRoute),
    ScenarioName);

}  // namespace
}  // namespace wormhole::reveal
