// Mixed-control-plane integration: ECMP inside invisible tunnels, and
// LDP + RSVP-TE + SR coexisting in one domain (their label spaces must
// never collide and each steering mechanism must win where configured).
#include <gtest/gtest.h>

#include <string>

#include "mpls/rsvp_te.h"
#include "mpls/segment_routing.h"
#include "probe/multipath.h"
#include "probe/prober.h"
#include "reveal/revelator.h"
#include "sim/network.h"
#include "topo/topology.h"

namespace wormhole {
namespace {

using topo::RouterId;
using topo::Vendor;

// gw | in -< a | b >- out | dst : an ECMP diamond *inside* the cloud.
struct DiamondTunnel {
  topo::Topology topology;
  std::unique_ptr<mpls::MplsConfigMap> configs;
  std::unique_ptr<sim::Network> network;
  netbase::Ipv4Address vp;
  RouterId gw, in, a, b, out, dst;

  explicit DiamondTunnel(mpls::LdpPolicy ldp) {
    topology.AddAs(1, "src");
    topology.AddAs(2, "mpls");
    topology.AddAs(3, "dst");
    gw = topology.AddRouter(1, "gw", Vendor::kCiscoIos);
    in = topology.AddRouter(2, "in", Vendor::kCiscoIos);
    a = topology.AddRouter(2, "a", Vendor::kCiscoIos);
    b = topology.AddRouter(2, "b", Vendor::kCiscoIos);
    out = topology.AddRouter(2, "out", Vendor::kCiscoIos);
    dst = topology.AddRouter(3, "dst", Vendor::kCiscoIos);
    topology.AddLink(gw, in);
    topology.AddLink(in, a);
    topology.AddLink(in, b);
    topology.AddLink(a, out);
    topology.AddLink(b, out);
    topology.AddLink(out, dst);
    vp = topology.AttachHost(gw, "VP");
    configs = std::make_unique<mpls::MplsConfigMap>(topology);
    configs->EnableAs(2, {.ttl_propagate = false, .ldp_policy = ldp});
    network = std::make_unique<sim::Network>(
        topology, *configs, routing::BgpPolicy{.stub_ases = {1, 3}});
  }
};

class DiamondTunnelTest
    : public ::testing::TestWithParam<mpls::LdpPolicy> {};

TEST_P(DiamondTunnelTest, RevelationFindsOneOfTheEcmpBranches) {
  DiamondTunnel world(GetParam());
  probe::Prober prober(world.network->engine(), world.vp);
  const auto trace =
      prober.Traceroute(world.topology.router(world.dst).loopback);
  ASSERT_TRUE(trace.reached);
  const auto last3 = trace.LastResponders(3);
  ASSERT_EQ(last3.size(), 3u);

  reveal::Revelator revelator(prober);
  const auto result = revelator.Reveal(last3[0], last3[1]);
  ASSERT_TRUE(result.succeeded());
  ASSERT_EQ(result.revealed.size(), 1u);
  const auto lsr = world.topology.FindRouterByAddress(result.revealed[0]);
  ASSERT_TRUE(lsr.has_value());
  EXPECT_TRUE(*lsr == world.a || *lsr == world.b);
}

TEST_P(DiamondTunnelTest, MultipathEnumerationSeesBothHiddenBranches) {
  // With the tunnel forced visible, flow variation must expose both
  // equal-cost interiors.
  DiamondTunnel world(GetParam());
  for (const topo::Router& router : world.topology.routers()) {
    if (router.asn == 2) {
      world.configs->Mutable(router.id).ttl_propagate = true;
    }
  }
  world.network = std::make_unique<sim::Network>(
      world.topology, *world.configs,
      routing::BgpPolicy{.stub_ases = {1, 3}});
  probe::Prober prober(world.network->engine(), world.vp);
  const auto result = probe::EnumeratePaths(
      prober, world.topology.router(world.dst).loopback, {.flows = 32});
  EXPECT_EQ(result.distinct_paths(), 2u);
}

// Each case is named after its LDP policy ("LoopbacksOnly").
std::string PolicyName(const ::testing::TestParamInfo<mpls::LdpPolicy>& info) {
  switch (info.param) {
    case mpls::LdpPolicy::kAllPrefixes: return "AllPrefixes";
    case mpls::LdpPolicy::kLoopbacksOnly: return "LoopbacksOnly";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(Policies, DiamondTunnelTest,
                         ::testing::Values(mpls::LdpPolicy::kAllPrefixes,
                                           mpls::LdpPolicy::kLoopbacksOnly),
                         PolicyName);

TEST(MixedControlPlanes, LdpTeAndSrCoexist) {
  // One AS, three steering mechanisms: LDP carries plain traffic, a TE
  // tunnel pins prefix T, an SR policy pins prefix S. Ring topology so the
  // explicit routes differ from the IGP path.
  topo::Topology topology;
  topology.AddAs(1, "src");
  topology.AddAs(2, "mpls");
  topology.AddAs(3, "dstT");
  topology.AddAs(4, "dstS");
  topology.AddAs(5, "dstL");
  const auto gw = topology.AddRouter(1, "gw", Vendor::kCiscoIos);
  const auto in = topology.AddRouter(2, "in", Vendor::kCiscoIos);
  const auto u1 = topology.AddRouter(2, "u1", Vendor::kCiscoIos);
  const auto u2 = topology.AddRouter(2, "u2", Vendor::kCiscoIos);
  const auto d1 = topology.AddRouter(2, "d1", Vendor::kCiscoIos);
  const auto d2 = topology.AddRouter(2, "d2", Vendor::kCiscoIos);
  const auto out = topology.AddRouter(2, "out", Vendor::kCiscoIos);
  const auto t = topology.AddRouter(3, "t", Vendor::kCiscoIos);
  const auto s = topology.AddRouter(4, "s", Vendor::kCiscoIos);
  const auto l = topology.AddRouter(5, "l", Vendor::kCiscoIos);
  topology.AddLink(gw, in);
  // Upper path (2 hops) and lower path (2 hops) to out; IGP prefers the
  // direct middle link.
  topology.AddLink(in, u1);
  topology.AddLink(u1, u2);
  topology.AddLink(u2, out);
  topology.AddLink(in, d1);
  topology.AddLink(d1, d2);
  topology.AddLink(d2, out);
  topology.AddLink(in, out);  // the IGP shortcut
  topology.AddLink(out, t);
  topology.AddLink(out, s);
  topology.AddLink(out, l);
  const auto vp = topology.AttachHost(gw, "VP");

  mpls::MplsConfigMap configs(topology);
  configs.EnableAs(2, {.ttl_propagate = true,
                       .ldp_policy = mpls::LdpPolicy::kAllPrefixes});

  mpls::TeDatabase te;
  mpls::TeTunnelSpec te_spec;
  te_spec.path = {in, u1, u2, out};
  te_spec.steered_prefixes = {topology.as(3).block};
  te.AddTunnel(topology, te_spec);

  mpls::SrDatabase sr;
  sr.EnableAs(topology, 2);
  mpls::SrPolicy sr_policy;
  sr_policy.ingress = in;
  sr_policy.prefix = topology.as(4).block;
  sr_policy.waypoints = {d2, out};
  sr.AddPolicy(topology, sr_policy);

  sim::Network network(topology, configs,
                       routing::BgpPolicy{.stub_ases = {1, 3, 4, 5}},
                       sim::EngineOptions{}, &te, &sr);
  probe::Prober prober(network.engine(), vp);

  const auto path_names = [&](netbase::Ipv4Address target) {
    std::vector<std::string> names;
    for (const auto& hop : prober.Traceroute(target).hops) {
      if (hop.address) {
        names.push_back(
            topology.router(*topology.FindRouterByAddress(*hop.address))
                .name);
      }
    }
    return names;
  };

  // TE traffic detours over the upper ring.
  EXPECT_EQ(path_names(topology.router(t).loopback),
            (std::vector<std::string>{"gw", "in", "u1", "u2", "out", "t"}));
  // SR traffic detours over the lower ring.
  EXPECT_EQ(path_names(topology.router(s).loopback),
            (std::vector<std::string>{"gw", "in", "d1", "d2", "out", "s"}));
  // Plain (LDP) traffic takes the IGP shortcut.
  EXPECT_EQ(path_names(topology.router(l).loopback),
            (std::vector<std::string>{"gw", "in", "out", "l"}));
}

}  // namespace
}  // namespace wormhole
