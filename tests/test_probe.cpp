// Unit tests for the probe module's trace utilities and prober behaviour.
#include <gtest/gtest.h>

#include "gen/gns3.h"
#include "gen/internet.h"
#include "probe/prober.h"
#include "probe/trace.h"

namespace wormhole::probe {
namespace {

using netbase::Ipv4Address;
using netbase::PacketKind;

TEST(TraceUtil, InferInitialTtlRoundsUp) {
  EXPECT_EQ(InferInitialTtl(1), 64);
  EXPECT_EQ(InferInitialTtl(64), 64);
  EXPECT_EQ(InferInitialTtl(65), 128);
  EXPECT_EQ(InferInitialTtl(128), 128);
  EXPECT_EQ(InferInitialTtl(129), 255);
  EXPECT_EQ(InferInitialTtl(255), 255);
}

TEST(TraceUtil, PathLengthFromTtl) {
  EXPECT_EQ(PathLengthFromTtl(255), 0);
  EXPECT_EQ(PathLengthFromTtl(250), 5);
  EXPECT_EQ(PathLengthFromTtl(60), 4);
  EXPECT_EQ(PathLengthFromTtl(120), 8);
}

TraceResult MakeTrace() {
  TraceResult trace;
  trace.target = Ipv4Address(9, 0, 0, 1);
  for (int i = 1; i <= 5; ++i) {
    Hop hop;
    hop.probe_ttl = i;
    if (i != 3) {  // hop 3 times out
      hop.address = Ipv4Address(5, 0, 0, static_cast<uint8_t>(i));
      hop.reply_kind = i == 5 ? PacketKind::kEchoReply
                              : PacketKind::kTimeExceeded;
      hop.reply_ip_ttl = 255 - i;
    }
    trace.hops.push_back(hop);
  }
  trace.reached = true;
  return trace;
}

TEST(TraceResult, HopOfFindsAddresses) {
  const TraceResult trace = MakeTrace();
  EXPECT_EQ(trace.HopOf(Ipv4Address(5, 0, 0, 2)), std::optional<int>(2));
  EXPECT_FALSE(trace.HopOf(Ipv4Address(5, 0, 0, 3)).has_value());
}

TEST(TraceResult, LastRespondersSkipsTimeouts) {
  const TraceResult trace = MakeTrace();
  const auto last3 = trace.LastResponders(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3[0], Ipv4Address(5, 0, 0, 2));
  EXPECT_EQ(last3[1], Ipv4Address(5, 0, 0, 4));
  EXPECT_EQ(last3[2], Ipv4Address(5, 0, 0, 5));
  EXPECT_EQ(trace.LastResponders(10).size(), 4u);
}

TEST(TraceResult, LastRespondingTtl) {
  const TraceResult trace = MakeTrace();
  EXPECT_EQ(trace.LastRespondingTtl(), 5);
  TraceResult empty;
  EXPECT_EQ(empty.LastRespondingTtl(), 0);
}

TEST(TraceResult, FormatRendersTimeoutsAndLabels) {
  TraceResult trace = MakeTrace();
  trace.hops[1].labels = {{19, 0, true, 1}};
  const std::string out =
      trace.Format([](Ipv4Address a) { return a.ToString(); });
  EXPECT_NE(out.find("*"), std::string::npos);
  EXPECT_NE(out.find("Label 19 TTL=1"), std::string::npos);
  EXPECT_NE(out.find("[253]"), std::string::npos);
}

TEST(Prober, RejectsNonHostVantagePoint) {
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  EXPECT_THROW(
      Prober(testbed.engine(), testbed.Address("PE1.left")),
      std::invalid_argument);
}

TEST(Prober, FirstTtlSkipsNearHops) {
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  Prober prober(testbed.engine(), testbed.vantage_point());
  const auto trace = prober.Traceroute(testbed.Address("CE2.left"),
                                       {.first_ttl = 3});
  ASSERT_FALSE(trace.hops.empty());
  EXPECT_EQ(trace.hops.front().probe_ttl, 3);
  EXPECT_TRUE(trace.reached);
}

TEST(Prober, GapLimitStopsAfterSilence) {
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  Prober prober(testbed.engine(), testbed.vantage_point());
  // An address inside AS2's block that routes (covered by the /16 via
  // BGP from AS1... it does not route internally — dest unreachable) —
  // use an address outside every block instead: no route at the gateway.
  const auto trace =
      prober.Traceroute(Ipv4Address(200, 0, 0, 1), {.gap_limit = 3});
  // The gateway answers destination-unreachable immediately: trace ends.
  EXPECT_TRUE(trace.unreachable || trace.hops.size() <= 4u);
}

TEST(Prober, MaxTtlBoundsTheTrace) {
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  Prober prober(testbed.engine(), testbed.vantage_point());
  const auto trace = prober.Traceroute(testbed.Address("CE2.left"),
                                       {.max_ttl = 3});
  EXPECT_FALSE(trace.reached);
  EXPECT_LE(trace.hops.size(), 3u);
}

TEST(Prober, CountsProbes) {
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  Prober prober(testbed.engine(), testbed.vantage_point());
  EXPECT_EQ(prober.probes_sent(), 0u);
  prober.Ping(testbed.Address("PE1.left"));
  EXPECT_EQ(prober.probes_sent(), 1u);
  const auto trace = prober.Traceroute(testbed.Address("CE2.left"));
  EXPECT_EQ(prober.probes_sent(), 1u + trace.hops.size());
}


TEST(BatchParity, BatchedTracerMatchesSequentialTracer) {
  // TraceOptions::batched is ignored (every trace steps through
  // Engine::Send with the prober's forward cursor), but the repository
  // benchmark still sets it, so setting it must not move a byte: same
  // hops, probe count and probe-id stream, under simulated ICMP loss where
  // any shift in the probe ids would change every later loss draw.
  gen::SyntheticInternet net({.seed = 31, .icmp_loss = 0.08});
  const auto loopbacks = net.AllLoopbacks();
  Prober sequential(net.engine(), net.vantage_points().front());
  Prober batched(net.engine(), net.vantage_points().front());
  TraceOptions batched_options;
  batched_options.batched = true;
  for (std::size_t t = 0; t < loopbacks.size(); t += 5) {
    const auto a = sequential.Traceroute(loopbacks[t]);
    const auto b = batched.Traceroute(loopbacks[t], batched_options);
    ASSERT_EQ(a.hops.size(), b.hops.size()) << "target " << t;
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].probe_ttl, b.hops[h].probe_ttl);
      EXPECT_EQ(a.hops[h].address, b.hops[h].address);
      EXPECT_EQ(a.hops[h].reply_kind, b.hops[h].reply_kind);
      EXPECT_EQ(a.hops[h].reply_ip_ttl, b.hops[h].reply_ip_ttl);
      EXPECT_EQ(a.hops[h].labels, b.hops[h].labels);
      EXPECT_EQ(a.hops[h].rtt_ms, b.hops[h].rtt_ms);
    }
    EXPECT_EQ(a.reached, b.reached);
    EXPECT_EQ(a.unreachable, b.unreachable);
    ASSERT_EQ(sequential.probes_sent(), batched.probes_sent())
        << "probe-id streams diverged at target " << t;
  }
}

}  // namespace
}  // namespace wormhole::probe
