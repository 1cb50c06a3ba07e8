// Trace persistence round-trips.
#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "gen/gns3.h"
#include "io/tracefile.h"
#include "netbase/rng.h"
#include "probe/prober.h"

namespace wormhole::io {
namespace {

TEST(Tracefile, RoundTripsRealTraces) {
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  std::vector<probe::TraceResult> traces;
  traces.push_back(prober.Traceroute(testbed.Address("CE2.left")));
  traces.push_back(prober.Traceroute(testbed.Address("P2.left")));
  traces.push_back(
      prober.Traceroute(testbed.Address("PE2.left"), {.flow_id = 9}));

  std::stringstream ss;
  WriteTraces(ss, traces);
  const auto back = ReadTraces(ss);

  ASSERT_EQ(back.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto& a = traces[i];
    const auto& b = back[i];
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.flow_id, b.flow_id);
    EXPECT_EQ(a.reached, b.reached);
    EXPECT_EQ(a.unreachable, b.unreachable);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].probe_ttl, b.hops[h].probe_ttl);
      EXPECT_EQ(a.hops[h].address, b.hops[h].address);
      EXPECT_EQ(a.hops[h].reply_kind, b.hops[h].reply_kind);
      EXPECT_EQ(a.hops[h].reply_ip_ttl, b.hops[h].reply_ip_ttl);
      EXPECT_EQ(a.hops[h].labels, b.hops[h].labels);
      EXPECT_NEAR(a.hops[h].rtt_ms, b.hops[h].rtt_ms, 1e-3);
    }
  }
}

TEST(Tracefile, RoundTripsTimeoutsAndLabels) {
  probe::TraceResult trace;
  trace.source = netbase::Ipv4Address(5, 0, 0, 1);
  trace.target = netbase::Ipv4Address(5, 1, 0, 1);
  trace.flow_id = 17;
  probe::Hop silent;
  silent.probe_ttl = 1;
  trace.hops.push_back(silent);
  probe::Hop labeled;
  labeled.probe_ttl = 2;
  labeled.address = netbase::Ipv4Address(5, 0, 0, 9);
  labeled.reply_kind = netbase::PacketKind::kTimeExceeded;
  labeled.reply_ip_ttl = 247;
  labeled.labels = {{19, 0, true, 1}, {24, 0, false, 3}};
  trace.hops.push_back(labeled);

  std::stringstream ss;
  WriteTrace(ss, trace);
  const auto back = ReadTraces(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_FALSE(back[0].hops[0].address.has_value());
  ASSERT_EQ(back[0].hops[1].labels.size(), 2u);
  EXPECT_EQ(back[0].hops[1].labels[0].label, 19u);
  EXPECT_EQ(back[0].hops[1].labels[1].ttl, 3);
}

TEST(Tracefile, RejectsMalformedInput) {
  const std::string open = "# header\nT 5.0.0.1 5.0.0.2 0 1 0\n";
  const struct {
    std::string text;
    std::string error;
  } kCases[] = {
      {"H 1 5.0.0.1 x 255 0.1\n", "line 1: H record outside trace"},
      {"T 5.0.0.1 5.0.0.2 0 1 0\nT 5.0.0.1 5.0.0.2 0 1 0\n",
       "line 2: nested trace record"},
      {open, "line 2: unterminated trace record"},
      {"T bogus 5.0.0.2 0 1 0\n.\n", "line 1: bad address 'bogus'"},
      {"T 5.0.0.1 5.0.0.2 0 1\n.\n", "line 1: T record needs 5 fields"},
      {"T 5.0.0.1 5.0.0.2 0 1 0 9\n.\n", "line 1: T record needs 5 fields"},
      {"T 5.0.0.1 5.0.0.2 70000 1 0\n.\n", "line 1: bad flow id '70000'"},
      {"T 5.0.0.1 5.0.0.2 0 2 0\n.\n", "line 1: bad reached flag '2'"},
      {"T 5.0.0.1 5.0.0.2 0 1 1x\n.\n",
       "line 1: bad unreachable flag '1x'"},
      {open + "H 1 5.0.0.3 z 255 0.1\n.\n", "line 3: bad reply kind 'z'"},
      {open + "H 1 5.0.0.3 xx 255 0.1\n.\n", "line 3: bad reply kind 'xx'"},
      {"Z nonsense\n", "line 1: unknown record tag 'Z'"},
      {open + "H 1 5.0.0.3 x 255 0.1 Lbroken\n.\n",
       "line 3: bad label field 'Lbroken'"},
      {open + "H 1 5.0.0.3 x 255 0.1 16:1\n.\n",
       "line 3: bad label field '16:1'"},
      {open + "H 1 5.0.0.3 x 255 0.1 Labc:1\n.\n",
       "line 3: bad label 'abc'"},
      {open + "H 1 5.0.0.3 x 255 0.1 L1048576:1\n.\n",
       "line 3: bad label '1048576'"},
      {open + "H 1 5.0.0.3 x 255 0.1 L99999999:300\n.\n",
       "line 3: bad label '99999999'"},
      {open + "H 1 5.0.0.3 x 255 0.1 L16:256\n.\n",
       "line 3: bad LSE TTL '256'"},
      {open + "H 1 5.0.0.3 x 255 0.1 L16:-1\n.\n",
       "line 3: bad LSE TTL '-1'"},
      {open + "H -7 5.0.0.3 x 255 0.1\n.\n", "line 3: bad probe TTL '-7'"},
      {open + "H 0 *\n.\n", "line 3: bad probe TTL '0'"},
      {open + "H 256 *\n.\n", "line 3: bad probe TTL '256'"},
      {open + "H 1x *\n.\n", "line 3: bad probe TTL '1x'"},
      {open + "H 99999999999 *\n.\n", "line 3: bad probe TTL '99999999999'"},
      {open + "H 1 5.0.0.3 x 9999 0.1\n.\n", "line 3: bad reply TTL '9999'"},
      {open + "H 1 5.0.0.3 x -1 0.1\n.\n", "line 3: bad reply TTL '-1'"},
      {open + "H 1 5.0.0.3 x 255 abc\n.\n", "line 3: bad RTT 'abc'"},
      {open + "H 1 5.0.0.3 x 255 -0.5\n.\n", "line 3: bad RTT '-0.5'"},
      {open + "H 1 5.0.0.3 x 255 nan\n.\n", "line 3: bad RTT 'nan'"},
      {open + "H 1 5.0.0.3 x 255\n.\n", "line 3: malformed H record"},
      {open + "H 1 * x\n.\n", "line 3: malformed H record"},
      {open + "H 1\n.\n", "line 3: malformed H record"},
      {open + ". x\n", "line 3: trailing fields after '.'"},
      {".\n", "line 1: stray trace terminator"},
  };
  for (const auto& c : kCases) {
    std::stringstream ss(c.text);
    try {
      (void)ReadTraces(ss);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "tracefile " + c.error) << c.text;
    }
  }
}

TEST(Tracefile, AcceptsFieldsAtTheEdgesOfTheirRanges) {
  std::stringstream ss(
      "T 5.0.0.1 5.0.0.2 65535 0 1\n"
      "H 255 5.0.0.3 u 0 0.000 L1048575:255 L0:0\n"
      "H 1 *\n"
      ".\n");
  const auto traces = ReadTraces(ss);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].flow_id, 65535);
  EXPECT_TRUE(traces[0].unreachable);
  const probe::Hop& hop = traces[0].hops[0];
  EXPECT_EQ(hop.probe_ttl, 255);
  EXPECT_EQ(hop.reply_ip_ttl, 0);
  ASSERT_EQ(hop.labels.size(), 2u);
  EXPECT_EQ(hop.labels[0].label, netbase::kMaxLabel);
  EXPECT_EQ(hop.labels[0].ttl, 255);
  EXPECT_EQ(traces[0].hops[1].probe_ttl, 1);
}

TEST(Tracefile, IgnoresCommentsAndBlankLines) {
  std::stringstream ss(
      "# a comment\n\nT 5.0.0.1 5.0.0.2 3 0 0\n# inside\nH 1 *\n.\n");
  const auto traces = ReadTraces(ss);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].flow_id, 3);
  EXPECT_EQ(traces[0].hops.size(), 1u);
}

/// One of `edges`, or a uniform draw from [lo, hi], half the time each.
int EdgeOr(netbase::Rng& rng, std::initializer_list<int> edges, int lo,
           int hi) {
  if (rng.Chance(0.5)) {
    const int pick = rng.UniformInt(0, static_cast<int>(edges.size()) - 1);
    return *(edges.begin() + pick);
  }
  return rng.UniformInt(lo, hi);
}

probe::TraceResult RandomTrace(netbase::Rng& rng) {
  probe::TraceResult trace;
  trace.source = netbase::Ipv4Address(rng.UniformU32());
  trace.target = netbase::Ipv4Address(rng.UniformU32());
  trace.flow_id =
      static_cast<std::uint16_t>(EdgeOr(rng, {0, 65535}, 0, 65535));
  trace.reached = rng.Chance(0.5);
  trace.unreachable = !trace.reached && rng.Chance(0.3);
  const int hops = rng.UniformInt(0, 12);
  for (int h = 0; h < hops; ++h) {
    probe::Hop hop;
    hop.probe_ttl = EdgeOr(rng, {1, 255}, 1, 255);
    if (rng.Chance(0.3)) {  // silent hop: "*"
      trace.hops.push_back(hop);
      continue;
    }
    hop.address = netbase::Ipv4Address(rng.UniformU32());
    const netbase::PacketKind kinds[] = {
        netbase::PacketKind::kTimeExceeded, netbase::PacketKind::kEchoReply,
        netbase::PacketKind::kDestinationUnreachable};
    hop.reply_kind = kinds[rng.UniformInt(0, 2)];
    hop.reply_ip_ttl = EdgeOr(rng, {0, 1, 255}, 0, 255);
    hop.rtt_ms = rng.Chance(0.1) ? 0.0 : rng.UniformReal(0.0, 900.0);
    const int depth = rng.UniformInt(0, 5);  // past the inline depth too
    for (int d = 0; d < depth; ++d) {
      netbase::LabelStackEntry lse;
      lse.label = static_cast<std::uint32_t>(EdgeOr(
          rng, {0, 3, 15, 16, static_cast<int>(netbase::kMaxLabel)}, 0,
          static_cast<int>(netbase::kMaxLabel)));
      lse.ttl = static_cast<std::uint8_t>(EdgeOr(rng, {0, 1, 255}, 0, 255));
      hop.labels.push_back(lse);
    }
    trace.hops.push_back(hop);
  }
  return trace;
}

TEST(Tracefile, WriteReadWriteIsAByteRoundTrip) {
  // Property: for any traces the writer can emit, reading them back and
  // writing again reproduces the file byte for byte — silent hops, label
  // stacks deeper than the inline depth, and every field at the 20-bit
  // label and 8-bit TTL edges included.
  netbase::Rng rng(20171101);
  std::string all;
  for (int round = 0; round < 200; ++round) {
    std::vector<probe::TraceResult> traces;
    const int count = rng.UniformInt(0, 6);
    for (int t = 0; t < count; ++t) traces.push_back(RandomTrace(rng));
    std::stringstream first;
    WriteTraces(first, traces);
    const std::vector<probe::TraceResult> back = ReadTraces(first);
    ASSERT_EQ(back.size(), traces.size()) << "round " << round;
    std::stringstream second;
    WriteTraces(second, back);
    ASSERT_EQ(second.str(), first.str()) << "round " << round;
    all += first.str();
  }
  // The generator did reach the edges the property is about.
  const std::string max_label = "L" + std::to_string(netbase::kMaxLabel);
  for (const std::string& edge :
       {max_label + ":255", std::string(" L0:0"), std::string(" *\n"),
        std::string("H 255 "), std::string(" 65535 ")}) {
    EXPECT_NE(all.find(edge), std::string::npos) << edge;
  }
}

}  // namespace
}  // namespace wormhole::io
