// Fast-path parity: a prober whose replies drain through its
// sim::ReplyMemo and whose probes resume on its sim::ForwardCursor must
// observe exactly what memo-less, cursor-less Engine::Send observes —
// every TraceResult field (RTTs bit for bit, jitter included), every probe
// id and every EngineStats counter — on the GNS3 scenarios, the RSVP-TE
// and SR worlds and a lossy, jittered ECMP internet; at the max_hops
// guard; and across a link flap, where the memo must empty itself. The
// cursor is also driven directly: TTL sweeps near 255 across a
// no-ttl-propagate tunnel (the min rule's slack and its constant-wins
// case), probes expiring inside a ttl-propagate LSP, and interleaved
// flows. Both structures' counts are pinned on a fixed world.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gen/gns3.h"
#include "gen/internet.h"
#include "mpls/rsvp_te.h"
#include "mpls/segment_routing.h"
#include "netbase/packet.h"
#include "probe/prober.h"
#include "sim/forward_cursor.h"
#include "sim/network.h"
#include "sim/reply_memo.h"
#include "topo/topology.h"

namespace wormhole {
namespace {

using netbase::Ipv4Address;
using netbase::Packet;
using netbase::PacketKind;
using sim::Engine;
using sim::EngineStats;
using topo::RouterId;
using topo::Vendor;

EngineStats Minus(const EngineStats& after, const EngineStats& before) {
  EngineStats d;
  d.packets_injected = after.packets_injected - before.packets_injected;
  d.hops_processed = after.hops_processed - before.hops_processed;
  d.icmp_generated = after.icmp_generated - before.icmp_generated;
  d.labels_pushed = after.labels_pushed - before.labels_pushed;
  d.labels_popped = after.labels_popped - before.labels_popped;
  return d;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Packet EchoRequest(Ipv4Address src, Ipv4Address dst, int ttl,
                   std::uint16_t flow, std::uint32_t id) {
  Packet p;
  p.kind = PacketKind::kEchoRequest;
  p.src = src;
  p.dst = dst;
  p.ip_ttl = ttl;
  p.flow_id = flow;
  p.probe_id = id;
  return p;
}

/// Prober::Traceroute / Ping over memo-less Engine::Send: the reference
/// path. Same state machine, same probe-id stream (ids from 1).
class ReferenceProber {
 public:
  ReferenceProber(const Engine& engine, Ipv4Address vp)
      : engine_(&engine), vp_(vp) {}

  probe::TraceResult Traceroute(Ipv4Address target,
                                const probe::TraceOptions& options) {
    probe::TraceResult result;
    result.source = vp_;
    result.target = target;
    result.flow_id = options.flow_id;
    int timeouts = 0;
    for (int ttl = options.first_ttl; ttl <= options.max_ttl; ++ttl) {
      Engine::Outcome outcome;
      for (int attempt = 0; attempt < std::max(1, options.attempts);
           ++attempt) {
        outcome = engine_->Send(Probe(target, ttl, options.flow_id));
        if (outcome.received) break;
      }
      probe::Hop hop;
      hop.probe_ttl = ttl;
      if (outcome.received) {
        hop.address = outcome.reply.src;
        hop.reply_kind = outcome.reply.kind;
        hop.reply_ip_ttl = outcome.reply.ip_ttl;
        hop.labels = outcome.reply.quoted_labels;
        hop.rtt_ms = outcome.rtt_ms;
        timeouts = 0;
      } else {
        ++timeouts;
      }
      result.hops.push_back(hop);
      if (outcome.received && outcome.reply.kind == PacketKind::kEchoReply) {
        result.reached = true;
        break;
      }
      if (outcome.received &&
          outcome.reply.kind == PacketKind::kDestinationUnreachable) {
        result.unreachable = true;
        break;
      }
      if (timeouts >= options.gap_limit) break;
    }
    return result;
  }

  probe::PingResult Ping(Ipv4Address target) {
    const Engine::Outcome outcome = engine_->Send(Probe(target, 64, 0));
    probe::PingResult result;
    result.target = target;
    if (outcome.received && outcome.reply.kind == PacketKind::kEchoReply) {
      result.responded = true;
      result.reply_ip_ttl = outcome.reply.ip_ttl;
      result.rtt_ms = outcome.rtt_ms;
    }
    return result;
  }

  [[nodiscard]] std::uint32_t probes_sent() const { return next_id_ - 1; }

 private:
  Packet Probe(Ipv4Address target, int ttl, std::uint16_t flow) {
    return EchoRequest(vp_, target, ttl, flow, next_id_++);
  }

  const Engine* engine_;
  Ipv4Address vp_;
  std::uint32_t next_id_ = 1;
};

void ExpectSameTrace(const probe::TraceResult& want,
                     const probe::TraceResult& got, const std::string& where) {
  EXPECT_EQ(got.source, want.source) << where;
  EXPECT_EQ(got.target, want.target) << where;
  EXPECT_EQ(got.flow_id, want.flow_id) << where;
  EXPECT_EQ(got.reached, want.reached) << where;
  EXPECT_EQ(got.unreachable, want.unreachable) << where;
  ASSERT_EQ(got.hops.size(), want.hops.size()) << where;
  for (std::size_t h = 0; h < want.hops.size(); ++h) {
    const probe::Hop& a = want.hops[h];
    const probe::Hop& b = got.hops[h];
    EXPECT_EQ(b.probe_ttl, a.probe_ttl) << where << " hop " << h;
    EXPECT_EQ(b.address, a.address) << where << " hop " << h;
    EXPECT_EQ(b.reply_kind, a.reply_kind) << where << " hop " << h;
    EXPECT_EQ(b.reply_ip_ttl, a.reply_ip_ttl) << where << " hop " << h;
    EXPECT_EQ(b.labels, a.labels) << where << " hop " << h;
    EXPECT_EQ(Bits(b.rtt_ms), Bits(a.rtt_ms)) << where << " hop " << h;
  }
}

/// Everything one prober saw over a fixed probing script.
struct Observed {
  std::vector<probe::TraceResult> traces;
  std::vector<probe::PingResult> pings;
  EngineStats stats;
  std::uint64_t probes = 0;
};

/// The script: three rounds over `targets` (flows 0, 0, 1 — the second
/// round repeats the first's reply walks with fresh probe ids), then a
/// ping per target.
template <typename P>
Observed RunScript(const Engine& engine, P& prober,
                   const std::vector<Ipv4Address>& targets,
                   probe::TraceOptions options) {
  Observed seen;
  const EngineStats before = engine.stats();
  for (const std::uint16_t flow : {0, 0, 1}) {
    options.flow_id = flow;
    for (const Ipv4Address target : targets) {
      seen.traces.push_back(prober.Traceroute(target, options));
    }
  }
  for (const Ipv4Address target : targets) {
    seen.pings.push_back(prober.Ping(target));
  }
  seen.stats = Minus(engine.stats(), before);
  seen.probes = prober.probes_sent();
  return seen;
}

void ExpectSameObservations(const Observed& want, const Observed& got,
                            const std::string& where) {
  ASSERT_EQ(got.traces.size(), want.traces.size()) << where;
  for (std::size_t i = 0; i < want.traces.size(); ++i) {
    ExpectSameTrace(want.traces[i], got.traces[i],
                    where + " trace " + std::to_string(i));
  }
  ASSERT_EQ(got.pings.size(), want.pings.size()) << where;
  for (std::size_t i = 0; i < want.pings.size(); ++i) {
    EXPECT_EQ(got.pings[i].responded, want.pings[i].responded) << where;
    EXPECT_EQ(got.pings[i].reply_ip_ttl, want.pings[i].reply_ip_ttl)
        << where;
    EXPECT_EQ(Bits(got.pings[i].rtt_ms), Bits(want.pings[i].rtt_ms))
        << where;
  }
  EXPECT_EQ(got.stats, want.stats) << where;
  EXPECT_EQ(got.probes, want.probes) << where;
}

/// The prober, with its memo and cursor, against the reference. Returns
/// the prober's memo counts.
sim::ReplyMemo::Counts ExpectMemoParity(
    const Engine& engine, Ipv4Address vp,
    const std::vector<Ipv4Address>& targets,
    const probe::TraceOptions& options = {}) {
  ReferenceProber reference(engine, vp);
  const Observed want = RunScript(engine, reference, targets, options);

  probe::Prober prober(engine, vp);
  const Observed seen = RunScript(engine, prober, targets, options);
  ExpectSameObservations(want, seen, "prober");
  // The script repeats every walk, so the memo must have served some; and
  // every trace of more than one probe resumed on the cursor.
  EXPECT_GT(prober.reply_memo().counts().hits, 0u);
  EXPECT_GT(prober.forward_cursor().counts().resumes, 0u);
  return prober.reply_memo().counts();
}

std::vector<std::optional<Ipv4Address>> Responders(
    const probe::TraceResult& trace) {
  std::vector<std::optional<Ipv4Address>> out;
  for (const probe::Hop& hop : trace.hops) out.push_back(hop.address);
  return out;
}

std::vector<Ipv4Address> Loopbacks(const topo::Topology& topology) {
  std::vector<Ipv4Address> out;
  for (const topo::Router& router : topology.routers()) {
    out.push_back(router.loopback);
  }
  return out;
}

class Gns3MemoParity : public ::testing::TestWithParam<gen::Gns3Scenario> {};

TEST_P(Gns3MemoParity, MemoizedProberMatchesTheReferencePath) {
  gen::Gns3Testbed testbed({.scenario = GetParam()});
  ExpectMemoParity(testbed.engine(), testbed.vantage_point(),
                   Loopbacks(testbed.topology()));
}

// Each case is named after its scenario ("BackwardRecursive"): the name
// says what it runs and stays put when a scenario is added.
std::string ScenarioName(
    const ::testing::TestParamInfo<gen::Gns3Scenario>& info) {
  std::string name = gen::ToString(info.param);
  std::erase(name, ' ');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, Gns3MemoParity,
                         ::testing::Values(
                             gen::Gns3Scenario::kDefault,
                             gen::Gns3Scenario::kBackwardRecursive,
                             gen::Gns3Scenario::kExplicitRoute,
                             gen::Gns3Scenario::kTotallyInvisible),
                         ScenarioName);

TEST(ReplyMemo, RsvpTeWorldMatchesTheReferencePath) {
  // AS1(gw) | AS2: in - a - b - out, plus a TE-pinned detour
  // in - c - d - out | AS3(dst): steered and labelled replies.
  topo::Topology topology;
  topology.AddAs(1, "src");
  topology.AddAs(2, "mpls");
  topology.AddAs(3, "dst");
  const RouterId gw = topology.AddRouter(1, "gw", Vendor::kCiscoIos);
  const RouterId in = topology.AddRouter(2, "in", Vendor::kCiscoIos);
  const RouterId a = topology.AddRouter(2, "a", Vendor::kJuniperJunos);
  const RouterId b = topology.AddRouter(2, "b", Vendor::kCiscoIos);
  const RouterId c = topology.AddRouter(2, "c", Vendor::kCiscoIos);
  const RouterId d = topology.AddRouter(2, "d", Vendor::kJuniperJunos);
  const RouterId out = topology.AddRouter(2, "out", Vendor::kCiscoIos);
  const RouterId dst = topology.AddRouter(3, "dst", Vendor::kCiscoIos);
  topology.AddLink(gw, in);
  topology.AddLink(in, a);
  topology.AddLink(a, b);
  topology.AddLink(b, out);
  topology.AddLink(in, c, {.igp_metric = 10});
  topology.AddLink(c, d, {.igp_metric = 10});
  topology.AddLink(d, out, {.igp_metric = 10});
  topology.AddLink(out, dst);
  const Ipv4Address vp = topology.AttachHost(gw, "VP");
  mpls::MplsConfigMap configs(topology);
  configs.EnableAs(2, {.ttl_propagate = true});
  mpls::TeDatabase te;
  mpls::TeTunnelSpec to_dst;
  to_dst.path = {in, c, d, out};
  to_dst.steered_prefixes = {topology.as(3).block};
  te.AddTunnel(topology, to_dst);
  mpls::TeTunnelSpec back;
  back.path = {out, d, c, in};
  back.steered_prefixes = {topology.as(1).block};
  back.popping = mpls::Popping::kUhp;
  te.AddTunnel(topology, back);
  sim::Network network(topology, configs,
                       routing::BgpPolicy{.stub_ases = {1, 3}},
                       sim::EngineOptions{}, &te);
  ExpectMemoParity(network.engine(), vp, Loopbacks(topology));
}

TEST(ReplyMemo, SegmentRoutingWorldMatchesTheReferencePath) {
  // AS1(gw) | AS2 ring: in - a - b - out and in - c - out | AS3(dst), with
  // SR policies detouring both directions via a, b.
  topo::Topology topology;
  topology.AddAs(1, "src");
  topology.AddAs(2, "sr");
  topology.AddAs(3, "dst");
  const RouterId gw = topology.AddRouter(1, "gw", Vendor::kCiscoIos);
  const RouterId in = topology.AddRouter(2, "in", Vendor::kCiscoIos);
  const RouterId a = topology.AddRouter(2, "a", Vendor::kCiscoIos);
  const RouterId b = topology.AddRouter(2, "b", Vendor::kJuniperJunos);
  const RouterId c = topology.AddRouter(2, "c", Vendor::kCiscoIos);
  const RouterId out = topology.AddRouter(2, "out", Vendor::kCiscoIos);
  const RouterId dst = topology.AddRouter(3, "dst", Vendor::kCiscoIos);
  topology.AddLink(gw, in);
  topology.AddLink(in, a);
  topology.AddLink(a, b);
  topology.AddLink(b, out);
  topology.AddLink(in, c);
  topology.AddLink(c, out);
  topology.AddLink(out, dst);
  const Ipv4Address vp = topology.AttachHost(gw, "VP");
  mpls::MplsConfigMap configs(topology);
  configs.EnableAs(2, {.ttl_propagate = true,
                       .ldp_policy = mpls::LdpPolicy::kLoopbacksOnly});
  mpls::SrDatabase sr;
  sr.EnableAs(topology, 2);
  mpls::SrPolicy forward;
  forward.ingress = in;
  forward.waypoints = {a, b, out};
  forward.prefix = topology.as(3).block;
  sr.AddPolicy(topology, forward);
  mpls::SrPolicy reverse;
  reverse.ingress = out;
  reverse.waypoints = {b, a, in};
  reverse.prefix = topology.as(1).block;
  sr.AddPolicy(topology, reverse);
  sim::Network network(topology, configs,
                       routing::BgpPolicy{.stub_ases = {1, 3}},
                       sim::EngineOptions{}, nullptr, &sr);
  ExpectMemoParity(network.engine(), vp, Loopbacks(topology));
}

gen::InternetOptions SmallInternet(std::uint64_t seed) {
  gen::InternetOptions options;
  options.seed = seed;
  options.tier1_count = 2;
  options.transit_count = 4;
  options.stub_count = 8;
  options.vp_count = 2;
  options.convergence_jobs = 1;
  return options;
}

TEST(ReplyMemo, LossyJitteredEcmpInternetMatchesTheReferencePath) {
  // Loss draws key on probe ids and jitter on (probe id, link): a replay
  // that reused a recorded elapsed time, or took its key after the
  // origination coin, would drift here.
  gen::InternetOptions options = SmallInternet(41);
  options.icmp_loss = 0.05;
  options.anonymous_router_probability = 0.02;
  gen::SyntheticInternet world(options);
  sim::Network network(world.topology(), world.configs(), world.bgp_policy(),
                       sim::EngineOptions{.delay_jitter_fraction = 0.3},
                       nullptr, nullptr, 1);
  ASSERT_TRUE(network.engine().RepliesDependOnProbeIds());
  std::vector<Ipv4Address> targets;
  const auto loopbacks = world.AllLoopbacks();
  for (std::size_t i = 0; i < loopbacks.size(); i += 3) {
    targets.push_back(loopbacks[i]);
  }
  for (const Ipv4Address vp : world.vantage_points()) {
    ExpectMemoParity(network.engine(), vp, targets, {.first_ttl = 2});
  }
}

/// r0 - r1 - ... - r(n-1), hosts on both ends, a tight hop budget.
struct Chain {
  topo::Topology topology;
  std::unique_ptr<mpls::MplsConfigMap> configs;
  std::unique_ptr<sim::Network> network;
  Ipv4Address near;
  Ipv4Address far;

  Chain(int n, int max_hops) {
    topology.AddAs(1, "chain");
    for (int i = 0; i < n; ++i) {
      topology.AddRouter(1, "r" + std::to_string(i), Vendor::kCiscoIos);
    }
    for (int i = 0; i + 1 < n; ++i) {
      topology.AddLink(static_cast<RouterId>(i),
                       static_cast<RouterId>(i + 1));
    }
    near = topology.AttachHost(0, "near");
    far = topology.AttachHost(static_cast<RouterId>(n - 1), "far");
    configs = std::make_unique<mpls::MplsConfigMap>(topology);
    network = std::make_unique<sim::Network>(
        topology, *configs, routing::BgpPolicy{},
        sim::EngineOptions{.max_hops = max_hops});
  }
};

TEST(ReplyMemo, ReplyAtTheMaxHopsGuardIsWalkedNotReplayed) {
  // A reply injected at `near` towards `far` walks 7 links. Recorded from
  // a fresh start, it may be replayed only while start + 7 <= max_hops;
  // one hop later the guard must cut it exactly as the walk does.
  Chain chain(8, /*max_hops=*/20);
  const Engine& engine = chain.network->engine();
  Packet reply;
  reply.kind = PacketKind::kTimeExceeded;
  reply.src = chain.near;
  reply.dst = chain.far;
  reply.ip_ttl = 255;
  reply.probe_id = 1;
  sim::ReplyMemo memo;

  const auto send_both = [&](int start_hops) {
    Packet p = reply;
    p.hops_traversed = start_hops;
    ++p.probe_id;
    const EngineStats before = engine.stats();
    const Engine::Outcome want = engine.Send(p);
    EngineStats twice = Minus(engine.stats(), before);
    twice += twice;
    const Engine::Outcome got = engine.Send(p, &memo);
    EXPECT_EQ(Minus(engine.stats(), before), twice) << "start " << start_hops;
    EXPECT_EQ(got, want) << "start " << start_hops;
    return got;
  };

  // Delivered at `far`'s gateway, which is not the origin: dropped.
  EXPECT_EQ(send_both(0).loss, sim::LossReason::kDropped);
  EXPECT_EQ(memo.size(), 1u);
  const sim::ReplyMemo::Counts walked{.hits = 0, .misses = 1};
  EXPECT_EQ(memo.counts(), walked);
  // Ends exactly at the budget: replayed.
  EXPECT_EQ(send_both(13).loss, sim::LossReason::kDropped);
  EXPECT_EQ(memo.counts().hits, 1u);
  // One past it: walked into the guard, and not recorded.
  EXPECT_EQ(send_both(14).loss, sim::LossReason::kTtlLoop);
  EXPECT_EQ(memo.counts().hits, 1u);
  EXPECT_EQ(memo.counts().misses, 2u);
  EXPECT_EQ(memo.size(), 1u);
  // A fresh memo meeting the guard first records nothing: a walk cut by
  // the guard says nothing about the same reply from an earlier start.
  sim::ReplyMemo cold;
  Packet late = reply;
  late.hops_traversed = 14;
  EXPECT_EQ(engine.Send(late, &cold).loss, sim::LossReason::kTtlLoop);
  EXPECT_EQ(cold.size(), 0u);
  EXPECT_EQ(engine.Send(reply, &cold), engine.Send(reply));
  EXPECT_EQ(cold.size(), 1u);
}

TEST(ReplyMemo, TracesAtATightHopBudgetMatchTheReferencePath) {
  // Far hops of a long chain die at the guard (probe + reply exceed 20
  // hops) while near hops replay: both must match the reference.
  Chain chain(14, /*max_hops=*/20);
  const auto counts =
      ExpectMemoParity(chain.network->engine(), chain.near,
                       Loopbacks(chain.topology), {.gap_limit = 40});
  EXPECT_GT(counts.misses, 0u);
}

TEST(ReplyMemo, ProberAcrossALinkFlapEqualsAFreshProber) {
  // The memo is stamped with the convergence epoch and the topology
  // version. A warm prober restarted after SetLinkUp +
  // OnLinkStateChange must trace exactly like a new prober — a memo that
  // kept serving pre-flap walks would return the old return paths.
  gen::SyntheticInternet world(SmallInternet(7));
  const Engine& engine = world.engine();
  const Ipv4Address vp = world.vantage_points().front();
  const auto targets = world.AllLoopbacks();
  probe::Prober warm(engine, vp);
  for (const Ipv4Address target : targets) (void)warm.Traceroute(target);
  ASSERT_GT(warm.reply_memo().size(), 0u);

  // Flap the links the VP's replies come home over: the arrival link of
  // every responding hop of one long trace.
  const probe::TraceResult path = warm.Traceroute(targets.back());
  std::vector<std::vector<std::optional<Ipv4Address>>> before_flap;
  {
    probe::Prober probe_all(engine, vp);
    for (const Ipv4Address target : targets) {
      before_flap.push_back(Responders(probe_all.Traceroute(target)));
    }
  }
  std::vector<topo::LinkId> links;
  for (const probe::Hop& hop : path.hops) {
    if (!hop.address) continue;
    const auto iface = world.topology().FindInterfaceByAddress(*hop.address);
    if (!iface) continue;
    const topo::LinkId link = world.topology().interface(*iface).link;
    if (link != topo::kNoLink) links.push_back(link);
  }
  ASSERT_GE(links.size(), 2u);

  std::size_t changed = 0;
  for (const topo::LinkId link : links) {
    for (const bool up : {false, true}) {
      world.mutable_topology().SetLinkUp(link, up);
      (void)world.network().OnLinkStateChange(link);
      warm.Restart();
      probe::Prober fresh(engine, vp);
      ReferenceProber reference(engine, vp);
      for (std::size_t t = 0; t < targets.size(); ++t) {
        const Ipv4Address target = targets[t];
        const auto want = reference.Traceroute(target, {});
        const auto got = warm.Traceroute(target);
        ExpectSameTrace(want, got, "warm after flap");
        ExpectSameTrace(want, fresh.Traceroute(target), "fresh after flap");
        if (!up && Responders(got) != before_flap[t]) ++changed;
      }
      EXPECT_EQ(warm.probes_sent(), fresh.probes_sent());
      EXPECT_EQ(warm.reply_memo().size(), fresh.reply_memo().size());
    }
  }
  // The flaps did move paths, so a stale memo would have shown.
  EXPECT_GT(changed, 0u);
}

TEST(ReplyMemo, CountsArePinnedOnTheDefaultTestbed) {
  // Fig. 4a's world: a 7-hop trace to CE2 records one walk per hop, 36
  // hops between them (the LSR replies detour via the tunnel end). The
  // same trace again replays all 7; a ping to CE2 replays the echo-reply's
  // 7-hop walk once more.
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  const Ipv4Address target = testbed.Address("CE2.left");
  ASSERT_EQ(prober.Traceroute(target).hops.size(), 7u);
  const sim::ReplyMemo::Counts recorded{.hits = 0, .misses = 7};
  EXPECT_EQ(prober.reply_memo().counts(), recorded);
  EXPECT_EQ(prober.reply_memo().size(), 7u);
  (void)prober.Traceroute(target);
  const sim::ReplyMemo::Counts repeated{
      .hits = 7, .misses = 7, .replayed_hops = 36};
  EXPECT_EQ(prober.reply_memo().counts(), repeated);
  (void)prober.Ping(target);
  const sim::ReplyMemo::Counts all{
      .hits = 7 + 1, .misses = 7, .replayed_hops = 36 + 7};
  EXPECT_EQ(prober.reply_memo().counts(), all);
  EXPECT_EQ(prober.reply_memo().size(), 7u);
}

/// Sends `probe` through cursor-less Send, then through Send with
/// `cursor`: outcome, RTT bits and stats must agree. Returns the outcome.
Engine::Outcome ExpectCursorParity(const Engine& engine, const Packet& probe,
                                   sim::ForwardCursor& cursor,
                                   const std::string& where) {
  const EngineStats before = engine.stats();
  const Engine::Outcome want = engine.Send(probe);
  const EngineStats mid = engine.stats();
  const Engine::Outcome got = engine.Send(probe, nullptr, &cursor);
  EXPECT_EQ(got, want) << where;
  EXPECT_EQ(Bits(got.rtt_ms), Bits(want.rtt_ms)) << where;
  EXPECT_EQ(Minus(engine.stats(), mid), Minus(mid, before)) << where;
  return want;
}

/// gw | in - p1 - ... - p6 - out | c0 - c1 - ... - c259, with AS2 running
/// LDP without ttl-propagate. A probe of TTL t reaches p6 with IP-TTL
/// t - 2 against a popped LSE-TTL of 249, so the PHP min rule keeps the
/// probe's IP-TTL (margin 251 - t) up to t = 250 and the constant 249
/// from t = 251 on; either way the probe expires deep in the chain, and
/// its reply still makes it home.
struct LongChainBehindATunnel {
  topo::Topology topology;
  std::unique_ptr<mpls::MplsConfigMap> configs;
  std::unique_ptr<sim::Network> network;
  Ipv4Address vp;
  Ipv4Address target;

  LongChainBehindATunnel() {
    topology.AddAs(1, "src");
    topology.AddAs(2, "tunnel");
    topology.AddAs(3, "chain");
    RouterId last = topology.AddRouter(1, "gw", Vendor::kCiscoIos);
    vp = topology.AttachHost(last, "VP");
    const auto extend = [&](topo::AsNumber asn, const std::string& name) {
      const RouterId r = topology.AddRouter(asn, name, Vendor::kCiscoIos);
      topology.AddLink(last, r);
      last = r;
    };
    extend(2, "in");
    for (int i = 1; i <= 6; ++i) extend(2, "p" + std::to_string(i));
    extend(2, "out");
    for (int i = 0; i < 260; ++i) extend(3, "c" + std::to_string(i));
    target = topology.router(last).loopback;
    configs = std::make_unique<mpls::MplsConfigMap>(topology);
    configs->EnableAs(2, {.ttl_propagate = false});
    network = std::make_unique<sim::Network>(
        topology, *configs, routing::BgpPolicy{.stub_ases = {1, 3}},
        sim::EngineOptions{.max_hops = 1024, .delay_jitter_fraction = 0.3});
  }
};

TEST(ForwardCursor, NoTtlPropagateSweepNearTtl255MatchesTheReferencePath) {
  LongChainBehindATunnel world;
  const Engine& engine = world.network->engine();
  std::uint32_t id = 0;
  const auto responder = [&](int ttl) {
    const Engine::Outcome outcome =
        engine.Send(EchoRequest(world.vp, world.target, ttl, 0, ++id));
    EXPECT_TRUE(outcome.received) << "ttl " << ttl;
    EXPECT_EQ(outcome.reply.kind, PacketKind::kTimeExceeded) << "ttl " << ttl;
    return outcome.reply.src;
  };
  // The world's shape: the min rule switches sides between TTL 250 and
  // 251, and from there on the probe expires at one router.
  ASSERT_NE(responder(250), responder(251));
  ASSERT_EQ(responder(251), responder(255));

  // Each sequence climbs from `start` in steps of d on a reset cursor;
  // d = 0 repeats the TTL, as retries do.
  sim::ForwardCursor cursor;
  std::uint64_t sequences = 0;
  for (const int d : {0, 1, 2, 3, 5}) {
    for (int start = 245; start <= 255; ++start) {
      cursor.Reset();
      ++sequences;
      for (int ttl = start, n = 0; ttl <= 255 && n < 6; ttl += d, ++n) {
        (void)ExpectCursorParity(
            engine, EchoRequest(world.vp, world.target, ttl, 0, ++id), cursor,
            "d " + std::to_string(d) + " ttl " + std::to_string(ttl));
      }
    }
  }
  EXPECT_GT(cursor.counts().resumes, 0u);
  // Some probes that continued their sequence walked from the gateway:
  // the min rule's slack refused them.
  EXPECT_GT(cursor.counts().walks, sequences);
}

TEST(ForwardCursor, TtlPropagateProbesExpiringInsideTheLspMatchTheReference) {
  // Fig. 4a's world: under ttl-propagate the LSE-TTLs follow the probe
  // TTL, so a probe resumed inside the LSP must shift them to expire one
  // LSR further on.
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  const Engine& engine = testbed.engine();
  const Ipv4Address target = testbed.Address("CE2.left");
  sim::ForwardCursor cursor;
  std::uint32_t id = 0;
  std::size_t quoted = 0;
  for (const int d : {1, 2}) {
    for (int start = 1; start <= 3; ++start) {
      cursor.Reset();
      for (int ttl = start; ttl <= 9; ttl += d) {
        const Engine::Outcome outcome = ExpectCursorParity(
            engine,
            EchoRequest(testbed.vantage_point(), target, ttl, 0, ++id),
            cursor, "d " + std::to_string(d) + " ttl " + std::to_string(ttl));
        if (ttl > start && !outcome.reply.quoted_labels.empty()) ++quoted;
      }
    }
  }
  // Resumed probes did expire inside the LSP.
  EXPECT_GT(quoted, 0u);
}

TEST(ForwardCursor, UhpClampAtAZeroIpTtlIsNotResumedPast) {
  // AS1(gw) | AS2: in - a - m - b - out | AS3: c0 - c1 - c2 - c3. Two
  // no-ttl-propagate UHP TE tunnels back to back (in..m, m..out) decrement
  // the IP-TTL at m and at out without an expiry check, clamping at 0. A
  // TTL-3 probe reaches out with IP-TTL 0 and keeps it, so TTLs 3, 4 and
  // 5 all expire at c0: the clamp is no shift of the probe TTL, and a
  // cursor that resumed past it would send TTL 5 on to c1.
  topo::Topology topology;
  topology.AddAs(1, "src");
  topology.AddAs(2, "te");
  topology.AddAs(3, "dst");
  RouterId last = topology.AddRouter(1, "gw", Vendor::kCiscoIos);
  const Ipv4Address vp = topology.AttachHost(last, "VP");
  std::vector<RouterId> as2;
  const auto extend = [&](topo::AsNumber asn, const std::string& name) {
    const RouterId r = topology.AddRouter(asn, name, Vendor::kCiscoIos);
    topology.AddLink(last, r);
    last = r;
    if (asn == 2) as2.push_back(r);
  };
  for (const char* name : {"in", "a", "m", "b", "out"}) extend(2, name);
  for (const char* name : {"c0", "c1", "c2", "c3"}) extend(3, name);
  const Ipv4Address target = topology.router(last).loopback;
  mpls::MplsConfigMap configs(topology);
  configs.EnableAs(2, {.ttl_propagate = false});
  const std::vector<std::vector<RouterId>> tunnels = {
      {as2[0], as2[1], as2[2]}, {as2[2], as2[3], as2[4]}};
  mpls::TeDatabase te;
  for (const std::vector<RouterId>& path : tunnels) {
    mpls::TeTunnelSpec spec;
    spec.path = path;
    spec.popping = mpls::Popping::kUhp;
    spec.steered_prefixes = {topology.as(3).block};
    te.AddTunnel(topology, spec);
  }
  sim::Network network(topology, configs,
                       routing::BgpPolicy{.stub_ases = {1, 3}},
                       sim::EngineOptions{}, &te);
  const Engine& engine = network.engine();

  std::uint32_t id = 0;
  std::vector<Ipv4Address> responders;
  for (int ttl = 1; ttl <= 7; ++ttl) {
    const Engine::Outcome outcome =
        engine.Send(EchoRequest(vp, target, ttl, 0, ++id));
    ASSERT_TRUE(outcome.received) << "ttl " << ttl;
    responders.push_back(outcome.reply.src);
  }
  // The world's shape: TTLs 3, 4 and 5 die at one router, TTL 6 beyond.
  ASSERT_EQ(responders[2], responders[3]);
  ASSERT_EQ(responders[3], responders[4]);
  ASSERT_NE(responders[4], responders[5]);

  sim::ForwardCursor cursor;
  for (const int d : {0, 1, 2}) {
    for (int start = 1; start <= 4; ++start) {
      cursor.Reset();
      for (int ttl = start, n = 0; ttl <= 8 && n < 4; ttl += d, ++n) {
        (void)ExpectCursorParity(
            engine, EchoRequest(vp, target, ttl, 0, ++id), cursor,
            "d " + std::to_string(d) + " ttl " + std::to_string(ttl));
      }
    }
  }
  EXPECT_GT(cursor.counts().resumes, 0u);
}

TEST(ForwardCursor, ResumesOnlyTheSameFlowUnderTheSameEpoch) {
  // Two probes per (src, dst, flow id), the TTL still climbing across
  // every change of key: a cursor that ignored the key would resume the
  // new flow on the old flow's path. Then a link of the current path
  // flaps between two probes of one flow: a cursor that ignored the epoch
  // would resume over the stale prefix.
  gen::InternetOptions options = SmallInternet(41);
  options.icmp_loss = 0.05;
  gen::SyntheticInternet world(options);
  const Engine& engine = world.engine();
  const auto vps = world.vantage_points();
  const auto loopbacks = world.AllLoopbacks();
  ASSERT_GE(vps.size(), 2u);
  sim::ForwardCursor cursor;
  std::uint32_t id = 0;
  struct Flow {
    Ipv4Address src;
    Ipv4Address dst;
    std::uint16_t flow_id;
  };
  for (std::size_t a = 0; a < loopbacks.size(); a += 5) {
    const Ipv4Address other = loopbacks[(a * 7 + 3) % loopbacks.size()];
    const Flow flows[] = {{vps[0], loopbacks[a], 0},
                          {vps[0], other, 0},
                          {vps[0], other, 1},
                          {vps[1], other, 1}};
    int ttl = 2;
    for (const Flow& f : flows) {
      for (int k = 0; k < 2; ++k, ++ttl) {
        (void)ExpectCursorParity(
            engine, EchoRequest(f.src, f.dst, ttl, f.flow_id, ++id), cursor,
            "target " + std::to_string(a) + " ttl " + std::to_string(ttl));
      }
    }
  }
  EXPECT_GT(cursor.counts().resumes, 0u);

  const Ipv4Address target = loopbacks.back();
  cursor.Reset();
  for (int ttl = 1; ttl <= 4; ++ttl) {
    (void)ExpectCursorParity(engine,
                             EchoRequest(vps[0], target, ttl, 0, ++id),
                             cursor, "before flap");
  }
  const probe::TraceResult path =
      probe::Prober(engine, vps[0]).Traceroute(target);
  ASSERT_GE(path.hops.size(), 4u);
  ASSERT_TRUE(path.hops[2].address.has_value());
  const auto iface =
      world.topology().FindInterfaceByAddress(*path.hops[2].address);
  ASSERT_TRUE(iface.has_value());
  const topo::LinkId link = world.topology().interface(*iface).link;
  ASSERT_NE(link, topo::kNoLink);
  const std::uint64_t walks = cursor.counts().walks;
  world.mutable_topology().SetLinkUp(link, false);
  (void)world.network().OnLinkStateChange(link);
  for (int ttl = 5; ttl <= 8; ++ttl) {
    (void)ExpectCursorParity(engine,
                             EchoRequest(vps[0], target, ttl, 0, ++id),
                             cursor, "after flap");
  }
  EXPECT_EQ(cursor.counts().walks, walks + 1);
}

TEST(ForwardCursor, CountsArePinnedOnTheDefaultTestbed) {
  // Fig. 4a's world: under ttl-propagate every hop spends one TTL, so the
  // probe at TTL t stops t - 1 forward hops out. A 7-hop trace to CE2
  // walks its first probe and resumes the other six, which skip
  // 0 + 1 + ... + 5 = 15 forward hops. Every trace starts with a walk; a
  // ping leaves the cursor alone.
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  const Ipv4Address target = testbed.Address("CE2.left");
  ASSERT_EQ(prober.Traceroute(target).hops.size(), 7u);
  const sim::ForwardCursor::Counts one{
      .walks = 1, .resumes = 6, .resumed_hops = 15};
  EXPECT_EQ(prober.forward_cursor().counts(), one);
  (void)prober.Traceroute(target);
  (void)prober.Ping(target);
  const sim::ForwardCursor::Counts two{
      .walks = 2, .resumes = 12, .resumed_hops = 30};
  EXPECT_EQ(prober.forward_cursor().counts(), two);
}

}  // namespace
}  // namespace wormhole
