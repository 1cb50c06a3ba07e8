// Reply-walk memo parity: a prober whose replies drain through its
// sim::ReplyMemo must observe exactly what memo-less Engine::Send observes
// — every TraceResult field (RTTs bit for bit, jitter included), every
// probe id and every EngineStats counter — on the GNS3 scenarios, the
// RSVP-TE and SR worlds and a lossy, jittered ECMP internet; at the
// max_hops guard; and across a link flap, where the memo must empty
// itself. The memo's own counts are pinned on a fixed world.
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
    Packet p;
    p.kind = PacketKind::kEchoRequest;
    p.src = vp_;
    p.dst = target;
    p.ip_ttl = ttl;
    p.flow_id = flow;
    p.probe_id = next_id_++;
    return p;
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

/// The memoized prober, sequential and batched, against the reference.
/// Returns the sequential prober's memo counts.
sim::ReplyMemo::Counts ExpectMemoParity(
    const Engine& engine, Ipv4Address vp,
    const std::vector<Ipv4Address>& targets,
    probe::TraceOptions options = {}) {
  ReferenceProber reference(engine, vp);
  const Observed want = RunScript(engine, reference, targets, options);

  probe::Prober sequential(engine, vp);
  const Observed seen = RunScript(engine, sequential, targets, options);
  ExpectSameObservations(want, seen, "sequential");

  options.batched = true;
  probe::Prober batched(engine, vp);
  const Observed batched_seen = RunScript(engine, batched, targets, options);
  ExpectSameObservations(want, batched_seen, "batched");
  // The script repeats every walk, so both memos must have served some.
  EXPECT_GT(sequential.reply_memo().counts().hits, 0u);
  EXPECT_GT(batched.reply_memo().counts().hits, 0u);
  return sequential.reply_memo().counts();
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

INSTANTIATE_TEST_SUITE_P(Scenarios, Gns3MemoParity,
                         ::testing::Values(
                             gen::Gns3Scenario::kDefault,
                             gen::Gns3Scenario::kBackwardRecursive,
                             gen::Gns3Scenario::kTotallyInvisible));

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
  // same trace again replays all 7; a batched trace replays 8 (its
  // opening window speculates one TTL past CE2, whose echo-reply is the
  // same 7-hop walk); a ping to CE2 replays that walk once more.
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
  (void)prober.Traceroute(target, {.batched = true});
  (void)prober.Ping(target);
  const sim::ReplyMemo::Counts all{
      .hits = 7 + 8 + 1, .misses = 7, .replayed_hops = 36 + 43 + 7};
  EXPECT_EQ(prober.reply_memo().counts(), all);
  EXPECT_EQ(prober.reply_memo().size(), 7u);
}

}  // namespace
}  // namespace wormhole
