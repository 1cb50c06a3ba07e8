// Performance micro-benchmarks (google-benchmark): control-plane
// convergence, data-plane forwarding throughput, probing and revelation
// speed. These are not paper results — they document that the simulator
// scales to campaign sizes.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "campaign/campaign.h"
#include "campaign/trace_cache.h"
#include "gen/gns3.h"
#include "gen/internet.h"
#include "mpls/ldp.h"
#include "netbase/label.h"
#include "netbase/packet.h"
#include "probe/prober.h"
#include "reveal/revelator.h"
#include "routing/delta.h"
#include "routing/fib.h"
#include "routing/igp.h"
#include "routing/spf_engine.h"
#include "sim/network.h"
#include "topo/topology.h"

namespace {

using namespace wormhole;

const gen::SyntheticInternet& SharedNet() {
  static gen::SyntheticInternet* net =
      new gen::SyntheticInternet({.seed = 42});
  return *net;
}

void BM_SpfSingleSource(benchmark::State& state) {
  const auto& net = SharedNet();
  // The largest AS.
  topo::AsNumber biggest = 0;
  std::size_t best = 0;
  for (const auto asn : net.topology().AsNumbers()) {
    if (net.topology().as(asn).routers.size() > best) {
      best = net.topology().as(asn).routers.size();
      biggest = asn;
    }
  }
  const auto source = net.topology().as(biggest).routers.front();
  // A persistent engine so each iteration pays for one Dijkstra, not for
  // re-snapshotting the whole topology's adjacency.
  routing::SpfEngine engine(net.topology());
  const std::vector<topo::RouterId> only_source{source};
  for (auto _ : state) {
    engine.InvalidateTrees(only_source);
    benchmark::DoNotOptimize(&engine.TreeOf(source));
  }
  state.counters["routers_in_as"] = static_cast<double>(best);
}
BENCHMARK(BM_SpfSingleSource);

/// Pre-built worlds per size class so the convergence benchmarks measure
/// the control-plane build alone, not topology generation.
gen::SyntheticInternet& WorldOfSize(int size) {
  static auto* worlds =
      new std::map<int, std::unique_ptr<gen::SyntheticInternet>>();
  std::unique_ptr<gen::SyntheticInternet>& slot = (*worlds)[size];
  if (!slot) {
    gen::InternetOptions options;
    options.seed = 42;
    switch (size) {
      case 0:
        options.transit_count = 4;
        options.stub_count = 10;
        break;
      case 2:
        options.transit_count = 20;
        options.stub_count = 72;
        break;
      default:
        break;  // size 1: the stock world
    }
    slot = std::make_unique<gen::SyntheticInternet>(options);
  }
  return *slot;
}

void BM_FullControlPlaneConvergence(benchmark::State& state) {
  // Args: (topology size class, convergence jobs). Compare rows at fixed
  // size for the thread-scaling curve; the converged state is identical
  // on every row (tests/test_convergence_parity.cpp).
  gen::SyntheticInternet& world =
      WorldOfSize(static_cast<int>(state.range(0)));
  const auto jobs = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    sim::Network net(world.topology(), world.configs(), world.bgp_policy(),
                     {}, nullptr, nullptr, jobs);
    benchmark::DoNotOptimize(net.fibs().size());
  }
  state.counters["routers"] =
      static_cast<double>(world.topology().router_count());
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_FullControlPlaneConvergence)
    ->ArgNames({"size", "jobs"})
    ->ArgsProduct({{0, 1, 2}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalReconvergence(benchmark::State& state) {
  // Flap one core link of the largest MPLS-enabled AS (down + up per
  // iteration) through Network::OnLinkStateChange — the steady-state cost
  // of tracking a link-state change without a full rebuild.
  gen::SyntheticInternet& world = WorldOfSize(1);
  topo::Topology& topology = world.mutable_topology();
  topo::LinkId flapped = topo::kNoLink;
  std::size_t best = 0;
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    if (!topology.IsInternalLink(l)) continue;
    const topo::AsNumber asn =
        topology.router(topology.interface(topology.link(l).a).router).asn;
    const std::size_t members = topology.as(asn).routers.size();
    if (world.profile(asn).mpls && members > best) {
      best = members;
      flapped = l;
    }
  }
  sim::Network net(topology, world.configs(), world.bgp_policy(), {},
                   nullptr, nullptr, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    topology.SetLinkUp(flapped, false);
    net.OnLinkStateChange(flapped);
    topology.SetLinkUp(flapped, true);
    net.OnLinkStateChange(flapped);
  }
  state.counters["as_routers"] = static_cast<double>(best);
  state.counters["jobs"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_IncrementalReconvergence)
    ->ArgNames({"jobs"})
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_LdpDomainBuild(benchmark::State& state) {
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  for (auto _ : state) {
    mpls::LdpTables tables(testbed.topology(), testbed.configs(),
                           testbed.network().fibs());
    benchmark::DoNotOptimize(tables.DomainOf(2));
  }
}
BENCHMARK(BM_LdpDomainBuild);

void BM_FibLookup(benchmark::State& state) {
  // A representative mid-size table: one default route, a spread of /16
  // and /24 aggregates and a band of /32 host routes (loopbacks), like a
  // transit router's FIB in the synthetic Internet. The Arg selects the
  // matched prefix length: 32 (host-route hit), 24 (aggregate hit) or 0
  // (nothing more specific — the lookup walks every populated length and
  // lands on the default route).
  routing::Fib fib;
  routing::FibEntry e;
  e.prefix = *netbase::Prefix::Parse("0.0.0.0/0");
  fib.AddRoute(e);
  for (std::uint32_t i = 0; i < 64; ++i) {
    e.prefix = netbase::Prefix(netbase::Ipv4Address((10u << 24) | (i << 16)),
                               16);
    fib.AddRoute(e);
    e.prefix = netbase::Prefix(
        netbase::Ipv4Address((20u << 24) | (i << 8)), 24);
    fib.AddRoute(e);
    e.prefix = netbase::Prefix(netbase::Ipv4Address((30u << 24) | i), 32);
    fib.AddRoute(e);
  }
  fib.Seal();
  netbase::Ipv4Address target;
  switch (state.range(0)) {
    case 32: target = netbase::Ipv4Address((30u << 24) | 17); break;
    case 24:
      target = netbase::Ipv4Address((20u << 24) | (17u << 8) | 5);
      break;
    default: target = netbase::Ipv4Address(99u << 24); break;  // default route
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.Lookup(target));
  }
  state.counters["routes"] = static_cast<double>(fib.size());
}
BENCHMARK(BM_FibLookup)->Arg(32)->Arg(24)->Arg(0);

void BM_FibLookupWorld(benchmark::State& state) {
  // Router after router of the size-1 world, each FIB looks up every
  // vantage point (the destination of a campaign's reply hops) and the
  // next loopback of a rotation (a probe hop). Each table is touched once
  // per pass, so its lookups run as cache-cold as a campaign's hops do;
  // BM_FibLookup's one table stays in L1.
  gen::SyntheticInternet& world = WorldOfSize(1);
  const std::vector<routing::Fib>& fibs = world.network().fibs();
  const std::vector<netbase::Ipv4Address>& vps = world.vantage_points();
  const std::vector<netbase::Ipv4Address> loopbacks = world.AllLoopbacks();
  std::size_t next = 0;
  std::uint64_t lookups = 0;
  for (auto _ : state) {
    for (const routing::Fib& fib : fibs) {
      for (const netbase::Ipv4Address vp : vps) {
        benchmark::DoNotOptimize(fib.Lookup(vp));
      }
      benchmark::DoNotOptimize(fib.Lookup(loopbacks[next]));
      next = next + 1 == loopbacks.size() ? 0 : next + 1;
    }
    lookups += fibs.size() * (vps.size() + 1);
  }
  state.counters["routers"] = static_cast<double>(fibs.size());
  state.counters["lookups/s"] = benchmark::Counter(
      static_cast<double>(lookups), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FibLookupWorld);

void BM_LabelStackPushPop(benchmark::State& state) {
  // The per-hop stack discipline at inline depth: imposition of a full
  // 4-deep SID list followed by the pops along the path. Zero-allocation
  // by construction (tests/test_fastpath.cpp asserts it); this measures
  // the residual cost.
  for (auto _ : state) {
    netbase::LabelStack stack;
    for (std::uint32_t i = 0; i < netbase::kInlineLabelStackDepth; ++i) {
      netbase::LabelStackEntry lse;
      lse.label = 16 + i;
      lse.ttl = 255;
      stack.push_back(lse);
    }
    while (!stack.empty()) stack.pop_back();
    benchmark::DoNotOptimize(stack);
  }
}
BENCHMARK(BM_LabelStackPushPop);

void BM_MplsSwapPath(benchmark::State& state) {
  // One ping straight through the BRPR tunnel: imposition at PE1, swaps
  // across P1..P3, PHP pop, delivery, and the reply's return LSP. This is
  // the steady-state per-packet cost of the MPLS data plane, without the
  // traceroute TTL sweep around it.
  gen::Gns3Testbed testbed(
      {.scenario = gen::Gns3Scenario::kBackwardRecursive});
  const sim::Engine& engine = testbed.engine();
  netbase::Packet probe;
  probe.kind = netbase::PacketKind::kEchoRequest;
  probe.src = testbed.vantage_point();
  probe.dst = testbed.Address("CE2.left");
  probe.ip_ttl = 64;
  std::uint32_t id = 0;
  for (auto _ : state) {
    probe.probe_id = ++id;
    benchmark::DoNotOptimize(engine.Send(probe));
  }
  state.counters["packets/s"] =
      benchmark::Counter(static_cast<double>(id), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MplsSwapPath);

void BM_TracerouteThroughTunnel(benchmark::State& state) {
  gen::Gns3Testbed testbed(
      {.scenario = gen::Gns3Scenario::kBackwardRecursive});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  const auto target = testbed.Address("CE2.left");
  for (auto _ : state) {
    benchmark::DoNotOptimize(prober.Traceroute(target));
  }
  state.counters["probes/s"] = benchmark::Counter(
      static_cast<double>(prober.probes_sent()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TracerouteThroughTunnel);

/// The prober's reply-memo activity: the share of replies replayed
/// instead of walked, and the hops the replays saved per probe.
void SetFastPathCounters(benchmark::State& state,
                         const probe::Prober& prober) {
  const sim::ReplyMemo::Counts& memo = prober.reply_memo().counts();
  const auto replies = static_cast<double>(memo.hits + memo.misses);
  const auto probes = static_cast<double>(prober.probes_sent());
  const auto resumed = static_cast<double>(
      prober.forward_cursor().counts().resumed_hops);
  state.counters["memo_hit_frac"] =
      replies > 0 ? static_cast<double>(memo.hits) / replies : 0.0;
  state.counters["replayed_hops/probe"] =
      probes > 0 ? static_cast<double>(memo.replayed_hops) / probes : 0.0;
  state.counters["resumed_hops/probe"] = probes > 0 ? resumed / probes : 0.0;
}

void BM_SequentialTraceroute(benchmark::State& state) {
  // Paris traceroutes from one vantage point over a rotation of every
  // loopback of a real world (BM_TracerouteThroughTunnel runs on the tiny
  // L1-warm testbed instead). The counters say how much the reply memo
  // and the forward cursor skipped.
  gen::SyntheticInternet& world =
      WorldOfSize(static_cast<int>(state.range(0)));
  probe::Prober prober(world.engine(), world.vantage_points().front());
  const auto loopbacks = world.AllLoopbacks();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prober.Traceroute(loopbacks[i % loopbacks.size()]));
    ++i;
  }
  state.counters["routers"] =
      static_cast<double>(world.topology().router_count());
  state.counters["probes/s"] = benchmark::Counter(
      static_cast<double>(prober.probes_sent()),
      benchmark::Counter::kIsRate);
  SetFastPathCounters(state, prober);
}
BENCHMARK(BM_SequentialTraceroute)
    ->ArgNames({"size"})
    ->ArgsProduct({{0, 1, 2}});

void BM_PingAcrossInternet(benchmark::State& state) {
  auto& net = const_cast<gen::SyntheticInternet&>(SharedNet());
  probe::Prober prober(net.engine(), net.vantage_points().front());
  const auto loopbacks = net.AllLoopbacks();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prober.Ping(loopbacks[i % loopbacks.size()]));
    ++i;
  }
}
BENCHMARK(BM_PingAcrossInternet);

void BM_TunnelRevelation(benchmark::State& state) {
  gen::Gns3Testbed testbed(
      {.scenario = gen::Gns3Scenario::kBackwardRecursive});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  const auto x = testbed.Address("PE1.left");
  const auto y = testbed.Address("PE2.left");
  for (auto _ : state) {
    reveal::Revelator revelator(prober);
    benchmark::DoNotOptimize(revelator.Reveal(x, y));
  }
}
BENCHMARK(BM_TunnelRevelation);

void BM_FullCampaign(benchmark::State& state) {
  for (auto _ : state) {
    gen::SyntheticInternet net({.seed = 42,
                                .transit_count = 4,
                                .stub_count = 10,
                                .vp_count = 4});
    campaign::Campaign campaign(net.engine(), net.vantage_points(), {});
    benchmark::DoNotOptimize(campaign.Run(net.AllLoopbacks()));
  }
}
BENCHMARK(BM_FullCampaign)->Unit(benchmark::kMillisecond);

void BM_CampaignParallelScaling(benchmark::State& state) {
  // One fixed synthetic Internet (built once, shared across thread
  // counts), 8 vantage points so every jobs level up to 8 has a full
  // shard to chew on. Compare the per-iteration times across the
  // jobs=1/2/4/8 rows for the end-to-end campaign speedup; the campaign
  // result itself is identical for every row.
  static gen::SyntheticInternet* net =
      new gen::SyntheticInternet({.seed = 42,
                                  .transit_count = 6,
                                  .stub_count = 16,
                                  .vp_count = 8});
  const auto loopbacks = net->AllLoopbacks();
  campaign::CampaignOptions options;
  options.jobs = static_cast<std::size_t>(state.range(0));
  std::uint64_t probes = 0;
  for (auto _ : state) {
    campaign::Campaign campaign(net->engine(), net->vantage_points(),
                                options);
    const auto result = campaign.Run(loopbacks);
    benchmark::DoNotOptimize(result.revelations.size());
    probes += result.probes_sent;
  }
  state.counters["jobs"] = static_cast<double>(options.jobs);
  state.counters["probes/s"] = benchmark::Counter(
      static_cast<double>(probes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignParallelScaling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Process peak RSS in MB (Linux ru_maxrss is KB, macOS bytes). Monotone
/// over the process lifetime — meaningful as a per-row number only when
/// the row runs in its own process (--benchmark_filter, as the CI
/// ceiling check does) or when rows run smallest-world-first, which is
/// how BM_CampaignScaling registers them.
double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

/// Hierarchical (internet-at-scale) worlds for the streaming-campaign
/// scaling curve, built once per size class. Size 2 is the ~90k-router
/// world — minutes of campaign per iteration, so it only registers when
/// WORMHOLE_BENCH_HUGE is set (see RegisterHugeCampaignScaling).
gen::SyntheticInternet& ScalingWorldOfSize(int size) {
  static auto* worlds =
      new std::map<int, std::unique_ptr<gen::SyntheticInternet>>();
  std::unique_ptr<gen::SyntheticInternet>& slot = (*worlds)[size];
  if (!slot) {
    gen::InternetOptions options;
    options.seed = 42;
    options.hierarchical = true;
    options.vp_count = 4;
    switch (size) {
      case 0:  // ~600 routers
        options.tier1_count = 2;
        options.transit_count = 6;
        options.stub_count = 60;
        break;
      case 1:  // ~9k routers
        options.tier1_count = 2;
        options.transit_count = 40;
        options.transit_routers = 32;
        options.stub_count = 2400;
        break;
      default:  // ~90k routers
        options.tier1_count = 3;
        options.tier1_routers = 150;
        options.transit_count = 300;
        options.transit_routers = 40;
        options.stub_count = 25000;
        break;
    }
    slot = std::make_unique<gen::SyntheticInternet>(options);
  }
  return *slot;
}

void BM_CampaignScaling(benchmark::State& state) {
  // The streaming-campaign scaling surface. Args: (world size class,
  // discovery-target cap — 0 probes every loopback, stride-sampled
  // otherwise — and stream shard size: 0 is buffered mode, > 0 is
  // streaming mode, and the magnitude is ignored). Compare shard=0 to
  // shard>0 rows at fixed size/targets: same bytes out
  // (tests/test_streaming_campaign.cpp), the peak_rss_mb counter is the
  // difference. The targeted phase uses the paper's disjoint VP
  // shards (shard_targets) so target volume scales the work, not the
  // VP count.
  gen::SyntheticInternet& world =
      ScalingWorldOfSize(static_cast<int>(state.range(0)));
  const auto all = world.AllLoopbacks();
  std::vector<netbase::Ipv4Address> targets;
  const auto cap = static_cast<std::size_t>(state.range(1));
  if (cap == 0 || cap >= all.size()) {
    targets = all;
  } else {
    const std::size_t stride = all.size() / cap;
    for (std::size_t i = 0; i < all.size() && targets.size() < cap;
         i += stride) {
      targets.push_back(all[i]);
    }
  }
  campaign::CampaignOptions options;
  options.jobs = 1;
  options.shard_targets = true;
  options.stream_shard_size = static_cast<std::size_t>(state.range(2));
  std::uint64_t probes = 0;
  std::uint64_t traces = 0;
  for (auto _ : state) {
    campaign::Campaign campaign(world.engine(), world.vantage_points(),
                                options);
    const auto result = campaign.Run(targets);
    probes += result.probes_sent;
    traces += result.trace_count;
    benchmark::DoNotOptimize(result.revelations.size());
  }
  state.counters["routers"] =
      static_cast<double>(world.topology().router_count());
  state.counters["targets"] = static_cast<double>(targets.size());
  state.counters["traces"] =
      static_cast<double>(traces) /
      static_cast<double>(state.iterations());
  state.counters["probes/s"] = benchmark::Counter(
      static_cast<double>(probes), benchmark::Counter::kIsRate);
  state.counters["peak_rss_mb"] = PeakRssMb();
}
BENCHMARK(BM_CampaignScaling)
    ->ArgNames({"size", "targets", "shard"})
    ->ArgsProduct({{0, 1}, {2048, 0}, {0, 64}})
    ->Unit(benchmark::kMillisecond);

/// The flap target for BM_DeltaReprobe: an internal link of an
/// MPLS-enabled transit AS — churn inside a carrier, the paper's setting
/// and the case delta re-probing is built for (a stub flap would be
/// trivially cheap, a tier-1 flap dirties most pairs). Transits that
/// peer with a vantage point's stub AS are skipped: every forward path
/// from that VP crosses its provider, so flapping it dirties ~all of the
/// VP's pairs — that is the full-rerun regime BM_CampaignScaling already
/// measures, not the steady-state "churn in a distant carrier" this
/// benchmark models.
topo::LinkId PickTransitFlapLink(const gen::SyntheticInternet& world) {
  const topo::Topology& topology = world.topology();
  std::set<topo::AsNumber> vp_ases;
  for (const netbase::Ipv4Address vp : world.vantage_points()) {
    if (const topo::Host* host = topology.FindHost(vp)) {
      vp_ases.insert(topology.router(host->gateway).asn);
    }
  }
  std::set<topo::AsNumber> vp_adjacent;
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    if (topology.IsInternalLink(l)) continue;
    const topo::AsNumber a =
        topology.router(topology.interface(topology.link(l).a).router).asn;
    const topo::AsNumber b =
        topology.router(topology.interface(topology.link(l).b).router).asn;
    if (vp_ases.contains(a)) vp_adjacent.insert(b);
    if (vp_ases.contains(b)) vp_adjacent.insert(a);
  }
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    if (!topology.IsInternalLink(l)) continue;
    const topo::AsNumber asn =
        topology.router(topology.interface(topology.link(l).a).router).asn;
    const gen::AsProfile& profile = world.profile(asn);
    if (profile.role == gen::AsRole::kTransit && profile.mpls &&
        !vp_adjacent.contains(asn)) {
      return l;
    }
  }
  return topo::kNoLink;
}

void BM_DeltaReprobe(benchmark::State& state) {
  // Flap-to-fresh-report latency (docs/incremental.md). Args: (world
  // size class, delta). Each iteration flaps one transit-internal link
  // down and back up; after every flap the campaign report is brought
  // back up to date. delta=0 re-runs the full streaming campaign (the
  // baseline, matching BM_CampaignScaling's shard=64 configuration);
  // delta=1 invalidates an epoch-versioned TraceCache with the
  // ConvergenceDelta (the entries whose walks crossed the flapped AS go
  // stale) and re-probes only the dirty (vp, target) pairs — identical output bytes
  // (tests/test_convergence_parity.cpp), so the rows differ only in
  // latency and the reprobe_frac counter.
  gen::SyntheticInternet& world =
      ScalingWorldOfSize(static_cast<int>(state.range(0)));
  topo::Topology& topology = world.mutable_topology();
  const bool use_delta = state.range(1) != 0;
  const auto targets = world.AllLoopbacks();
  const topo::LinkId flapped = PickTransitFlapLink(world);
  if (flapped == topo::kNoLink) {
    state.SkipWithError("no MPLS transit-internal link");
    return;
  }

  campaign::CampaignOptions options;
  options.jobs = 1;
  options.shard_targets = true;
  options.stream_shard_size = 64;
  campaign::Campaign campaign(world.engine(), world.vantage_points(),
                              options);
  campaign::TraceCache cache;
  // Warm fill (untimed): the steady state is "cache populated, link
  // churns" — the cold fill is just a streaming campaign.
  if (use_delta) benchmark::DoNotOptimize(campaign.RunDelta(targets, cache));

  std::uint64_t pairs_total = 0;
  std::uint64_t pairs_reprobed = 0;
  std::uint64_t reports = 0;
  for (auto _ : state) {
    for (const bool up : {false, true}) {
      topology.SetLinkUp(flapped, up);
      const routing::ConvergenceDelta delta =
          world.network().OnLinkStateChange(flapped);
      if (use_delta) {
        cache.Invalidate(delta);
        const auto result = campaign.RunDelta(targets, cache);
        pairs_total += result.delta_pairs_total;
        pairs_reprobed += result.delta_pairs_reprobed;
        benchmark::DoNotOptimize(result.revelations.size());
      } else {
        campaign::Campaign cold(world.engine(), world.vantage_points(),
                                options);
        const auto result = cold.Run(targets);
        benchmark::DoNotOptimize(result.revelations.size());
      }
      ++reports;
    }
  }
  state.counters["routers"] =
      static_cast<double>(world.topology().router_count());
  state.counters["reports/s"] = benchmark::Counter(
      static_cast<double>(reports), benchmark::Counter::kIsRate);
  if (use_delta) {
    state.counters["reprobe_frac"] =
        pairs_total == 0 ? 0.0
                         : static_cast<double>(pairs_reprobed) /
                               static_cast<double>(pairs_total);
    state.counters["cache_mb"] =
        static_cast<double>(cache.RetainedBytes()) / (1024.0 * 1024.0);
  }
  state.counters["peak_rss_mb"] = PeakRssMb();
}
BENCHMARK(BM_DeltaReprobe)
    ->ArgNames({"size", "delta"})
    ->ArgsProduct({{1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// The ~90k-router, >1M-probe acceptance point (docs/scaling.md). Opt in
/// with WORMHOLE_BENCH_HUGE=1: one iteration takes minutes and builds a
/// multi-GB world, which has no place in the CI smoke run.
const bool kHugeRegistered = [] {
  if (std::getenv("WORMHOLE_BENCH_HUGE") == nullptr) return false;
  // Streaming and buffered rows at the same point — run each under its
  // own --benchmark_filter so the monotone RSS counter stays per-row.
  benchmark::RegisterBenchmark("BM_CampaignScaling", BM_CampaignScaling)
      ->ArgNames({"size", "targets", "shard"})
      ->Args({2, 0, 4096})
      ->Args({2, 0, 0})
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  benchmark::RegisterBenchmark("BM_DeltaReprobe", BM_DeltaReprobe)
      ->ArgNames({"size", "delta"})
      ->Args({2, 0})
      ->Args({2, 1})
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
