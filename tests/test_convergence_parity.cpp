// Convergence parity: the phased, thread-pooled control-plane build and the
// incremental reconvergence path must both be *byte-identical* to the serial
// full rebuild — same sealed FIB contents, same LDP label tables — in the
// style of test_golden_campaign. Also pins the SpfEngine's "exactly one SPF
// per (AS, router) per convergence" contract via the counting hook.
//
// These tests run in the TSan CI matrix: the jobs>1 builds exercise the
// parallel Prime / install / seal phases under the race detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign_report.h"
#include "campaign/campaign.h"
#include "campaign/trace_cache.h"
#include "gen/internet.h"
#include "mpls/ldp.h"
#include "probe/trace.h"
#include "routing/as_path.h"
#include "routing/delta.h"
#include "routing/fib.h"
#include "routing/igp.h"
#include "sim/network.h"
#include "topo/topology.h"

namespace wormhole {
namespace {

gen::InternetOptions SmallWorld() {
  gen::InternetOptions options;
  options.seed = 17;
  options.tier1_count = 2;
  options.transit_count = 4;
  options.stub_count = 10;
  options.vp_count = 3;
  return options;
}

/// Serializes every sealed FIB entry and every LDP binding of `net` into
/// one deterministic blob. Two Networks with equal dumps forward packets
/// identically.
std::string DumpControlPlane(sim::Network& net) {
  const topo::Topology& topology = net.topology();
  std::ostringstream out;
  for (std::size_t r = 0; r < topology.router_count(); ++r) {
    out << "R " << r << "\n";
    for (const routing::FibEntry* entry : net.fibs()[r].Entries()) {
      out << "F " << entry->prefix.ToString() << " s"
          << static_cast<int>(entry->source) << " m" << entry->metric
          << " nh[";
      for (const routing::NextHop& hop : entry->next_hops) {
        out << hop.link << ":" << hop.neighbor << ",";
      }
      out << "] bgp " << entry->bgp_next_hop.ToString() << "\n";
    }
  }
  for (const topo::AsNumber asn : topology.AsNumbers()) {
    const mpls::LdpDomain* domain = net.ldp().DomainOf(asn);
    if (domain == nullptr) continue;
    out << "L " << asn << "\n";
    for (const topo::RouterId rid : topology.as(asn).routers) {
      std::vector<netbase::Prefix> fecs = domain->FecsOf(rid);
      std::sort(fecs.begin(), fecs.end());
      for (const netbase::Prefix& fec : fecs) {
        const auto binding = domain->BindingOf(rid, fec);
        EXPECT_TRUE(binding.has_value()) << "advertised FEC without binding";
        if (!binding.has_value()) continue;
        out << "B " << rid << " " << fec.ToString() << " k"
            << static_cast<int>(binding->kind) << " l" << binding->label
            << "\n";
      }
    }
  }
  return out.str();
}

void ExpectSameDump(const std::string& got, const std::string& want) {
  ASSERT_EQ(got.size(), want.size());
  const auto mismatch =
      std::mismatch(got.begin(), got.end(), want.begin()).first;
  EXPECT_TRUE(mismatch == got.end())
      << "first divergence at byte " << (mismatch - got.begin()) << ": ..."
      << got.substr(static_cast<std::size_t>(std::max<std::ptrdiff_t>(
                        0, mismatch - got.begin() - 40)),
                    80)
      << "...";
}

/// The engine's routes home (the table reply hops index instead of a
/// longest-prefix match) must be each router's Lookup of each host in
/// `net`, and route like the full rebuild `rebuilt`. The data-plane parity
/// tests cannot see a stale row: their reference path reads it too.
void ExpectFreshRoutesHome(sim::Network& net, sim::Network& rebuilt) {
  const topo::Topology& topology = net.topology();
  const std::vector<topo::Host>& hosts = topology.hosts();
  ASSERT_FALSE(hosts.empty());
  for (topo::RouterId r = 0; r < topology.router_count(); ++r) {
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      const routing::FibEntry* got = net.engine().RouteHome(r, h);
      ASSERT_EQ(got, net.fibs()[r].Lookup(hosts[h].address))
          << "router " << r << " host " << h;
      const routing::FibEntry* want = rebuilt.engine().RouteHome(r, h);
      ASSERT_EQ(got == nullptr, want == nullptr)
          << "router " << r << " host " << h;
      if (got == nullptr) continue;
      EXPECT_EQ(got->prefix, want->prefix) << "router " << r << " host " << h;
      EXPECT_TRUE(std::equal(got->next_hops.begin(), got->next_hops.end(),
                             want->next_hops.begin(), want->next_hops.end()))
          << "router " << r << " host " << h;
    }
  }
}

TEST(ConvergenceParity, ParallelBuildMatchesSerialByteForByte) {
  gen::SyntheticInternet world(SmallWorld());
  sim::Network serial(world.topology(), world.configs(), world.bgp_policy(),
                      {}, nullptr, nullptr, /*convergence_jobs=*/1);
  const std::string want = DumpControlPlane(serial);
  ASSERT_FALSE(want.empty());

  for (const std::size_t jobs : {std::size_t{3}, std::size_t{8}}) {
    sim::Network parallel(world.topology(), world.configs(),
                          world.bgp_policy(), {}, nullptr, nullptr, jobs);
    const std::string got = DumpControlPlane(parallel);
    ExpectSameDump(got, want);
  }
}

/// The first internal link of an MPLS-enabled AS (an LSP hop, so the flap
/// also churns the LDP domain), or any internal link as fallback.
topo::LinkId PickInternalLink(const gen::SyntheticInternet& world) {
  const topo::Topology& topology = world.topology();
  topo::LinkId fallback = topo::kNoLink;
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    if (!topology.IsInternalLink(l)) continue;
    if (fallback == topo::kNoLink) fallback = l;
    const topo::AsNumber asn =
        topology.router(topology.interface(topology.link(l).a).router).asn;
    if (world.profile(asn).mpls) return l;
  }
  return fallback;
}

topo::LinkId PickExternalLink(const gen::SyntheticInternet& world) {
  const topo::Topology& topology = world.topology();
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    if (!topology.IsInternalLink(l)) return l;
  }
  return topo::kNoLink;
}

TEST(ConvergenceParity, IncrementalInternalFlapMatchesFullRebuild) {
  gen::SyntheticInternet world(SmallWorld());
  topo::Topology& topology = world.mutable_topology();
  const topo::LinkId link = PickInternalLink(world);
  ASSERT_NE(link, topo::kNoLink);

  sim::Network incremental(topology, world.configs(), world.bgp_policy(), {},
                           nullptr, nullptr, /*convergence_jobs=*/2);
  const std::string before = DumpControlPlane(incremental);

  topology.SetLinkUp(link, false);
  incremental.OnLinkStateChange(link);
  sim::Network rebuilt(topology, world.configs(), world.bgp_policy(), {},
                       nullptr, nullptr, /*convergence_jobs=*/1);
  ExpectSameDump(DumpControlPlane(incremental), DumpControlPlane(rebuilt));
  ExpectFreshRoutesHome(incremental, rebuilt);

  // Restoring the link must restore the original control plane exactly.
  topology.SetLinkUp(link, true);
  incremental.OnLinkStateChange(link);
  ExpectSameDump(DumpControlPlane(incremental), before);
  sim::Network restored(topology, world.configs(), world.bgp_policy(), {},
                        nullptr, nullptr, /*convergence_jobs=*/1);
  ExpectFreshRoutesHome(incremental, restored);
}

TEST(ConvergenceParity, IncrementalExternalFlapMatchesFullRebuild) {
  gen::SyntheticInternet world(SmallWorld());
  topo::Topology& topology = world.mutable_topology();
  const topo::LinkId link = PickExternalLink(world);
  ASSERT_NE(link, topo::kNoLink);

  sim::Network incremental(topology, world.configs(), world.bgp_policy(), {},
                           nullptr, nullptr, /*convergence_jobs=*/2);
  const std::string before = DumpControlPlane(incremental);

  topology.SetLinkUp(link, false);
  incremental.OnLinkStateChange(link);
  sim::Network rebuilt(topology, world.configs(), world.bgp_policy(), {},
                       nullptr, nullptr, /*convergence_jobs=*/1);
  ExpectSameDump(DumpControlPlane(incremental), DumpControlPlane(rebuilt));
  ExpectFreshRoutesHome(incremental, rebuilt);

  topology.SetLinkUp(link, true);
  incremental.OnLinkStateChange(link);
  ExpectSameDump(DumpControlPlane(incremental), before);
  sim::Network restored(topology, world.configs(), world.bgp_policy(), {},
                        nullptr, nullptr, /*convergence_jobs=*/1);
  ExpectFreshRoutesHome(incremental, restored);
}

TEST(ConvergenceParity, OneSpfPerRouterPerConvergence) {
  gen::SyntheticInternet world(SmallWorld());
  topo::Topology& topology = world.mutable_topology();
  sim::Network net(topology, world.configs(), world.bgp_policy(), {},
                   nullptr, nullptr, /*convergence_jobs=*/2);

  // Full convergence: IGP install, BGP hot-potato and LDP all shared the
  // cache — exactly one Dijkstra per router, none duplicated.
  EXPECT_EQ(net.spf().computations(), topology.router_count());

  // Ground-truth queries ride the cache too.
  const topo::AsNumber asn = topology.AsNumbers().front();
  const std::vector<topo::RouterId>& members = topology.as(asn).routers;
  ASSERT_GE(members.size(), 2u);
  (void)routing::IgpDistance(net.spf(), members[0], members[1]);
  (void)routing::IgpHopDistance(net.spf(), members[0], members[1]);
  EXPECT_EQ(net.spf().computations(), topology.router_count());

  // An internal flap recomputes only the affected AS's members.
  const topo::LinkId link = PickInternalLink(world);
  ASSERT_NE(link, topo::kNoLink);
  const topo::AsNumber flapped =
      topology.router(topology.interface(topology.link(link).a).router).asn;
  topology.SetLinkUp(link, false);
  net.OnLinkStateChange(link);
  EXPECT_EQ(net.spf().computations(),
            topology.router_count() + topology.as(flapped).routers.size());

  // An external flap reuses every cached tree: zero new SPF runs.
  const topo::LinkId external = PickExternalLink(world);
  ASSERT_NE(external, topo::kNoLink);
  topology.SetLinkUp(external, false);
  net.OnLinkStateChange(external);
  EXPECT_EQ(net.spf().computations(),
            topology.router_count() + topology.as(flapped).routers.size());
}

// ---------------------------------------------------------------------------
// Delta re-probing (docs/incremental.md): the epoch-versioned TraceCache +
// dirty-set invalidation must keep every RunDelta byte-identical to a cold
// campaign against the current routing state. The exhaustive per-link test
// below is the safety net for the dirty-set over-approximation rule — a
// single under-approximated pair shows up as a byte diff.

/// A world small enough to flap EVERY link with a campaign parity check
/// per flap.
gen::InternetOptions TinyWorld(bool hierarchical) {
  gen::InternetOptions options;
  options.seed = 11;
  options.tier1_count = 2;
  options.transit_count = 2;
  options.stub_count = hierarchical ? 4 : 3;
  options.tier1_routers = 5;
  options.transit_routers = 4;
  options.stub_routers = 2;
  options.vp_count = 2;
  options.hierarchical = hierarchical;
  return options;
}

/// Everything a delta run must reproduce. Engine stats are deliberately
/// excluded: serving a trace from the cache skips the simulated packets a
/// cold run would inject, and that saving is the whole point. Probe
/// accounting IS included — SkipProbes replays cached id budgets, so the
/// totals must match a cold run exactly.
std::string CampaignBytes(const campaign::CampaignResult& result,
                          const topo::Topology& topology) {
  std::ostringstream out;
  out << "S probes_sent " << result.probes_sent << "\n";
  out << "S revelation_traces " << result.revelation_traces << "\n";
  out << "S revealed_count " << result.revealed_count() << "\n";
  out << "S trace_count " << result.trace_count << "\n";
  analysis::WriteCampaignReport(out, result, topology);
  return out.str();
}

campaign::CampaignOptions DeltaCampaignOptions(std::size_t jobs) {
  campaign::CampaignOptions options;
  options.jobs = jobs;
  options.stream_shard_size = 16;
  return options;
}

/// A cold reference campaign against the engine's CURRENT routing state:
/// fresh probers, no cache.
std::string ColdBytes(gen::SyntheticInternet& world,
                      const std::vector<netbase::Ipv4Address>& targets) {
  campaign::Campaign cold(world.engine(), world.vantage_points(),
                          DeltaCampaignOptions(/*jobs=*/1));
  return CampaignBytes(cold.Run(targets), world.topology());
}

/// A deterministic flap storm: each Flap toggles one link that an LCG
/// draws from `links`, so links go down and later come back up
/// interleaved, and returns the reconvergence's delta.
class FlapStorm {
 public:
  FlapStorm(gen::SyntheticInternet& world, std::vector<topo::LinkId> links,
            std::uint64_t seed)
      : world_(world), links_(std::move(links)), x_(seed) {}

  routing::ConvergenceDelta Flap() {
    x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
    const topo::LinkId link = links_[(x_ >> 33) % links_.size()];
    topo::Topology& topology = world_.mutable_topology();
    topology.SetLinkUp(link, !topology.link(link).up);
    return world_.network().OnLinkStateChange(link);
  }

 private:
  gen::SyntheticInternet& world_;
  std::vector<topo::LinkId> links_;
  std::uint64_t x_;
};

std::vector<topo::LinkId> AllLinks(const gen::SyntheticInternet& world) {
  std::vector<topo::LinkId> links(world.topology().link_count());
  for (topo::LinkId l = 0; l < links.size(); ++l) links[l] = l;
  return links;
}

/// The links inside one AS: their flaps are kIntraAs deltas, which never
/// reset the cache the way a kGlobal delta does.
std::vector<topo::LinkId> InternalLinks(const gen::SyntheticInternet& world) {
  std::vector<topo::LinkId> links;
  for (const topo::LinkId l : AllLinks(world)) {
    if (world.topology().IsInternalLink(l)) links.push_back(l);
  }
  return links;
}

void Invalidate(campaign::TraceCache& cache, gen::SyntheticInternet& world,
                const routing::ConvergenceDelta& delta) {
  const routing::AsPathOracle oracle(world.topology(),
                                     world.network().bgp_level(),
                                     world.network().bgp_policy());
  cache.Invalidate(delta, oracle);
}

/// Runs the Begin that RunDelta starts with and reports whether it
/// compacted: short of a kGlobal reset, only a compaction shrinks a cache.
bool Compacts(campaign::TraceCache& cache, gen::SyntheticInternet& world) {
  const std::size_t before = cache.RetainedBytes();
  cache.Begin(world.topology(), world.vantage_points().size(),
              world.engine().convergence_epoch());
  return cache.RetainedBytes() < before;
}

/// The RetainedBytes a long-lived cache may hold at the world's current
/// state: 4x those of a fresh cache filled by one RunDelta. A cache keeps
/// as many dead bytes as live ones before it compacts (2x), and its
/// vectors may be up to twice as long as their contents (2x again); a
/// fresh fill holds just the live entries.
std::size_t MemoryBound(gen::SyntheticInternet& world,
                        const std::vector<netbase::Ipv4Address>& targets,
                        const campaign::CampaignOptions& options) {
  campaign::Campaign fresh(world.engine(), world.vantage_points(), options);
  campaign::TraceCache cache;
  (void)fresh.RunDelta(targets, cache);
  return 4 * cache.RetainedBytes();
}

void ExhaustiveFlapParity(bool hierarchical) {
  gen::SyntheticInternet world(TinyWorld(hierarchical));
  topo::Topology& topology = world.mutable_topology();
  const auto targets = world.AllLoopbacks();

  campaign::Campaign delta_campaign(world.engine(), world.vantage_points(),
                                    DeltaCampaignOptions(/*jobs=*/2));
  campaign::TraceCache cache;

  // Cold fill: with an empty cache RunDelta IS a cold run.
  const std::string baseline = ColdBytes(world, targets);
  {
    const auto fill = delta_campaign.RunDelta(targets, cache);
    EXPECT_EQ(CampaignBytes(fill, topology), baseline);
    EXPECT_EQ(fill.delta_pairs_reprobed, fill.delta_pairs_total);
  }

  std::uint64_t pairs_total = 0;
  std::uint64_t pairs_reprobed = 0;
  for (topo::LinkId link = 0; link < topology.link_count(); ++link) {
    for (const bool up : {false, true}) {
      topology.SetLinkUp(link, up);
      const routing::ConvergenceDelta delta =
          world.network().OnLinkStateChange(link);
      ASSERT_EQ(delta.epoch, world.network().convergence_epoch());
      const routing::AsPathOracle oracle(topology,
                                         world.network().bgp_level(),
                                         world.network().bgp_policy());
      cache.Invalidate(delta, oracle);
      const auto result = delta_campaign.RunDelta(targets, cache);
      pairs_total += result.delta_pairs_total;
      pairs_reprobed += result.delta_pairs_reprobed;
      const std::string want = up ? baseline : ColdBytes(world, targets);
      ExpectSameDump(CampaignBytes(result, topology), want);
    }
  }
  // The dirty sets must actually be subsets somewhere, or the cache is a
  // no-op: across the sweep a meaningful share of pairs is served cached.
  ASSERT_GT(pairs_total, 0u);
  EXPECT_LT(pairs_reprobed, pairs_total);
}

TEST(DeltaReprobe, ExhaustiveFlapParityFlat) {
  ExhaustiveFlapParity(/*hierarchical=*/false);
}

TEST(DeltaReprobe, ExhaustiveFlapParityHierarchical) {
  ExhaustiveFlapParity(/*hierarchical=*/true);
}

TEST(DeltaReprobe, FlapStormMatchesColdAtEveryStep) {
  gen::SyntheticInternet world(SmallWorld());
  const topo::Topology& topology = world.topology();
  const auto targets = world.AllLoopbacks();
  campaign::Campaign delta_campaign(world.engine(), world.vantage_points(),
                                    DeltaCampaignOptions(/*jobs=*/2));
  campaign::TraceCache cache;
  (void)delta_campaign.RunDelta(targets, cache);

  FlapStorm storm(world, AllLinks(world), 0x9E3779B97F4A7C15ull);
  for (int flap = 0; flap < 6; ++flap) {
    Invalidate(cache, world, storm.Flap());
    const auto result = delta_campaign.RunDelta(targets, cache);
    ExpectSameDump(CampaignBytes(result, topology),
                   ColdBytes(world, targets));
  }
}

TEST(DeltaReprobe, FlapStormStaysWithinMemoryBound) {
  // Intra-AS flaps only: a kGlobal delta empties the cache, which would
  // bound it for free. Each flap leaves its dirty pairs' old entries
  // dead, so a cache that never drops them outgrows the bound long before
  // the storm ends.
  gen::SyntheticInternet world(SmallWorld());
  const topo::Topology& topology = world.topology();
  const auto targets = world.AllLoopbacks();
  const campaign::CampaignOptions options = DeltaCampaignOptions(/*jobs=*/2);
  campaign::Campaign delta_campaign(world.engine(), world.vantage_points(),
                                    options);
  campaign::TraceCache cache;
  (void)delta_campaign.RunDelta(targets, cache);

  FlapStorm storm(world, InternalLinks(world), 0x2545F4914F6CDD1Dull);
  for (int flap = 0; flap < 200; ++flap) {
    const routing::ConvergenceDelta delta = storm.Flap();
    ASSERT_NE(delta.scope, routing::ConvergenceDelta::Scope::kGlobal);
    Invalidate(cache, world, delta);
    const auto result = delta_campaign.RunDelta(targets, cache);
    ExpectSameDump(CampaignBytes(result, topology),
                   ColdBytes(world, targets));
    ASSERT_LE(cache.RetainedBytes(), MemoryBound(world, targets, options))
        << "after flap " << flap;
  }
}

TEST(DeltaReprobe, EpochMovesWithoutInvalidateStayWithinMemoryBound) {
  // An owner that reconverges without invalidating leaves every entry an
  // epoch behind: each RunDelta re-traces every pair (the cache heals
  // itself), and its Begin drops the entries the previous runs left.
  gen::SyntheticInternet world(SmallWorld());
  const topo::Topology& topology = world.topology();
  const auto targets = world.AllLoopbacks();
  const campaign::CampaignOptions options = DeltaCampaignOptions(/*jobs=*/2);
  campaign::Campaign delta_campaign(world.engine(), world.vantage_points(),
                                    options);
  campaign::TraceCache cache;
  (void)delta_campaign.RunDelta(targets, cache);

  FlapStorm storm(world, AllLinks(world), 0xA0761D6478BD642Full);
  for (int flap = 0; flap < 8; ++flap) {
    (void)storm.Flap();
    const auto result = delta_campaign.RunDelta(targets, cache);
    EXPECT_EQ(result.delta_pairs_reprobed, result.delta_pairs_total);
    ExpectSameDump(CampaignBytes(result, topology),
                   ColdBytes(world, targets));
    ASSERT_LE(cache.RetainedBytes(), MemoryBound(world, targets, options))
        << "after flap " << flap;
  }
}

TEST(DeltaReprobe, LossyFlapStormAtShardOneMatchesCold) {
  // ICMP loss makes reply bytes depend on probe ids, so the cache serves a
  // trace only at the exact id offset it was recorded at (strict
  // offsets). Shard size 1 puts an epoch check and a cache decision
  // between every two traces, the storm moves routes under the cache, and
  // every flap bumps the epoch that empties the probers' reply memos —
  // all three at once, against a cold campaign at every step. Once a
  // VP's re-probe shifts its ids, every later pair of that VP is re-traced
  // at the epoch its entry already carries, so each run supersedes
  // entries of its own epoch; the storm runs until such entries have
  // gone through compactions, under the memory bound.
  gen::InternetOptions options = SmallWorld();
  options.icmp_loss = 0.05;
  gen::SyntheticInternet world(options);
  ASSERT_TRUE(world.engine().RepliesDependOnProbeIds());
  const topo::Topology& topology = world.topology();
  const auto targets = world.AllLoopbacks();
  campaign::CampaignOptions delta_options = DeltaCampaignOptions(/*jobs=*/2);
  delta_options.stream_shard_size = 1;
  campaign::Campaign delta_campaign(world.engine(), world.vantage_points(),
                                    delta_options);
  campaign::TraceCache cache;
  ExpectSameDump(
      CampaignBytes(delta_campaign.RunDelta(targets, cache), topology),
      ColdBytes(world, targets));

  FlapStorm storm(world, AllLinks(world), 0xD1B54A32D192ED03ull);
  std::uint64_t pairs_total = 0;
  std::uint64_t pairs_reprobed = 0;
  int compactions = 0;
  for (int flap = 0; flap < 16; ++flap) {
    Invalidate(cache, world, storm.Flap());
    if (Compacts(cache, world)) ++compactions;
    const auto result = delta_campaign.RunDelta(targets, cache);
    pairs_total += result.delta_pairs_total;
    pairs_reprobed += result.delta_pairs_reprobed;
    ExpectSameDump(CampaignBytes(result, topology),
                   ColdBytes(world, targets));
    ASSERT_LE(cache.RetainedBytes(),
              MemoryBound(world, targets, delta_options))
        << "after flap " << flap;
  }
  // Strict offsets still let the cache serve the pairs before a VP's
  // first re-probe, so the storm exercised both sides of each decision.
  ASSERT_GT(pairs_total, 0u);
  EXPECT_LT(pairs_reprobed, pairs_total);
  EXPECT_GT(pairs_reprobed, 0u);
  EXPECT_GT(compactions, 1);
}

// Runs in the TSan CI matrix: four worker threads serve cache hits and
// record re-probes into their own (phase, vp) slots concurrently over a
// warm cache that has compacted. Any cross-slot write (or a
// Begin/Invalidate racing the fan-out) is a TSan report; the byte check
// pins that concurrency also changed nothing.
TEST(DeltaReprobe, ConcurrentCacheReadsAndReprobes) {
  gen::InternetOptions options = TinyWorld(/*hierarchical=*/false);
  options.vp_count = 4;
  options.stub_count = 6;
  gen::SyntheticInternet world(options);
  const topo::Topology& topology = world.topology();
  const auto targets = world.AllLoopbacks();

  campaign::Campaign serial(world.engine(), world.vantage_points(),
                            DeltaCampaignOptions(/*jobs=*/1));
  campaign::Campaign parallel(world.engine(), world.vantage_points(),
                              DeltaCampaignOptions(/*jobs=*/4));
  campaign::TraceCache serial_cache;
  campaign::TraceCache parallel_cache;
  (void)serial.RunDelta(targets, serial_cache);
  (void)parallel.RunDelta(targets, parallel_cache);

  // Flap until a Begin compacts the parallel cache; the fan-out after it
  // reads the rewritten slots.
  FlapStorm storm(world, InternalLinks(world), 0x9FB21C651E98DF25ull);
  bool compacted = false;
  for (int flap = 0; flap < 32 && !compacted; ++flap) {
    const routing::ConvergenceDelta delta = storm.Flap();
    Invalidate(serial_cache, world, delta);
    Invalidate(parallel_cache, world, delta);
    compacted = Compacts(parallel_cache, world);

    const auto serial_result = serial.RunDelta(targets, serial_cache);
    const auto parallel_result = parallel.RunDelta(targets, parallel_cache);
    ExpectSameDump(CampaignBytes(parallel_result, topology),
                   CampaignBytes(serial_result, topology));
    EXPECT_EQ(parallel_result.delta_pairs_total,
              serial_result.delta_pairs_total);
    EXPECT_EQ(parallel_result.delta_pairs_reprobed,
              serial_result.delta_pairs_reprobed);
  }
  EXPECT_TRUE(compacted);
}

/// Every field of `trace` that CompactTraceLog keeps, one line per hop.
std::string TraceText(const probe::TraceResult& trace) {
  std::ostringstream out;
  out << trace.source.ToString() << " > " << trace.target.ToString()
      << " flow " << trace.flow_id << " reached " << trace.reached
      << " unreachable " << trace.unreachable << "\n";
  for (const probe::Hop& hop : trace.hops) {
    out << hop.probe_ttl << " "
        << (hop.address ? hop.address->ToString() : std::string("*")) << " "
        << static_cast<int>(hop.reply_kind) << " " << hop.reply_ip_ttl
        << "\n";
  }
  return out.str();
}

/// `got` and `want` answer every trace and ping lookup at the engine's
/// epoch alike, for any vantage point and any router or host address,
/// and the hits serve the same bytes and id budgets.
void ExpectSameHits(const campaign::TraceCache& got,
                    const campaign::TraceCache& want,
                    gen::SyntheticInternet& world) {
  const std::uint64_t epoch = world.engine().convergence_epoch();
  std::vector<netbase::Ipv4Address> addresses;
  for (const topo::Interface& iface : world.topology().interfaces()) {
    addresses.push_back(iface.address);
  }
  for (const topo::Host& host : world.topology().hosts()) {
    addresses.push_back(host.address);
  }
  std::size_t hits = 0;
  for (std::size_t vp = 0; vp < world.vantage_points().size(); ++vp) {
    for (const auto phase : {campaign::TraceCache::Phase::kDiscovery,
                             campaign::TraceCache::Phase::kTargeted}) {
      for (const netbase::Ipv4Address address : addresses) {
        const auto a = got.Find(phase, vp, address, epoch, 0, false);
        const auto b = want.Find(phase, vp, address, epoch, 0, false);
        ASSERT_EQ(a.hit, b.hit) << "vp " << vp << " " << address.ToString();
        if (!a.hit) continue;
        ++hits;
        EXPECT_EQ(a.probes_used, b.probes_used);
        EXPECT_EQ(TraceText(got.LogOf(phase, vp).Inflate(a.trace_index)),
                  TraceText(want.LogOf(phase, vp).Inflate(b.trace_index)));
      }
    }
    for (const netbase::Ipv4Address address : addresses) {
      const auto a = got.FindPing(vp, address, epoch, 0, false);
      const auto b = want.FindPing(vp, address, epoch, 0, false);
      ASSERT_EQ(a.hit, b.hit) << "vp " << vp << " " << address.ToString();
      if (!a.hit) continue;
      ++hits;
      EXPECT_EQ(a.probes_used, b.probes_used);
      EXPECT_EQ(a.result.responded, b.result.responded);
      EXPECT_EQ(a.result.reply_ip_ttl, b.result.reply_ip_ttl);
      EXPECT_EQ(a.result.rtt_ms, b.result.rtt_ms);
    }
  }
  EXPECT_GT(hits, 0u);
}

TEST(DeltaReprobe, CompactionKeepsEveryHitAndFootprint) {
  // A copy taken before each Begin keeps every entry; the compacted cache
  // must serve exactly what the copy serves, and after one more flap,
  // invalidated in both, promote exactly what the copy promotes — which
  // reads every kept entry's AS footprint.
  gen::SyntheticInternet world(SmallWorld());
  const auto targets = world.AllLoopbacks();
  campaign::Campaign delta_campaign(world.engine(), world.vantage_points(),
                                    DeltaCampaignOptions(/*jobs=*/2));
  campaign::TraceCache cache;
  (void)delta_campaign.RunDelta(targets, cache);

  FlapStorm storm(world, InternalLinks(world), 0xE7037ED1A0B428DBull);
  int compactions = 0;
  for (int step = 0; step < 24; ++step) {
    Invalidate(cache, world, storm.Flap());
    campaign::TraceCache uncompacted = cache;
    if (Compacts(cache, world)) {
      ++compactions;
      ExpectSameHits(cache, uncompacted, world);
      const routing::ConvergenceDelta next = storm.Flap();
      Invalidate(cache, world, next);
      Invalidate(uncompacted, world, next);
      ExpectSameHits(cache, uncompacted, world);
    }
    const auto result = delta_campaign.RunDelta(targets, cache);
    ExpectSameDump(CampaignBytes(result, world.topology()),
                   ColdBytes(world, targets));
  }
  EXPECT_GT(compactions, 0);
}

TEST(DeltaReprobe, CompactionDropsSameEpochSupersessions) {
  // Under strict offsets a re-trace supersedes an entry of its own epoch,
  // so only the mark Record leaves tells that entry is dead. Here one
  // target is re-recorded many times at one epoch, another is recorded
  // once at that epoch, and a third at the epoch before: Begin must keep
  // exactly the newest entry of the first and the entry of the second.
  gen::SyntheticInternet world(TinyWorld(/*hierarchical=*/false));
  const topo::Topology& topology = world.topology();
  const netbase::Ipv4Address vp = world.vantage_points().front();
  const auto loopbacks = world.AllLoopbacks();
  ASSERT_GE(loopbacks.size(), 3u);
  const netbase::Ipv4Address churned = loopbacks[0];
  const netbase::Ipv4Address steady = loopbacks[1];
  const netbase::Ipv4Address stale = loopbacks[2];
  constexpr std::uint64_t kEpoch = 5;
  constexpr int kRecords = 40;
  constexpr auto kPhase = campaign::TraceCache::Phase::kTargeted;

  // Trace `k` of a target has k + 1 hops, so kept entries move in the log.
  const auto trace_of = [&](netbase::Ipv4Address target, int k) {
    probe::TraceResult trace;
    trace.source = vp;
    trace.target = target;
    trace.flow_id = static_cast<std::uint16_t>(k);
    for (int h = 0; h <= k; ++h) {
      probe::Hop hop;
      hop.probe_ttl = h + 1;
      if (h % 3 != 2) {
        hop.address = loopbacks.at(static_cast<std::size_t>(h % 3));
        hop.reply_ip_ttl = 250 - h;
      }
      trace.hops.push_back(hop);
    }
    trace.reached = true;
    return trace;
  };
  const auto ping_of = [&](netbase::Ipv4Address target, int k) {
    probe::PingResult ping;
    ping.target = target;
    ping.responded = true;
    ping.reply_ip_ttl = 200 + k;
    ping.rtt_ms = k;
    return ping;
  };

  // What compaction must leave: the live entries alone.
  campaign::TraceCache want;
  want.Begin(topology, 1, kEpoch);
  want.Record(kPhase, 0, trace_of(steady, 3), kEpoch, 0, 4);
  want.Record(kPhase, 0, trace_of(churned, kRecords), kEpoch, kRecords, 1);
  want.RecordPing(0, vp, ping_of(steady, 3), kEpoch, 0, 1);
  want.RecordPing(0, vp, ping_of(churned, kRecords), kEpoch, kRecords, 1);

  campaign::TraceCache cache;
  cache.Begin(topology, 1, kEpoch - 1);
  cache.Record(kPhase, 0, trace_of(stale, 7), kEpoch - 1, 0, 8);
  cache.RecordPing(0, vp, ping_of(stale, 7), kEpoch - 1, 0, 1);
  for (int k = 1; k <= kRecords; ++k) {
    if (k == kRecords / 2) {
      cache.Record(kPhase, 0, trace_of(steady, 3), kEpoch, 0, 4);
      cache.RecordPing(0, vp, ping_of(steady, 3), kEpoch, 0, 1);
    }
    cache.Record(kPhase, 0, trace_of(churned, k), kEpoch, k, 1);
    cache.RecordPing(0, vp, ping_of(churned, k), kEpoch, k, 1);
  }
  cache.Begin(topology, 1, kEpoch);

  EXPECT_LE(cache.RetainedBytes(), want.RetainedBytes());
  const auto expect_kept = [&](netbase::Ipv4Address target, int k,
                               std::uint64_t offset) {
    const auto hit = cache.Find(kPhase, 0, target, kEpoch, offset, true);
    ASSERT_TRUE(hit.hit) << target.ToString();
    EXPECT_EQ(TraceText(cache.LogOf(kPhase, 0).Inflate(hit.trace_index)),
              TraceText(trace_of(target, k)));
    const auto ping = cache.FindPing(0, target, kEpoch, offset, true);
    ASSERT_TRUE(ping.hit) << target.ToString();
    EXPECT_EQ(ping.result.reply_ip_ttl, 200 + k);
  };
  expect_kept(churned, kRecords, kRecords);
  expect_kept(steady, 3, 0);
  EXPECT_FALSE(cache.Find(kPhase, 0, stale, kEpoch - 1, 0, true).hit);
  EXPECT_FALSE(cache.FindPing(0, stale, kEpoch - 1, 0, true).hit);
}

TEST(ConvergenceDelta, ReportsScopeEpochAndDroppedState) {
  gen::SyntheticInternet world(SmallWorld());
  topo::Topology& topology = world.mutable_topology();
  sim::Network& net = world.network();
  const std::uint64_t epoch0 = net.convergence_epoch();
  EXPECT_GE(epoch0, 1u);

  const topo::LinkId internal = PickInternalLink(world);
  ASSERT_NE(internal, topo::kNoLink);
  const topo::AsNumber asn =
      topology.router(topology.interface(topology.link(internal).a).router)
          .asn;
  topology.SetLinkUp(internal, false);
  const routing::ConvergenceDelta delta = net.OnLinkStateChange(internal);
  EXPECT_EQ(delta.scope, routing::ConvergenceDelta::Scope::kIntraAs);
  EXPECT_EQ(delta.epoch, epoch0 + 1);
  EXPECT_EQ(delta.epoch, net.convergence_epoch());
  EXPECT_EQ(delta.touched_as, asn);
  EXPECT_EQ(delta.stale_spf_sources, topology.as(asn).routers);
  EXPECT_TRUE(delta.has_spf_window());
  for (const topo::RouterId rid : topology.as(asn).routers) {
    EXPECT_GE(rid, delta.spf_window_lo);
    EXPECT_LE(rid, delta.spf_window_hi);
  }
  EXPECT_TRUE(delta.touched_aggregate.Contains(topology.as(asn).block));
  if (world.profile(asn).mpls) {
    EXPECT_TRUE(delta.has_label_range());
    EXPECT_EQ(delta.label_lo, netbase::kFirstUnreservedLabel);
  }
  topology.SetLinkUp(internal, true);
  net.OnLinkStateChange(internal);

  const topo::LinkId external = PickExternalLink(world);
  ASSERT_NE(external, topo::kNoLink);
  topology.SetLinkUp(external, false);
  const routing::ConvergenceDelta global = net.OnLinkStateChange(external);
  EXPECT_EQ(global.scope, routing::ConvergenceDelta::Scope::kGlobal);
  EXPECT_EQ(global.epoch, delta.epoch + 2);
}

}  // namespace
}  // namespace wormhole
