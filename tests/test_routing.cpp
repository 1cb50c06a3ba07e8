#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netbase/rng.h"
#include "routing/bgp.h"
#include "routing/fib.h"
#include "routing/igp.h"
#include "topo/topology.h"

namespace wormhole::routing {
namespace {

using topo::RouterId;
using topo::Topology;
using topo::Vendor;

// A 2x2 grid inside one AS (ECMP between opposite corners):
//   r0 - r1
//   |     |
//   r2 - r3
Topology Grid() {
  Topology t;
  t.AddAs(1, "grid");
  for (const char* name : {"r0", "r1", "r2", "r3"}) {
    t.AddRouter(1, name, Vendor::kCiscoIos);
  }
  t.AddLink(0, 1);
  t.AddLink(0, 2);
  t.AddLink(1, 3);
  t.AddLink(2, 3);
  return t;
}

TEST(Fib, LongestPrefixMatchWins) {
  Fib fib;
  FibEntry wide;
  wide.prefix = *netbase::Prefix::Parse("5.0.0.0/8");
  wide.source = RouteSource::kBgp;
  fib.AddRoute(wide);
  FibEntry narrow;
  narrow.prefix = *netbase::Prefix::Parse("5.1.0.0/16");
  narrow.source = RouteSource::kIgp;
  fib.AddRoute(narrow);

  const FibEntry* hit = fib.Lookup(*netbase::Ipv4Address::Parse("5.1.2.3"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 16);
  hit = fib.Lookup(*netbase::Ipv4Address::Parse("5.2.2.3"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 8);
  EXPECT_EQ(fib.Lookup(*netbase::Ipv4Address::Parse("9.0.0.1")), nullptr);
}

TEST(Fib, ExactMatchAndReplace) {
  Fib fib;
  FibEntry e;
  e.prefix = *netbase::Prefix::Parse("5.0.0.0/16");
  e.metric = 5;
  fib.AddRoute(e);
  e.metric = 2;
  fib.AddRoute(e);  // replaces
  const FibEntry* hit = fib.LookupExact(e.prefix);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->metric, 2);
  EXPECT_EQ(fib.size(), 1u);
}

TEST(Fib, DeduplicatesNextHops) {
  Fib fib;
  FibEntry e;
  e.prefix = *netbase::Prefix::Parse("5.0.0.0/16");
  e.next_hops = {{3, 7}, {1, 5}, {3, 7}};
  fib.AddRoute(e);
  const FibEntry* hit = fib.LookupExact(e.prefix);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->next_hops.size(), 2u);
  EXPECT_EQ(hit->next_hops[0], (NextHop{1, 5}));
}

TEST(Fib, DefaultRouteCatchesEverythingUncovered) {
  Fib fib;
  FibEntry def;
  def.prefix = *netbase::Prefix::Parse("0.0.0.0/0");
  def.source = RouteSource::kBgp;
  fib.AddRoute(def);
  FibEntry narrow;
  narrow.prefix = *netbase::Prefix::Parse("5.1.0.0/16");
  narrow.source = RouteSource::kIgp;
  fib.AddRoute(narrow);

  // Covered address: the /16 wins over /0.
  const FibEntry* hit = fib.Lookup(*netbase::Ipv4Address::Parse("5.1.9.9"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 16);
  // Anything else falls through to the default route, never to nullptr.
  for (const char* addr : {"5.2.0.1", "9.0.0.1", "0.0.0.0",
                           "255.255.255.255"}) {
    hit = fib.Lookup(*netbase::Ipv4Address::Parse(addr));
    ASSERT_NE(hit, nullptr) << addr;
    EXPECT_EQ(hit->prefix.length(), 0) << addr;
  }
}

TEST(Fib, OverlappingPrefixesMostSpecificWins) {
  // A full nesting chain /8 ⊃ /16 ⊃ /24 ⊃ /32 around one address: each
  // probe address must land on exactly the deepest prefix covering it.
  Fib fib;
  for (const char* p : {"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
                        "10.1.2.3/32"}) {
    FibEntry e;
    e.prefix = *netbase::Prefix::Parse(p);
    fib.AddRoute(e);
  }
  const auto probe = [&](const char* addr) {
    const FibEntry* hit = fib.Lookup(*netbase::Ipv4Address::Parse(addr));
    return hit == nullptr ? -1 : hit->prefix.length();
  };
  EXPECT_EQ(probe("10.1.2.3"), 32);
  EXPECT_EQ(probe("10.1.2.4"), 24);
  EXPECT_EQ(probe("10.1.3.3"), 16);
  EXPECT_EQ(probe("10.2.2.3"), 8);
  EXPECT_EQ(probe("11.1.2.3"), -1);
}

TEST(Fib, HostRoutesMatchExactlyOneAddress) {
  Fib fib;
  FibEntry host;
  host.prefix = netbase::Prefix::Host(*netbase::Ipv4Address::Parse("7.7.7.7"));
  fib.AddRoute(host);
  const FibEntry* hit = fib.Lookup(*netbase::Ipv4Address::Parse("7.7.7.7"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 32);
  // The neighboring addresses share 31 leading bits but must not match.
  EXPECT_EQ(fib.Lookup(*netbase::Ipv4Address::Parse("7.7.7.6")), nullptr);
  EXPECT_EQ(fib.Lookup(*netbase::Ipv4Address::Parse("7.7.7.8")), nullptr);
}

TEST(Fib, LookupExactMissesOnUnpopulatedLengths) {
  Fib fib;
  FibEntry e;
  e.prefix = *netbase::Prefix::Parse("10.0.0.0/8");
  fib.AddRoute(e);
  e.prefix = *netbase::Prefix::Parse("10.1.2.0/24");
  fib.AddRoute(e);
  // Lazily sealed by the first LookupExact, then sealed again eagerly.
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(fib.LookupExact(*netbase::Prefix::Parse("10.1.0.0/16")),
              nullptr) << "pass " << pass;
    EXPECT_EQ(fib.LookupExact(*netbase::Prefix::Parse("10.0.0.0/9")),
              nullptr) << "pass " << pass;
    EXPECT_NE(fib.LookupExact(*netbase::Prefix::Parse("10.1.2.0/24")),
              nullptr) << "pass " << pass;
    fib.Seal();
  }
}

TEST(Fib, AddRouteAfterLookupRebuildsTheIndex) {
  Fib fib;
  FibEntry wide;
  wide.prefix = *netbase::Prefix::Parse("5.0.0.0/8");
  fib.AddRoute(wide);
  const auto addr = *netbase::Ipv4Address::Parse("5.1.2.3");
  const FibEntry* hit = fib.Lookup(addr);  // seals lazily
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 8);

  // Installing a more-specific route after the first Lookup must
  // invalidate and rebuild the sealed index.
  FibEntry narrow;
  narrow.prefix = *netbase::Prefix::Parse("5.1.0.0/16");
  fib.AddRoute(narrow);
  hit = fib.Lookup(addr);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 16);
}

// The longest match over Entries(), the slow way: what the sealed
// index's Lookup must return for every address.
const FibEntry* NaiveLongestMatch(const Fib& fib, netbase::Ipv4Address dst) {
  const FibEntry* best = nullptr;
  for (const FibEntry* entry : fib.Entries()) {
    if (entry->prefix.Contains(dst) &&
        (best == nullptr || entry->prefix.length() > best->prefix.length())) {
      best = entry;
    }
  }
  return best;
}

// A random prefix of length 0..32: scattered over the whole space, or
// clustered inside one of a few /20 blocks (so the per-length address
// ranges are narrow and their edges are hit often).
netbase::Prefix RandomPrefix(netbase::Rng& rng, bool clustered) {
  const int length = rng.UniformInt(0, 32);
  std::uint32_t address = rng.UniformU32();
  if (clustered) {
    constexpr std::uint32_t kBlocks[] = {0x05000000u, 0x05001000u,
                                         0x0A800000u, 0xC0A80000u};
    address = kBlocks[rng.UniformInt(0, 3)] | (address & 0xFFFu);
  }
  return netbase::Prefix(netbase::Ipv4Address(address), length);
}

// Addresses at the edges of every populated length's stored range: the
// range's least and greatest prefix, their first and last address, and
// the address just outside each end. Plus random addresses, scattered
// and inside the clusters.
std::vector<netbase::Ipv4Address> EdgeAndRandomAddresses(const Fib& fib,
                                                         netbase::Rng& rng) {
  std::map<int, std::pair<std::uint32_t, std::uint32_t>> ranges;
  for (const FibEntry* entry : fib.Entries()) {
    const std::uint32_t address = entry->prefix.address().value();
    const auto it =
        ranges.try_emplace(entry->prefix.length(), address, address).first;
    it->second.first = std::min(it->second.first, address);
    it->second.second = std::max(it->second.second, address);
  }
  std::vector<netbase::Ipv4Address> out;
  for (const auto& [length, range] : ranges) {
    const std::uint32_t span =
        length == 0 ? ~std::uint32_t{0}
                    : (std::uint32_t{1} << (32 - length)) - 1;
    const std::uint32_t lo = range.first;
    const std::uint32_t hi_end = range.second + span;
    for (const std::uint32_t a : {lo, lo + span, range.second, hi_end,
                                  lo - 1, hi_end + 1}) {
      out.emplace_back(a);  // wrap-around at 0 and 2^32 - 1 is fine
    }
  }
  for (int i = 0; i < 200; ++i) {
    out.emplace_back(rng.UniformU32());
    out.push_back(RandomPrefix(rng, /*clustered=*/true).address());
  }
  return out;
}

TEST(Fib, SealedLookupMatchesANaiveLongestMatch) {
  for (const bool clustered : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      netbase::Rng rng(seed);
      Fib fib;
      std::vector<netbase::Prefix> added;
      const int routes = rng.UniformInt(1, 120);
      for (int i = 0; i < routes; ++i) {
        FibEntry entry;
        entry.prefix = RandomPrefix(rng, clustered);
        if (!added.empty() && rng.Chance(0.15)) {
          // Re-add an earlier prefix: the new entry replaces it.
          const int pick =
              rng.UniformInt(0, static_cast<int>(added.size()) - 1);
          entry.prefix = added[static_cast<std::size_t>(pick)];
        }
        entry.metric = i;
        fib.AddRoute(entry);
        added.push_back(entry.prefix);
      }
      const auto expect_naive_matches = [&](const char* when) {
        fib.Seal();
        for (const netbase::Ipv4Address dst :
             EdgeAndRandomAddresses(fib, rng)) {
          ASSERT_EQ(fib.Lookup(dst), NaiveLongestMatch(fib, dst))
              << "seed " << seed << (clustered ? " clustered " : " scattered ")
              << when << " dst " << dst.ToString();
        }
      };
      expect_naive_matches("as built");
      FibEntry extra;
      extra.prefix = RandomPrefix(rng, clustered);
      fib.AddRoute(extra);
      expect_naive_matches("after a reseal");
    }
  }
}

// The build rule as an ordered map applies it: AddRoute is
// insert_or_assign and AddRouteIfAbsent is try_emplace, in add order.
using FibModel = std::map<std::pair<std::uint32_t, int>, FibEntry>;

void AddToModel(FibModel& model, FibEntry entry, bool if_absent) {
  std::sort(entry.next_hops.begin(), entry.next_hops.end());
  entry.next_hops.truncate(static_cast<std::size_t>(
      std::unique(entry.next_hops.begin(), entry.next_hops.end()) -
      entry.next_hops.begin()));
  const auto key =
      std::make_pair(entry.prefix.address().value(), entry.prefix.length());
  if (if_absent) {
    model.try_emplace(key, std::move(entry));
  } else {
    model.insert_or_assign(key, std::move(entry));
  }
}

void ExpectSameEntry(const FibEntry& got, const FibEntry& want) {
  EXPECT_EQ(got.prefix, want.prefix);
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.metric, want.metric);
  EXPECT_TRUE(std::equal(got.next_hops.begin(), got.next_hops.end(),
                         want.next_hops.begin(), want.next_hops.end()))
      << got.prefix.ToString();
  EXPECT_EQ(got.bgp_next_hop, want.bgp_next_hop);
}

// Entries() order and contents, size(), LookupExact on every prefix of
// `pool`, and Lookup on edge and random addresses, against `model`.
void ExpectMatchesModel(const Fib& fib, const FibModel& model,
                        const std::vector<netbase::Prefix>& pool,
                        netbase::Rng& rng, const std::string& when) {
  SCOPED_TRACE(when);
  ASSERT_EQ(fib.size(), model.size());
  const std::vector<const FibEntry*> entries = fib.Entries();
  ASSERT_EQ(entries.size(), model.size());
  auto want = model.begin();
  for (const FibEntry* entry : entries) {
    ExpectSameEntry(*entry, (want++)->second);
  }

  for (const netbase::Prefix& prefix : pool) {
    const FibEntry* got = fib.LookupExact(prefix);
    const auto it =
        model.find({prefix.address().value(), prefix.length()});
    ASSERT_EQ(got == nullptr, it == model.end()) << prefix.ToString();
    if (got != nullptr) ExpectSameEntry(*got, it->second);
  }

  for (const netbase::Ipv4Address dst : EdgeAndRandomAddresses(fib, rng)) {
    const FibEntry* best = nullptr;
    for (const auto& [key, entry] : model) {
      if (entry.prefix.Contains(dst) &&
          (best == nullptr ||
           entry.prefix.length() > best->prefix.length())) {
        best = &entry;
      }
    }
    const FibEntry* got = fib.Lookup(dst);
    ASSERT_EQ(got == nullptr, best == nullptr) << dst.ToString();
    if (got != nullptr) ExpectSameEntry(*got, *best);
  }
}

TEST(Fib, BuildRuleMatchesAnOrderedMapModel) {
  for (const bool clustered : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      netbase::Rng rng(seed);
      // A small pool, so most prefixes are added many times over.
      std::vector<netbase::Prefix> pool;
      const int pool_size = rng.UniformInt(1, 12);
      for (int i = 0; i < pool_size; ++i) {
        pool.push_back(RandomPrefix(rng, clustered));
      }
      Fib fib;
      FibModel model;
      int adds = 0;
      // Adds `count` routes to both, AddRoute or AddRouteIfAbsent at
      // random, each with a distinct metric and a next-hop set that
      // AddRoute must sort and dedupe.
      const auto add = [&](Fib& into, FibModel& into_model, int count) {
        for (int i = 0; i < count; ++i) {
          FibEntry entry;
          entry.prefix = pool[static_cast<std::size_t>(
              rng.UniformInt(0, pool_size - 1))];
          entry.source = static_cast<RouteSource>(rng.UniformInt(0, 2));
          entry.metric = ++adds;
          for (int h = rng.UniformInt(0, 3); h > 0; --h) {
            entry.next_hops.push_back(
                {static_cast<topo::LinkId>(rng.UniformInt(0, 3)),
                 static_cast<RouterId>(rng.UniformInt(0, 3))});
          }
          entry.bgp_next_hop = netbase::Ipv4Address(rng.UniformU32());
          const bool if_absent = rng.Chance(0.5);
          AddToModel(into_model, entry, if_absent);
          if (if_absent) {
            into.AddRouteIfAbsent(std::move(entry));
          } else {
            into.AddRoute(std::move(entry));
          }
        }
      };

      add(fib, model, rng.UniformInt(0, 40));
      ExpectMatchesModel(fib, model, pool, rng, "as built");
      add(fib, model, rng.UniformInt(1, 20));
      ExpectMatchesModel(fib, model, pool, rng, "added after a seal");

      // Copies: of a sealed FIB, and of one with adds pending.
      const Fib sealed_copy = fib;
      const FibModel sealed_model = model;
      add(fib, model, rng.UniformInt(1, 20));
      const Fib pending_copy = fib;
      ExpectMatchesModel(pending_copy, model, pool, rng, "pending copy");
      ExpectMatchesModel(fib, model, pool, rng, "copied from");
      ExpectMatchesModel(sealed_copy, sealed_model, pool, rng, "sealed copy");
      Fib assigned;
      assigned = sealed_copy;
      ExpectMatchesModel(assigned, sealed_model, pool, rng, "copy-assigned");

      // Moves, with adds pending: the target serves the table, the source
      // is left empty.
      add(fib, model, rng.UniformInt(1, 20));
      Fib moved(std::move(fib));
      ExpectMatchesModel(moved, model, pool, rng, "move-constructed");
      ExpectMatchesModel(fib, FibModel{}, pool, rng, "moved from");
      add(moved, model, rng.UniformInt(1, 20));
      fib = std::move(moved);
      ExpectMatchesModel(fib, model, pool, rng, "move-assigned");
      ExpectMatchesModel(moved, FibModel{}, pool, rng, "move-assigned from");

      // Clear and rebuild: nothing of the old table survives.
      fib.Clear();
      FibModel rebuilt;
      ExpectMatchesModel(fib, rebuilt, pool, rng, "cleared");
      add(fib, rebuilt, rng.UniformInt(1, 40));
      ExpectMatchesModel(fib, rebuilt, pool, rng, "rebuilt");
    }
  }
}

TEST(Spf, DistancesOnGrid) {
  const Topology t = Grid();
  const SpfResult spf = ComputeSpf(t, 0);
  EXPECT_EQ(spf.distance[0], 0);
  EXPECT_EQ(spf.distance[1], 1);
  EXPECT_EQ(spf.distance[2], 1);
  EXPECT_EQ(spf.distance[3], 2);
  EXPECT_EQ(spf.hop_count[3], 2);
}

TEST(Spf, EcmpKeepsBothNextHops) {
  const Topology t = Grid();
  const SpfResult spf = ComputeSpf(t, 0);
  EXPECT_EQ(spf.next_hops[3].size(), 2u);  // via r1 and via r2
  EXPECT_EQ(spf.next_hops[1].size(), 1u);
}

TEST(Spf, EcmpMergedNextHopSetIsSortedAndDeduped) {
  // Regression pin for the bitmask ECMP merge that replaced the
  // sort+unique-per-relaxation hot spot: the first-hop set of every
  // destination must be the union over all shortest paths, emitted in
  // ascending (link, neighbor) order with parallel links kept distinct.
  //
  //       link0
  //   s ======== a --- d      s→d costs 2 via a (either parallel link)
  //   |   link1      link3    and 2 via b — three first hops total.
  //   | link2
  //   b ------------- d'
  //          link4
  Topology t;
  t.AddAs(1, "ecmp");
  for (const char* name : {"s", "a", "b", "d"}) {
    t.AddRouter(1, name, Vendor::kCiscoIos);
  }
  t.AddLink(0, 1);  // link 0: s-a
  t.AddLink(0, 1);  // link 1: s-a (parallel)
  t.AddLink(0, 2);  // link 2: s-b
  t.AddLink(1, 3);  // link 3: a-d
  t.AddLink(2, 3);  // link 4: b-d

  const SpfResult spf = ComputeSpf(t, 0);
  // Towards a: both parallel links, distinct (different LinkId), sorted.
  EXPECT_EQ(spf.next_hops[1],
            (std::vector<NextHop>{{0, 1}, {1, 1}}));
  // Towards d: the union of the via-a and via-b shortest paths.
  EXPECT_EQ(spf.distance[3], 2);
  EXPECT_EQ(spf.next_hops[3],
            (std::vector<NextHop>{{0, 1}, {1, 1}, {2, 2}}));

  // The cached engine tree serves the same spans.
  SpfEngine engine(t);
  const SpfTree& tree = engine.TreeOf(0);
  const std::span<const NextHop> hops = tree.FirstHops(3);
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_TRUE(std::is_sorted(hops.begin(), hops.end()));
  EXPECT_TRUE(std::equal(hops.begin(), hops.end(),
                         spf.next_hops[3].begin()));
}

TEST(Spf, RespectsMetrics) {
  Topology t;
  t.AddAs(1, "m");
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  t.AddRouter(1, "b", Vendor::kCiscoIos);
  t.AddRouter(1, "c", Vendor::kCiscoIos);
  t.AddLink(0, 1, {.igp_metric = 10});
  t.AddLink(0, 2, {.igp_metric = 1});
  t.AddLink(2, 1, {.igp_metric = 1});
  const SpfResult spf = ComputeSpf(t, 0);
  EXPECT_EQ(spf.distance[1], 2);  // via c, not the direct metric-10 link
  ASSERT_EQ(spf.next_hops[1].size(), 1u);
  EXPECT_EQ(spf.next_hops[1][0].neighbor, 2u);
}

TEST(Spf, StaysInsideTheAs) {
  Topology t;
  t.AddAs(1, "one");
  t.AddAs(2, "two");
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  t.AddRouter(2, "b", Vendor::kCiscoIos);
  t.AddLink(0, 1);
  const SpfResult spf = ComputeSpf(t, 0);
  EXPECT_EQ(spf.distance[1], kUnreachable);
  EXPECT_EQ(IgpDistance(t, 0, 1), kUnreachable);
}

TEST(Igp, InstallsRoutesForAllInternalPrefixes) {
  const Topology t = Grid();
  std::vector<Fib> fibs(t.router_count());
  InstallIgpRoutes(t, 1, fibs);
  // r0 must reach every loopback and every link subnet.
  for (RouterId r = 0; r < 4; ++r) {
    const FibEntry* e =
        fibs[0].LookupExact(netbase::Prefix::Host(t.router(r).loopback));
    ASSERT_NE(e, nullptr) << "loopback of r" << r;
    if (r == 0) {
      EXPECT_EQ(e->source, RouteSource::kConnected);
    } else {
      EXPECT_EQ(e->source, RouteSource::kIgp);
      EXPECT_FALSE(e->next_hops.empty());
    }
  }
  for (const topo::Link& link : t.links()) {
    EXPECT_NE(fibs[0].LookupExact(link.subnet), nullptr);
  }
}

TEST(Igp, SharedLinkSubnetRoutedViaNearestOwner) {
  // Chain a - b - c; the b-c subnet seen from a should be reached via b
  // (the nearer owner), which is the property PHP/BRPR relies on.
  Topology t;
  t.AddAs(1, "chain");
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  t.AddRouter(1, "b", Vendor::kCiscoIos);
  t.AddRouter(1, "c", Vendor::kCiscoIos);
  t.AddLink(0, 1);
  const topo::LinkId bc = t.AddLink(1, 2);
  std::vector<Fib> fibs(t.router_count());
  InstallIgpRoutes(t, 1, fibs);
  const FibEntry* e = fibs[0].LookupExact(t.link(bc).subnet);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->metric, 1);  // distance to b, not to c
  ASSERT_EQ(e->next_hops.size(), 1u);
  EXPECT_EQ(e->next_hops[0].neighbor, 1u);
}

// --- BGP ------------------------------------------------------------------

// AS chain 1 - 2 - 3 with AS2 as transit; plus a shortcut 1 - 4 - 3 to
// exercise path selection.
struct BgpWorld {
  Topology t;
  std::vector<Fib> fibs;
};

BgpWorld MakeBgpWorld(bool with_shortcut) {
  BgpWorld w;
  w.t.AddAs(1, "one");
  w.t.AddAs(2, "two");
  w.t.AddAs(3, "three");
  const RouterId a = w.t.AddRouter(1, "a", Vendor::kCiscoIos);
  const RouterId b1 = w.t.AddRouter(2, "b1", Vendor::kCiscoIos);
  const RouterId b2 = w.t.AddRouter(2, "b2", Vendor::kCiscoIos);
  const RouterId c = w.t.AddRouter(3, "c", Vendor::kCiscoIos);
  w.t.AddLink(a, b1);
  w.t.AddLink(b1, b2);
  w.t.AddLink(b2, c);
  if (with_shortcut) {
    w.t.AddAs(4, "four");
    const RouterId d = w.t.AddRouter(4, "d", Vendor::kCiscoIos);
    w.t.AddLink(a, d);
    w.t.AddLink(d, c);
  }
  w.fibs.resize(w.t.router_count());
  for (const topo::AsNumber asn : w.t.AsNumbers()) {
    InstallIgpRoutes(w.t, asn, w.fibs);
  }
  InstallBgpRoutes(w.t, {}, w.fibs);
  return w;
}

TEST(Bgp, InstallsRoutesAcrossAses) {
  const BgpWorld w = MakeBgpWorld(false);
  // a must have a BGP route to AS3's block via its eBGP link to b1.
  const FibEntry* e = w.fibs[0].Lookup(w.t.router(3).loopback);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->source, RouteSource::kBgp);
  ASSERT_EQ(e->next_hops.size(), 1u);
  EXPECT_EQ(e->next_hops[0].neighbor, 1u);  // b1
  EXPECT_TRUE(e->bgp_next_hop.is_unspecified());  // direct eBGP exit
}

TEST(Bgp, NonBorderRoutersUseEgressLoopbackNextHop) {
  const BgpWorld w = MakeBgpWorld(false);
  // b1's route to AS3 goes via egress b2 with next-hop-self.
  const FibEntry* e = w.fibs[1].Lookup(w.t.router(3).loopback);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->bgp_next_hop, w.t.router(2).loopback);
}

TEST(Bgp, PrefersShorterAsPath) {
  const BgpWorld w = MakeBgpWorld(true);
  // From AS1, AS3 is reachable via AS2 (2 AS hops) or AS4 (2 AS hops);
  // tie-break prefers the lower next ASN: AS2.
  EXPECT_EQ(BgpNextAs(w.t, {}, 1, 3), 2u);
}

TEST(Bgp, StubAsesDoNotTransit) {
  BgpPolicy policy;
  policy.stub_ases = {2};
  const BgpWorld w = MakeBgpWorld(true);
  // With AS2 declared a stub, traffic AS1 -> AS3 must go via AS4.
  EXPECT_EQ(BgpNextAs(w.t, policy, 1, 3), 4u);
}

TEST(Bgp, InjectsExternalLinkSubnetsViaIbgp) {
  const BgpWorld w = MakeBgpWorld(false);
  // The b2-c eBGP link subnet is NOT in AS2's IGP, but b1 must still reach
  // it — via iBGP with next-hop-self b2 (this is what keeps traces to such
  // addresses inside LSPs).
  const topo::Link& ebgp_link = w.t.links()[2];
  const FibEntry* e = w.fibs[1].LookupExact(ebgp_link.subnet);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->source, RouteSource::kBgp);
  EXPECT_EQ(e->bgp_next_hop, w.t.router(2).loopback);
}

}  // namespace
}  // namespace wormhole::routing
