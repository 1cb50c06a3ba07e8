#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "netbase/rng.h"
#include "topo/itdk.h"
#include "topo/topology.h"

namespace wormhole::topo {
namespace {

Topology TwoAsChain() {
  // AS1: a - b; AS2: c; link b-c is inter-AS.
  Topology t;
  t.AddAs(1, "one");
  t.AddAs(2, "two");
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  t.AddRouter(1, "b", Vendor::kJuniperJunos);
  t.AddRouter(2, "c", Vendor::kCiscoIos);
  t.AddLink(0, 1);
  t.AddLink(1, 2);
  return t;
}

TEST(Topology, AllocatesDisjointBlocksPerAs) {
  const Topology t = TwoAsChain();
  const Prefix b1 = t.as(1).block;
  const Prefix b2 = t.as(2).block;
  EXPECT_EQ(b1.length(), 16);
  EXPECT_FALSE(b1.Contains(b2));
  EXPECT_FALSE(b2.Contains(b1));
}

TEST(Topology, LoopbacksAndInterfacesAreAddressable) {
  const Topology t = TwoAsChain();
  const Router& a = t.router(0);
  EXPECT_TRUE(t.as(1).block.Contains(a.loopback));
  EXPECT_EQ(t.FindRouterByAddress(a.loopback), std::optional<RouterId>(0));
  for (const InterfaceId iid : a.interfaces) {
    EXPECT_EQ(t.FindRouterByAddress(t.interface(iid).address),
              std::optional<RouterId>(0));
  }
}

TEST(Topology, RejectsDuplicateAsAndRouterNames) {
  Topology t;
  t.AddAs(1, "one");
  EXPECT_THROW(t.AddAs(1, "again"), std::invalid_argument);
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  EXPECT_THROW(t.AddRouter(1, "a", Vendor::kCiscoIos),
               std::invalid_argument);
  EXPECT_THROW(t.AddRouter(9, "b", Vendor::kCiscoIos),
               std::invalid_argument);
}

TEST(Topology, RejectsSelfLoops) {
  Topology t;
  t.AddAs(1, "one");
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  EXPECT_THROW(t.AddLink(0, 0), std::invalid_argument);
}

TEST(Topology, LinkEndsAndNeighbors) {
  const Topology t = TwoAsChain();
  const RouterId a = 0, b = 1, c = 2;
  EXPECT_EQ(t.Neighbor(0, a), b);
  EXPECT_EQ(t.Neighbor(0, b), a);
  EXPECT_EQ(t.EndOn(0, a).router, a);
  EXPECT_EQ(t.OtherEnd(0, a).router, b);
  const auto neighbors_b = t.Neighbors(b);
  ASSERT_EQ(neighbors_b.size(), 2u);
  EXPECT_THROW((void)t.EndOn(0, c), std::invalid_argument);
}

TEST(Topology, InternalLinkDetection) {
  const Topology t = TwoAsChain();
  EXPECT_TRUE(t.IsInternalLink(0));   // a-b inside AS1
  EXPECT_FALSE(t.IsInternalLink(1));  // b-c crosses
}

TEST(Topology, InternalPrefixesExcludeInterAsSubnets) {
  const Topology t = TwoAsChain();
  const auto prefixes = t.InternalPrefixes(1);
  // Two loopbacks + one internal /31.
  EXPECT_EQ(prefixes.size(), 3u);
  const Prefix inter_as = t.link(1).subnet;
  for (const Prefix& p : prefixes) EXPECT_NE(p, inter_as);
}

TEST(Topology, HostsAttachBehindGateways) {
  Topology t = TwoAsChain();
  const Ipv4Address vp = t.AttachHost(0, "VP");
  const Host* host = t.FindHost(vp);
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->gateway, 0u);
  // The gateway side of the stub is the even twin of the host address.
  const Interface& stub = t.interface(host->stub_interface);
  EXPECT_EQ(stub.address.value() + 1, vp.value());
  EXPECT_TRUE(stub.subnet.Contains(vp));
  // The stub does not create a router adjacency.
  EXPECT_EQ(t.Neighbors(0).size(), 1u);
}

TEST(Topology, ConnectedPrefixesCoverLoopbackLinksAndStubs) {
  Topology t = TwoAsChain();
  t.AttachHost(0, "VP");
  const auto prefixes = t.ConnectedPrefixes(0);
  // loopback + link a-b + host stub
  EXPECT_EQ(prefixes.size(), 3u);
}

TEST(ItdkDataset, NodesAliasesLinks) {
  ItdkDataset d;
  const NodeId n1 = d.NodeOf(Ipv4Address(5, 0, 0, 1));
  const NodeId n2 = d.NodeOf(Ipv4Address(5, 0, 0, 2));
  EXPECT_NE(n1, n2);
  d.AddAlias(n1, Ipv4Address(5, 0, 0, 3));
  EXPECT_EQ(d.NodeOf(Ipv4Address(5, 0, 0, 3)), n1);
  EXPECT_THROW(d.AddAlias(n2, Ipv4Address(5, 0, 0, 3)), std::logic_error);

  d.AddLink(n1, n2);
  d.AddLink(n2, n1);  // idempotent
  d.AddLink(n1, n1);  // ignored
  EXPECT_EQ(d.link_count(), 1u);
  EXPECT_EQ(d.Degree(n1), 1u);
  EXPECT_TRUE(d.HasLink(n1, n2));
  d.RemoveLink(n1, n2);
  EXPECT_FALSE(d.HasLink(n1, n2));
  EXPECT_EQ(d.Degree(n1), 0u);
}

TEST(ItdkDataset, DegreeDistributionAndHdns) {
  ItdkDataset d;
  // A star: hub with 5 spokes.
  const NodeId hub = d.NodeOf(Ipv4Address(5, 0, 0, 1));
  for (int i = 2; i <= 6; ++i) {
    d.AddLink(hub, d.NodeOf(Ipv4Address(5, 0, 0, static_cast<uint8_t>(i))));
  }
  const auto dist = d.DegreeDistribution();
  EXPECT_EQ(dist.CountOf(5), 1u);
  EXPECT_EQ(dist.CountOf(1), 5u);
  const auto hdns = d.HighDegreeNodes(5);
  ASSERT_EQ(hdns.size(), 1u);
  EXPECT_EQ(hdns[0], hub);
}

TEST(ItdkDataset, DensityOfSubset) {
  ItdkDataset d;
  const NodeId a = d.NodeOf(Ipv4Address(5, 0, 0, 1));
  const NodeId b = d.NodeOf(Ipv4Address(5, 0, 0, 2));
  const NodeId c = d.NodeOf(Ipv4Address(5, 0, 0, 3));
  d.AddLink(a, b);
  d.AddLink(b, c);
  d.AddLink(a, c);
  EXPECT_DOUBLE_EQ(d.Density({a, b, c}), 1.0);
  d.RemoveLink(a, c);
  EXPECT_DOUBLE_EQ(d.Density({a, b, c}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(d.Density({a}), 0.0);
}

TEST(ItdkDataset, SerializationRoundTrip) {
  ItdkDataset d;
  const NodeId a = d.NodeOf(Ipv4Address(5, 0, 0, 1));
  d.AddAlias(a, Ipv4Address(5, 0, 0, 9));
  const NodeId b = d.NodeOf(Ipv4Address(5, 1, 0, 1));
  d.AddLink(a, b);
  d.SetAs(a, 65001);
  d.SetAs(b, 65002);

  std::stringstream ss;
  d.Write(ss);
  const ItdkDataset back = ItdkDataset::Read(ss);
  EXPECT_EQ(back.node_count(), 2u);
  EXPECT_EQ(back.link_count(), 1u);
  const auto fa = back.FindNode(Ipv4Address(5, 0, 0, 9));
  ASSERT_TRUE(fa.has_value());
  EXPECT_EQ(back.node(*fa).asn, 65001u);
}

// A naive model of ItdkDataset that keeps links as an ordered set of
// (min, max) pairs. Random operation sequences must leave both in the
// same observable state, including the ascending neighbour order and the
// Write bytes that reports are built from.
struct DatasetModel {
  std::vector<std::vector<Ipv4Address>> addresses;
  std::map<Ipv4Address, NodeId> owner;
  std::vector<AsNumber> asn;
  std::set<std::pair<NodeId, NodeId>> links;

  NodeId NodeOf(Ipv4Address address) {
    if (const auto it = owner.find(address); it != owner.end()) {
      return it->second;
    }
    const auto id = static_cast<NodeId>(addresses.size());
    addresses.push_back({address});
    asn.push_back(0);
    owner.emplace(address, id);
    return id;
  }
  static std::pair<NodeId, NodeId> Key(NodeId a, NodeId b) {
    return std::minmax(a, b);
  }
  std::vector<NodeId> Neighbors(NodeId node) const {
    std::vector<NodeId> out;
    for (const auto& [a, b] : links) {
      if (a == node) out.push_back(b);
      if (b == node) out.push_back(a);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  double Density(const std::vector<NodeId>& nodes) const {
    const std::set<NodeId> members(nodes.begin(), nodes.end());
    if (members.size() < 2) return 0.0;
    std::size_t edges = 0;
    for (const auto& [a, b] : links) {
      if (members.contains(a) && members.contains(b)) ++edges;
    }
    const double v = static_cast<double>(members.size());
    return 2.0 * static_cast<double>(edges) / (v * (v - 1.0));
  }
  std::string Written() const {
    std::ostringstream os;
    for (std::size_t n = 0; n < addresses.size(); ++n) {
      os << "node N" << n << ":";
      for (const auto address : addresses[n]) os << ' ' << address;
      os << '\n';
    }
    for (std::size_t n = 0; n < addresses.size(); ++n) {
      if (asn[n] != 0) os << "node.AS N" << n << ' ' << asn[n] << '\n';
    }
    for (const auto& [a, b] : links) os << "link N" << a << " N" << b << '\n';
    return os.str();
  }
};

void ExpectMatchesModel(const ItdkDataset& d, const DatasetModel& m) {
  const auto n = static_cast<NodeId>(m.addresses.size());
  ASSERT_EQ(d.node_count(), n);
  EXPECT_EQ(d.link_count(), m.links.size());
  std::map<int, std::uint64_t> degrees;
  std::map<int, std::uint64_t> degrees_as7;
  for (NodeId a = 0; a < n + 2; ++a) {  // two unknown ids too
    const auto expected = a < n ? m.Neighbors(a) : std::vector<NodeId>{};
    const auto got = d.NeighborsOf(a);
    EXPECT_TRUE(std::ranges::equal(got, expected)) << "node " << a;
    EXPECT_EQ(d.Degree(a), expected.size());
    for (NodeId b = 0; b < n + 2; ++b) {
      EXPECT_EQ(d.HasLink(a, b), m.links.contains(DatasetModel::Key(a, b)))
          << a << "-" << b;
    }
    if (a >= n) continue;
    ++degrees[static_cast<int>(expected.size())];
    if (m.asn[a] == 7) ++degrees_as7[static_cast<int>(expected.size())];
  }
  EXPECT_EQ(d.DegreeDistribution().buckets(), degrees);
  EXPECT_EQ(d.DegreeDistribution(7).buckets(), degrees_as7);
  for (std::size_t threshold = 0; threshold <= 6; ++threshold) {
    std::vector<NodeId> hdns;
    for (NodeId a = 0; a < n; ++a) {
      if (m.Neighbors(a).size() >= threshold) hdns.push_back(a);
    }
    EXPECT_EQ(d.HighDegreeNodes(threshold), hdns) << threshold;
  }
  std::ostringstream written;
  d.Write(written);
  EXPECT_EQ(written.str(), m.Written());
}

TEST(ItdkDataset, MatchesNaiveReferenceModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    netbase::Rng rng(seed);
    ItdkDataset d;
    DatasetModel m;
    const auto address = [&] {
      return Ipv4Address(5, 0, 0, static_cast<uint8_t>(rng.UniformInt(0, 40)));
    };
    const auto some_node = [&] {
      return static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int>(m.addresses.size()) - 1));
    };
    m.NodeOf(Ipv4Address(5, 0, 0, 0));
    d.NodeOf(Ipv4Address(5, 0, 0, 0));
    for (int step = 0; step < 600; ++step) {
      switch (rng.UniformInt(0, 5)) {
        case 0: {
          const Ipv4Address a = address();
          EXPECT_EQ(d.NodeOf(a), m.NodeOf(a));
          break;
        }
        case 1: {
          const NodeId node = some_node();
          const Ipv4Address a = address();
          const auto it = m.owner.find(a);
          if (it == m.owner.end()) {
            d.AddAlias(node, a);
            m.addresses[node].push_back(a);
            m.owner.emplace(a, node);
          } else if (it->second == node) {
            d.AddAlias(node, a);  // no-op
          } else {
            EXPECT_THROW(d.AddAlias(node, a), std::logic_error);
          }
          break;
        }
        case 2:
        case 3: {
          // Self-links and repeated links are no-ops.
          const NodeId a = some_node();
          const NodeId b = rng.Chance(0.1) ? a : some_node();
          d.AddLink(a, b);
          if (a != b) m.links.insert(DatasetModel::Key(a, b));
          break;
        }
        case 4: {
          // Half the time a present link, in either orientation.
          NodeId a = some_node();
          NodeId b = some_node();
          if (!m.links.empty() && rng.Chance(0.5)) {
            const int pick =
                rng.UniformInt(0, static_cast<int>(m.links.size()) - 1);
            std::tie(a, b) = *std::next(m.links.begin(), pick);
            if (rng.Chance(0.5)) std::swap(a, b);
          }
          d.RemoveLink(a, b);
          m.links.erase(DatasetModel::Key(a, b));
          break;
        }
        default: {
          const NodeId node = some_node();
          const AsNumber asn = rng.Chance(0.5) ? 7 : 8;
          d.SetAs(node, asn);
          m.asn[node] = asn;
          break;
        }
      }
      if (step % 60 == 59) {
        ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(d, m));
        // Density over subsets with duplicate and unknown ids.
        for (int trial = 0; trial < 20; ++trial) {
          std::vector<NodeId> subset;
          const int size = rng.UniformInt(0, 12);
          const auto unknown = static_cast<NodeId>(m.addresses.size() + 3);
          for (int i = 0; i < size; ++i) {
            subset.push_back(rng.Chance(0.1) ? unknown : some_node());
            if (rng.Chance(0.2)) subset.push_back(subset.back());
          }
          EXPECT_DOUBLE_EQ(d.Density(subset), m.Density(subset));
        }
      }
    }
    EXPECT_THROW(d.AddLink(0, static_cast<NodeId>(m.addresses.size())),
                 std::out_of_range);
    d.RemoveLink(0, static_cast<NodeId>(m.addresses.size()));  // no-op
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(d, m));

    std::stringstream once;
    d.Write(once);
    const ItdkDataset back = ItdkDataset::Read(once);
    std::ostringstream twice;
    back.Write(twice);
    EXPECT_EQ(twice.str(), m.Written());
  }
}

TEST(ItdkDataset, ReadRejectsEveryMalformedLine) {
  const std::string header = "node N0: 5.0.0.1\nnode N1: 5.0.0.2\n";
  const struct {
    std::string record;
    std::string error;
  } kCases[] = {
      {"node N: 5.0.0.3", "bad node reference 'N'"},
      {"node N12x: 5.0.0.3", "bad node reference 'N12x'"},
      {"node N99999999999: 5.0.0.3", "bad node reference 'N99999999999'"},
      {"node 7: 5.0.0.3", "bad node reference '7'"},
      {"node N2:", "node with no addresses"},
      {"node N2: 5.0.0.300", "bad address '5.0.0.300'"},
      {"node N0: 5.0.0.3", "node N0 declared twice"},
      {"node N2: 5.0.0.2", "address 5.0.0.2 listed twice"},
      {"link N0 N5", "undeclared node N5"},
      {"node.AS N9 7", "undeclared node N9"},
      {"link N0 N-1", "bad node reference 'N-1'"},
      {"link N0", "link needs exactly two fields"},
      {"link N0 N1 N2", "link needs exactly two fields"},
      {"link N1 N1", "self-link"},
      {"node.AS N0 abc", "bad AS number 'abc'"},
      {"node.AS N0 12x", "bad AS number '12x'"},
      {"node.AS N0 99999999999", "bad AS number '99999999999'"},
      {"node.AS N0 7 extra", "node.AS needs exactly two fields"},
      {"edge N0 N1", "unknown record 'edge'"},
  };
  for (const auto& c : kCases) {
    std::stringstream ss(header + "# comment\n" + c.record + "\n");
    try {
      (void)ItdkDataset::Read(ss);
      ADD_FAILURE() << "accepted: " << c.record;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "itdk line 4: " + c.error) << c.record;
    }
  }
  std::stringstream ok(header + "link N1 N0\nlink N0 N1\nnode.AS N1 7\n");
  const ItdkDataset d = ItdkDataset::Read(ok);
  EXPECT_EQ(d.link_count(), 1u);
  EXPECT_EQ(d.node(1).asn, 7u);
}

TEST(GroundTruthDataset, MatchesTopology) {
  Topology t = TwoAsChain();
  const ItdkDataset d = GroundTruthDataset(t);
  EXPECT_EQ(d.node_count(), t.router_count());
  EXPECT_EQ(d.link_count(), t.link_count());
  // Interface addresses alias to their router's node.
  const auto n0 = d.FindNode(t.router(0).loopback);
  ASSERT_TRUE(n0.has_value());
  for (const InterfaceId iid : t.router(0).interfaces) {
    EXPECT_EQ(d.FindNode(t.interface(iid).address), n0);
  }
  EXPECT_EQ(d.node(*n0).asn, 1u);
}

}  // namespace
}  // namespace wormhole::topo
