#include "topo/itdk.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "netbase/parse.h"

namespace wormhole::topo {

NodeId ItdkDataset::NodeOf(netbase::Ipv4Address address) {
  const auto it = address_to_node_.find(address);
  if (it != address_to_node_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  ItdkNode node;
  node.id = id;
  node.addresses.push_back(address);
  nodes_.push_back(std::move(node));
  neighbors_.emplace_back();
  address_to_node_[address] = id;
  return id;
}

std::optional<NodeId> ItdkDataset::FindNode(
    netbase::Ipv4Address address) const {
  const auto it = address_to_node_.find(address);
  if (it == address_to_node_.end()) return std::nullopt;
  return it->second;
}

void ItdkDataset::AddAlias(NodeId node, netbase::Ipv4Address address) {
  const auto it = address_to_node_.find(address);
  if (it != address_to_node_.end()) {
    if (it->second != node) {
      throw std::logic_error("address already aliased to another node");
    }
    return;
  }
  nodes_.at(node).addresses.push_back(address);
  address_to_node_[address] = node;
}

void ItdkDataset::AddLink(NodeId a, NodeId b) {
  if (a == b || HasLink(a, b)) return;
  std::vector<NodeId>& of_a = neighbors_.at(a);
  std::vector<NodeId>& of_b = neighbors_.at(b);
  of_a.insert(std::lower_bound(of_a.begin(), of_a.end(), b), b);
  of_b.insert(std::lower_bound(of_b.begin(), of_b.end(), a), a);
  ++link_count_;
}

void ItdkDataset::RemoveLink(NodeId a, NodeId b) {
  if (!HasLink(a, b)) return;
  std::vector<NodeId>& of_a = neighbors_[a];
  std::vector<NodeId>& of_b = neighbors_[b];
  of_a.erase(std::lower_bound(of_a.begin(), of_a.end(), b));
  of_b.erase(std::lower_bound(of_b.begin(), of_b.end(), a));
  --link_count_;
}

bool ItdkDataset::HasLink(NodeId a, NodeId b) const {
  const auto of_a = NeighborsOf(a);
  const auto of_b = NeighborsOf(b);
  return of_a.size() <= of_b.size()
             ? std::binary_search(of_a.begin(), of_a.end(), b)
             : std::binary_search(of_b.begin(), of_b.end(), a);
}

void ItdkDataset::SetAs(NodeId node, AsNumber asn) {
  nodes_.at(node).asn = asn;
}

netbase::IntDistribution ItdkDataset::DegreeDistribution() const {
  netbase::IntDistribution d;
  for (const ItdkNode& node : nodes_) {
    d.Add(static_cast<int>(Degree(node.id)));
  }
  return d;
}

netbase::IntDistribution ItdkDataset::DegreeDistribution(AsNumber asn) const {
  netbase::IntDistribution d;
  for (const ItdkNode& node : nodes_) {
    if (node.asn == asn) d.Add(static_cast<int>(Degree(node.id)));
  }
  return d;
}

std::vector<NodeId> ItdkDataset::HighDegreeNodes(std::size_t threshold) const {
  std::vector<NodeId> out;
  for (const ItdkNode& node : nodes_) {
    if (Degree(node.id) >= threshold) out.push_back(node.id);
  }
  return out;
}

double ItdkDataset::Density(const std::vector<NodeId>& nodes) const {
  std::vector<NodeId> members(nodes);
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  if (members.size() < 2) return 0.0;
  std::size_t edges = 0;
  for (const NodeId a : members) {
    for (const NodeId b : NeighborsOf(a)) {
      if (b > a && std::binary_search(members.begin(), members.end(), b)) {
        ++edges;
      }
    }
  }
  const double v = static_cast<double>(members.size());
  return 2.0 * static_cast<double>(edges) / (v * (v - 1.0));
}

void ItdkDataset::Write(std::ostream& os) const {
  // Format (one record per line, CAIDA-flavoured):
  //   node N<i>: addr addr ...
  //   node.AS N<i> <asn>
  //   link N<i> N<j>
  for (const ItdkNode& node : nodes_) {
    os << "node N" << node.id << ":";
    for (const auto address : node.addresses) os << ' ' << address;
    os << '\n';
  }
  for (const ItdkNode& node : nodes_) {
    if (node.asn != 0) os << "node.AS N" << node.id << ' ' << node.asn << '\n';
  }
  for (const ItdkNode& node : nodes_) {
    for (const NodeId b : NeighborsOf(node.id)) {
      if (b > node.id) os << "link N" << node.id << " N" << b << '\n';
    }
  }
}

namespace {

[[noreturn]] void Malformed(std::size_t line, const std::string& what) {
  throw std::runtime_error("itdk line " + std::to_string(line) + ": " + what);
}

/// "N<id>" with a decimal id that fits NodeId, nothing else.
NodeId ParseNodeRef(std::string_view token, std::size_t line) {
  if (token.starts_with('N')) {
    if (const auto id = netbase::ParseNumber<NodeId>(token.substr(1))) {
      return *id;
    }
  }
  Malformed(line, "bad node reference '" + std::string(token) + "'");
}

}  // namespace

ItdkDataset ItdkDataset::Read(std::istream& is) {
  ItdkDataset dataset;
  std::unordered_map<NodeId, NodeId> remap;  // file id -> dataset id
  const auto declared = [&remap](std::string_view token, std::size_t line) {
    const auto it = remap.find(ParseNodeRef(token, line));
    if (it == remap.end()) {
      Malformed(line, "undeclared node " + std::string(token));
    }
    return it->second;
  };
  std::string line;
  std::vector<std::string> tokens;
  for (std::size_t number = 1; std::getline(is, line); ++number) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    tokens.clear();
    for (std::string token; ss >> token;) tokens.push_back(token);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];
    if (keyword == "node") {
      if (tokens.size() < 3) Malformed(number, "node with no addresses");
      std::string_view ref = tokens[1];
      if (ref.ends_with(':')) ref.remove_suffix(1);
      const NodeId file_id = ParseNodeRef(ref, number);
      if (remap.contains(file_id)) {
        Malformed(number, "node " + std::string(ref) + " declared twice");
      }
      NodeId id = kNoNode;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto address = netbase::Ipv4Address::Parse(tokens[i]);
        if (!address) Malformed(number, "bad address '" + tokens[i] + "'");
        if (dataset.FindNode(*address)) {
          Malformed(number, "address " + tokens[i] + " listed twice");
        }
        if (id == kNoNode) {
          id = dataset.NodeOf(*address);
        } else {
          dataset.AddAlias(id, *address);
        }
      }
      remap.emplace(file_id, id);
    } else if (keyword == "node.AS" || keyword == "link") {
      if (tokens.size() != 3) {
        Malformed(number, keyword + " needs exactly two fields");
      }
      const NodeId a = declared(tokens[1], number);
      if (keyword == "link") {
        const NodeId b = declared(tokens[2], number);
        if (a == b) Malformed(number, "self-link");
        dataset.AddLink(a, b);
      } else {
        const auto asn = netbase::ParseNumber<AsNumber>(tokens[2]);
        if (!asn) Malformed(number, "bad AS number '" + tokens[2] + "'");
        dataset.SetAs(a, *asn);
      }
    } else {
      Malformed(number, "unknown record '" + keyword + "'");
    }
  }
  return dataset;
}

ItdkDataset GroundTruthDataset(const Topology& topology) {
  ItdkDataset dataset;
  std::vector<NodeId> node_of_router(topology.router_count(), kNoNode);
  for (const Router& router : topology.routers()) {
    const NodeId node = dataset.NodeOf(router.loopback);
    node_of_router[router.id] = node;
    dataset.SetAs(node, router.asn);
    for (const InterfaceId iid : router.interfaces) {
      dataset.AddAlias(node, topology.interface(iid).address);
    }
  }
  for (const Link& link : topology.links()) {
    dataset.AddLink(node_of_router[topology.interface(link.a).router],
                    node_of_router[topology.interface(link.b).router]);
  }
  return dataset;
}

}  // namespace wormhole::topo
