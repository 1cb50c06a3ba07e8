// An ITDK-like router-level dataset (CAIDA Internet Topology Data Kit
// stand-in): nodes are routers (sets of aliased interface addresses), links
// are inferred router adjacencies, and each node maps to an AS.
//
// The campaign module builds one of these from plain traceroute output —
// with invisible MPLS tunnels producing exactly the false links and
// high-degree meshes the paper studies — and the analysis module corrects
// it after tunnel revelation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/stats.h"
#include "topo/topology.h"

namespace wormhole::topo {

using NodeId = std::uint32_t;
constexpr NodeId kNoNode = static_cast<NodeId>(-1);

struct ItdkNode {
  NodeId id = kNoNode;
  std::vector<netbase::Ipv4Address> addresses;
  AsNumber asn = 0;
};

class ItdkDataset {
 public:
  /// Returns the node owning `address`, creating it if unseen.
  NodeId NodeOf(netbase::Ipv4Address address);
  /// Returns the node owning `address` without creating; nullopt if unseen.
  [[nodiscard]] std::optional<NodeId> FindNode(
      netbase::Ipv4Address address) const;

  /// Adds `address` as an alias of `node` (no-op if already present).
  void AddAlias(NodeId node, netbase::Ipv4Address address);

  /// Records an undirected link between two nodes (idempotent; self-links
  /// are ignored). Throws std::out_of_range if either node is unknown.
  void AddLink(NodeId a, NodeId b);
  /// Removes a link if present; used when revelation disproves an inferred
  /// adjacency between tunnel endpoints.
  void RemoveLink(NodeId a, NodeId b);
  [[nodiscard]] bool HasLink(NodeId a, NodeId b) const;

  void SetAs(NodeId node, AsNumber asn);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return link_count_; }
  [[nodiscard]] const ItdkNode& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] const std::vector<ItdkNode>& nodes() const { return nodes_; }

  [[nodiscard]] std::size_t Degree(NodeId node) const {
    return NeighborsOf(node).size();
  }
  /// The node's neighbours in ascending id order (empty for an unknown
  /// node). Target selection, the graph metrics and Write walk links in
  /// this order, so report bytes depend on it. The span stays valid until
  /// the next AddLink/RemoveLink that touches `node`.
  [[nodiscard]] std::span<const NodeId> NeighborsOf(NodeId node) const {
    if (node >= neighbors_.size()) return {};
    return neighbors_[node];
  }

  /// Degree PDF over all nodes (Fig. 1 / Fig. 10 material).
  [[nodiscard]] netbase::IntDistribution DegreeDistribution() const;
  /// Degree PDF restricted to nodes of one AS (Fig. 10b).
  [[nodiscard]] netbase::IntDistribution DegreeDistribution(
      AsNumber asn) const;

  /// Nodes with degree >= threshold — the paper's HDN trigger (Sec. 4).
  [[nodiscard]] std::vector<NodeId> HighDegreeNodes(
      std::size_t threshold) const;

  /// Graph density 2E / (V (V-1)) of the subgraph induced by `nodes`
  /// (duplicates count once; fewer than two distinct ids give 0). Table 4's
  /// "Graph Density" columns pass an AS's candidate LER nodes.
  [[nodiscard]] double Density(const std::vector<NodeId>& nodes) const;

  // --- serialization (simple line format, see itdk.cpp) -------------------
  void Write(std::ostream& os) const;
  /// Parses what Write emits; throws std::runtime_error naming the line
  /// number on any malformed record.
  static ItdkDataset Read(std::istream& is);

 private:
  std::vector<ItdkNode> nodes_;
  std::unordered_map<netbase::Ipv4Address, NodeId> address_to_node_;
  /// The only link store: neighbors_[n] lists n's neighbours, sorted
  /// ascending without duplicates, so each link appears in both lists.
  /// Indexed like nodes_.
  std::vector<std::vector<NodeId>> neighbors_;
  std::size_t link_count_ = 0;
};

/// Builds the ground-truth router-level dataset straight from a Topology —
/// perfect alias resolution, every physical link present. Used as the
/// reference when measuring how much of the truth a campaign recovers.
ItdkDataset GroundTruthDataset(const Topology& topology);

}  // namespace wormhole::topo
