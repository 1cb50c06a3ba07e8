// HDN-driven target selection (paper Sec. 4): from the (inferred) dataset,
// take nodes of degree >= threshold as High Degree Nodes; set A is their
// neighbors, set B the neighbors of neighbors — probing A ∪ B simulates
// transit traffic traversing the suspicious ASes end to end.
#pragma once

#include <vector>

#include "topo/itdk.h"

namespace wormhole::campaign {

struct TargetSets {
  std::vector<topo::NodeId> hdns;
  /// One address per HDN neighbor node.
  std::vector<netbase::Ipv4Address> set_a;
  /// One address per neighbor-of-neighbor node (excluding set A nodes).
  std::vector<netbase::Ipv4Address> set_b;
  /// A ∪ B, deduplicated.
  std::vector<netbase::Ipv4Address> all;
};

TargetSets SelectTargets(const topo::ItdkDataset& dataset,
                         std::size_t hdn_threshold);

/// Splits `targets` into `shards` consistent subsets (the paper's five VP
/// teams probed disjoint destination sets).
std::vector<std::vector<netbase::Ipv4Address>> ShardTargets(
    const std::vector<netbase::Ipv4Address>& targets, std::size_t shards);

}  // namespace wormhole::campaign
