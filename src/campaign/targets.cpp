#include "campaign/targets.h"

#include <algorithm>
#include <set>

namespace wormhole::campaign {

TargetSets SelectTargets(const topo::ItdkDataset& dataset,
                         std::size_t hdn_threshold) {
  TargetSets sets;
  sets.hdns = dataset.HighDegreeNodes(hdn_threshold);

  std::set<topo::NodeId> a_nodes;
  for (const topo::NodeId hdn : sets.hdns) {
    for (const topo::NodeId neighbor : dataset.NeighborsOf(hdn)) {
      a_nodes.insert(neighbor);
    }
  }
  std::set<topo::NodeId> b_nodes;
  for (const topo::NodeId a : a_nodes) {
    for (const topo::NodeId neighbor : dataset.NeighborsOf(a)) {
      if (!a_nodes.contains(neighbor)) b_nodes.insert(neighbor);
    }
  }

  const auto first_address = [&](topo::NodeId node) {
    return dataset.node(node).addresses.front();
  };
  for (const topo::NodeId n : a_nodes) {
    sets.set_a.push_back(first_address(n));
  }
  for (const topo::NodeId n : b_nodes) {
    sets.set_b.push_back(first_address(n));
  }

  std::set<netbase::Ipv4Address> all(sets.set_a.begin(), sets.set_a.end());
  all.insert(sets.set_b.begin(), sets.set_b.end());
  sets.all.assign(all.begin(), all.end());
  return sets;
}

std::vector<std::vector<netbase::Ipv4Address>> ShardTargets(
    const std::vector<netbase::Ipv4Address>& targets, std::size_t shards) {
  std::vector<std::vector<netbase::Ipv4Address>> out(std::max<std::size_t>(
      shards, 1));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    out[i % out.size()].push_back(targets[i]);
  }
  return out;
}

}  // namespace wormhole::campaign
