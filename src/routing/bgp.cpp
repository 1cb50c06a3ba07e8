#include "routing/bgp.h"

#include <algorithm>
#include <deque>
#include <utility>

namespace wormhole::routing {

namespace {

using topo::AsNumber;
using topo::Topology;

using AsAdjacency =
    std::map<AsNumber, std::map<AsNumber, std::vector<BorderLink>>>;

AsAdjacency BuildAsAdjacency(const Topology& topology) {
  AsAdjacency adjacency;
  for (const topo::Link& link : topology.links()) {
    if (!link.up) continue;
    const RouterId ra = topology.interface(link.a).router;
    const RouterId rb = topology.interface(link.b).router;
    const AsNumber as_a = topology.router(ra).asn;
    const AsNumber as_b = topology.router(rb).asn;
    if (as_a == as_b) continue;
    adjacency[as_a][as_b].push_back({ra, rb, link.id});
    adjacency[as_b][as_a].push_back({rb, ra, link.id});
  }
  return adjacency;
}

/// BFS over the AS graph from destination `to_as`, honouring the stub
/// policy. Returns, for every AS, its chosen next AS towards `to_as`
/// (0 when unreachable; `to_as` maps to itself).
std::map<AsNumber, AsNumber> ComputeNextAs(const Topology& topology,
                                           const AsAdjacency& adjacency,
                                           const BgpPolicy& policy,
                                           AsNumber to_as) {
  std::map<AsNumber, int> distance;
  std::map<AsNumber, AsNumber> next_as;
  for (const AsNumber asn : topology.AsNumbers()) {
    distance[asn] = -1;
    next_as[asn] = 0;
  }
  distance[to_as] = 0;
  next_as[to_as] = to_as;

  std::deque<AsNumber> queue{to_as};
  while (!queue.empty()) {
    const AsNumber current = queue.front();
    queue.pop_front();
    // A stub AS may receive traffic (be `to_as`) but never forwards it;
    // do not expand through it unless it is the destination itself.
    if (policy.stub_ases.contains(current) && current != to_as) continue;

    const auto it = adjacency.find(current);
    if (it == adjacency.end()) continue;
    for (const auto& [peer, links] : it->second) {
      if (distance[peer] == -1) {
        distance[peer] = distance[current] + 1;
        next_as[peer] = current;
        queue.push_back(peer);
      } else if (distance[peer] == distance[current] + 1 &&
                 current < next_as[peer]) {
        // Deterministic tie-break: prefer the lower next ASN.
        next_as[peer] = current;
      }
    }
  }
  return next_as;
}

/// Hierarchical-mode BFS over the CORE AS graph only (stubs are leaves:
/// never expanded, never given entries). Same distances and tie-breaks as
/// ComputeNextAs restricted to non-stub ASes.
std::map<AsNumber, AsNumber> ComputeNextAsCore(
    const std::vector<AsNumber>& core, const AsAdjacency& adjacency,
    const BgpPolicy& policy, AsNumber to_as) {
  std::map<AsNumber, int> distance;
  std::map<AsNumber, AsNumber> next_as;
  for (const AsNumber asn : core) {
    distance[asn] = -1;
    next_as[asn] = 0;
  }
  distance[to_as] = 0;
  next_as[to_as] = to_as;

  std::deque<AsNumber> queue{to_as};
  while (!queue.empty()) {
    const AsNumber current = queue.front();
    queue.pop_front();
    const auto it = adjacency.find(current);
    if (it == adjacency.end()) continue;
    for (const auto& [peer, links] : it->second) {
      if (policy.stub_ases.contains(peer)) continue;
      if (distance[peer] == -1) {
        distance[peer] = distance[current] + 1;
        next_as[peer] = current;
        queue.push_back(peer);
      } else if (distance[peer] == distance[current] + 1 &&
                 current < next_as[peer]) {
        next_as[peer] = current;
      }
    }
  }
  return next_as;
}

/// The covering prefix a core AS announces in hierarchical mode.
Prefix AggregateOf(const Topology& topology, const BgpPolicy& policy,
                   AsNumber asn) {
  const auto it = policy.aggregates.find(asn);
  return it != policy.aggregates.end() ? it->second : topology.as(asn).block;
}

/// Flattens the hierarchical per-source install plans: core ASes get one
/// aggregate exit per other core AS plus a direct exit per stub customer;
/// stub ASes get a single default exit toward their lowest-ASN provider.
void FlattenHierarchicalExits(const Topology& topology,
                              const BgpPolicy& policy,
                              const std::vector<AsNumber>& core,
                              BgpLevel& level) {
  for (const AsNumber from_as : topology.AsNumbers()) {
    std::vector<BgpExit>& exits = level.exits[from_as];
    const auto adjacency_it = level.adjacency.find(from_as);
    if (adjacency_it == level.adjacency.end()) continue;

    if (policy.stub_ases.contains(from_as)) {
      // Default toward the primary (lowest-ASN core) provider; its other
      // providers still reach it directly, so dual-homing stays useful
      // for inbound traffic.
      for (const auto& [peer, links] : adjacency_it->second) {
        if (policy.stub_ases.contains(peer)) continue;
        exits.push_back({Prefix(netbase::Ipv4Address(0), 0), &links});
        break;  // adjacency is ASN-ordered: first core peer is lowest
      }
      continue;
    }

    for (const AsNumber to_as : core) {
      if (from_as == to_as) continue;
      const AsNumber via = level.next_for.at(to_as).at(from_as);
      if (via == 0) continue;  // unreachable
      exits.push_back({AggregateOf(topology, policy, to_as),
                       &adjacency_it->second.at(via)});
    }
    // Direct customer routes: more specific than any aggregate, so the
    // LPM prefers them regardless of install order.
    for (const auto& [peer, links] : adjacency_it->second) {
      if (!policy.stub_ases.contains(peer)) continue;
      exits.push_back({topology.as(peer).block, &links});
    }
  }
}

}  // namespace

BgpLevel ComputeBgpLevel(const Topology& topology, const BgpPolicy& policy) {
  BgpLevel level;
  level.adjacency = BuildAsAdjacency(topology);
  if (policy.hierarchical) {
    std::vector<AsNumber> core;
    for (const AsNumber asn : topology.AsNumbers()) {
      if (!policy.stub_ases.contains(asn)) core.push_back(asn);
    }
    std::sort(core.begin(), core.end());
    for (const AsNumber to_as : core) {
      level.next_for[to_as] =
          ComputeNextAsCore(core, level.adjacency, policy, to_as);
    }
    FlattenHierarchicalExits(topology, policy, core, level);
    for (const AsNumber from_as : topology.AsNumbers()) {
      std::vector<BorderSubnet>& subnets = level.border_subnets[from_as];
      for (const RouterId border : topology.as(from_as).routers) {
        for (const topo::InterfaceId iid :
             topology.router(border).interfaces) {
          const topo::Interface& iface = topology.interface(iid);
          if (iface.link == topo::kNoLink ||
              !topology.link(iface.link).up ||
              topology.IsInternalLink(iface.link)) {
            continue;
          }
          subnets.push_back({iface.subnet, border});
        }
      }
    }
    return level;
  }
  for (const AsNumber to_as : topology.AsNumbers()) {
    level.next_for[to_as] =
        ComputeNextAs(topology, level.adjacency, policy, to_as);
  }

  // Flatten both per-source-AS install plans once, here, so the install
  // loop below runs map-free per router. Orders mirror the historical
  // per-router scans exactly: destinations ascending; border subnets in
  // AS-member then interface order.
  for (const AsNumber from_as : topology.AsNumbers()) {
    std::vector<BgpExit>& exits = level.exits[from_as];
    const auto adjacency_it = level.adjacency.find(from_as);
    for (const AsNumber to_as : topology.AsNumbers()) {
      if (from_as == to_as) continue;
      const AsNumber via = level.next_for.at(to_as).at(from_as);
      if (via == 0) continue;  // unreachable
      // via != 0 implies from_as has at least one eBGP adjacency.
      exits.push_back(
          {topology.as(to_as).block, &adjacency_it->second.at(via)});
    }

    std::vector<BorderSubnet>& subnets = level.border_subnets[from_as];
    for (const RouterId border : topology.as(from_as).routers) {
      for (const topo::InterfaceId iid :
           topology.router(border).interfaces) {
        const topo::Interface& iface = topology.interface(iid);
        if (iface.link == topo::kNoLink || !topology.link(iface.link).up ||
            topology.IsInternalLink(iface.link)) {
          continue;
        }
        subnets.push_back({iface.subnet, border});
      }
    }
  }
  return level;
}

AsNumber BgpNextAs(const Topology& topology, const BgpPolicy& policy,
                   AsNumber from_as, AsNumber to_as) {
  if (from_as == to_as) return 0;
  const AsAdjacency adjacency = BuildAsAdjacency(topology);
  const auto next = ComputeNextAs(topology, adjacency, policy, to_as);
  const auto it = next.find(from_as);
  return it == next.end() ? 0 : it->second;
}

void InstallBgpRoutesForRouter(const Topology& topology,
                               const BgpLevel& level, const SpfTree& tree,
                               RouterId rid, Fib& fib) {
  const AsNumber from_as = topology.router(rid).asn;

  // Border routers inject the subnets of their eBGP links into their own
  // AS via iBGP with next-hop-self: other routers of the AS reach such a
  // subnet through the border's loopback, i.e. over an LDP LSP when MPLS
  // is on. (The IGP deliberately does not carry these prefixes.) The
  // subnet list was flattened per AS in ComputeBgpLevel. AddRouteIfAbsent
  // keeps the connected-route-wins rule: the FIB's seal keeps a connected
  // AddRoute over any AddRouteIfAbsent for the same prefix.
  for (const BorderSubnet& bs : level.border_subnets.at(from_as)) {
    if (bs.border == rid) continue;  // connected route already present
    const int border_distance = tree.DistanceTo(bs.border);
    if (border_distance == kUnreachable) continue;
    FibEntry entry;
    entry.prefix = bs.subnet;
    entry.source = RouteSource::kBgp;
    entry.metric = border_distance;
    const auto span = tree.FirstHops(bs.border);
    entry.next_hops.assign(span.data(), span.data() + span.size());
    entry.bgp_next_hop = topology.router(bs.border).loopback;
    fib.AddRouteIfAbsent(std::move(entry));
  }

  for (const BgpExit& exit : level.exits.at(from_as)) {
    // Border routers of from_as peering with the chosen next AS.
    const auto& border_links = *exit.borders;

    FibEntry entry;
    entry.prefix = exit.prefix;
    entry.source = RouteSource::kBgp;

    // Direct eBGP exit(s) from this router, if it is itself a border.
    NextHopSet external;
    for (const BorderLink& bl : border_links) {
      if (bl.local == rid) external.push_back({bl.link, bl.remote});
    }
    if (!external.empty()) {
      entry.metric = 0;
      entry.next_hops = std::move(external);
    } else {
      // Hot-potato: nearest border router by IGP metric; ties broken on
      // lower router id via the link-id scan order.
      RouterId egress = topo::kNoRouter;
      int best = kUnreachable;
      for (const BorderLink& bl : border_links) {
        const int d = tree.DistanceTo(bl.local);
        if (d < best) {
          best = d;
          egress = bl.local;
        }
      }
      if (egress == topo::kNoRouter) continue;  // partitioned AS
      entry.metric = best;
      const auto span = tree.FirstHops(egress);
      entry.next_hops.assign(span.data(), span.data() + span.size());
      entry.bgp_next_hop = topology.router(egress).loopback;
    }
    fib.AddRoute(std::move(entry));
  }
}

void InstallBgpRoutes(const Topology& topology, const BgpPolicy& policy,
                      std::vector<Fib>& fibs) {
  const BgpLevel level = ComputeBgpLevel(topology, policy);
  SpfEngine engine(topology);
  for (const AsNumber from_as : topology.AsNumbers()) {
    for (const RouterId rid : topology.as(from_as).routers) {
      InstallBgpRoutesForRouter(topology, level, engine.TreeOf(rid), rid,
                                fibs.at(rid));
    }
  }
}

}  // namespace wormhole::routing
