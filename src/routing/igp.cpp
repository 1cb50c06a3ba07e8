#include "routing/igp.h"

#include <algorithm>
#include <utility>

namespace wormhole::routing {

SpfResult ComputeSpf(const topo::Topology& topology, RouterId source) {
  SpfEngine engine(topology);
  const SpfTree& tree = engine.TreeOf(source);
  // Expand the windowed tree back to router_count-sized arrays — this
  // compatibility view is for tests and small worlds only.
  SpfResult result;
  result.source = source;
  const std::size_t n = topology.router_count();
  result.distance.assign(n, kUnreachable);
  result.hop_count.assign(n, kUnreachable);
  result.next_hops.resize(n);
  for (std::size_t i = 0; i < tree.distance.size(); ++i) {
    const RouterId v = tree.base + static_cast<RouterId>(i);
    result.distance[v] = tree.distance[i];
    result.hop_count[v] = tree.hop_count[i];
    const auto span = tree.FirstHops(v);
    result.next_hops[v].assign(span.begin(), span.end());
  }
  return result;
}

IgpPlan BuildIgpPlan(const topo::Topology& topology, topo::AsNumber asn) {
  // Owners of every internal prefix, so each router can route a prefix via
  // its nearest owner. Subnets of inter-AS (eBGP) links are *not* carried
  // by the IGP — the border router injects them via iBGP with
  // next-hop-self (see InstallBgpRoutes), which is what lets transit
  // traffic towards them ride the LDP LSP to the border.
  std::vector<std::pair<netbase::Prefix, RouterId>> prefix_owners;
  for (const RouterId rid : topology.as(asn).routers) {
    const topo::Router& router = topology.router(rid);
    prefix_owners.emplace_back(netbase::Prefix::Host(router.loopback), rid);
    for (const topo::InterfaceId iid : router.interfaces) {
      const topo::Interface& iface = topology.interface(iid);
      if (iface.link != topo::kNoLink &&
          (!topology.link(iface.link).up ||
           !topology.IsInternalLink(iface.link))) {
        continue;
      }
      prefix_owners.emplace_back(iface.subnet, rid);
    }
  }
  std::stable_sort(prefix_owners.begin(), prefix_owners.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  IgpPlan plan;
  plan.asn = asn;
  for (const auto& [prefix, owner] : prefix_owners) {
    if (plan.prefixes.empty() || plan.prefixes.back().prefix != prefix) {
      plan.prefixes.push_back(IgpPrefixOwners{prefix, {}});
    }
    plan.prefixes.back().owners.push_back(owner);
  }
  return plan;
}

void InstallIgpRoutesForRouter(const topo::Topology& topology,
                               const IgpPlan& plan, const SpfTree& tree,
                               RouterId rid, Fib& fib) {
  // Connected routes first (metric 0, empty next hops == local/attached).
  for (const netbase::Prefix& p : topology.ConnectedPrefixes(rid)) {
    FibEntry entry;
    entry.prefix = p;
    entry.source = RouteSource::kConnected;
    entry.metric = 0;
    fib.AddRoute(std::move(entry));
  }

  // Remote internal prefixes via their nearest owner.
  for (const IgpPrefixOwners& group : plan.prefixes) {
    int best = kUnreachable;
    RouterId best_owner = topo::kNoRouter;
    bool multiple = false;
    for (const RouterId owner : group.owners) {
      if (owner == rid) continue;
      const int d = tree.DistanceTo(owner);
      if (d == kUnreachable || d > best) continue;
      if (d < best) {
        best = d;
        best_owner = owner;
        multiple = false;
      } else {
        multiple = true;
      }
    }
    if (best == kUnreachable) continue;

    FibEntry entry;
    entry.prefix = group.prefix;
    entry.source = RouteSource::kIgp;
    entry.metric = best;
    if (!multiple) {
      const auto span = tree.FirstHops(best_owner);
      entry.next_hops.assign(span.data(), span.data() + span.size());
    } else {
      // Equidistant owners (both ends of a /31 at the same metric): the
      // route's ECMP set is the union; AddRoute sorts and dedupes.
      for (const RouterId owner : group.owners) {
        if (owner == rid || tree.DistanceTo(owner) != best) continue;
        const auto span = tree.FirstHops(owner);
        entry.next_hops.append(span.data(), span.data() + span.size());
      }
    }
    // Connected wins: a prefix already present (installed above) is kept.
    fib.AddRouteIfAbsent(std::move(entry));
  }
}

void InstallIgpRoutes(const topo::Topology& topology, topo::AsNumber asn,
                      std::vector<Fib>& fibs) {
  SpfEngine engine(topology);
  const IgpPlan plan = BuildIgpPlan(topology, asn);
  for (const RouterId rid : topology.as(asn).routers) {
    InstallIgpRoutesForRouter(topology, plan, engine.TreeOf(rid), rid,
                              fibs.at(rid));
  }
}

int IgpDistance(const topo::Topology& topology, RouterId from, RouterId to) {
  if (topology.router(from).asn != topology.router(to).asn) {
    return kUnreachable;
  }
  SpfEngine engine(topology);
  return engine.TreeOf(from).DistanceTo(to);
}

int IgpDistance(SpfEngine& engine, RouterId from, RouterId to) {
  if (engine.topology().router(from).asn !=
      engine.topology().router(to).asn) {
    return kUnreachable;
  }
  return engine.TreeOf(from).DistanceTo(to);
}

int IgpHopDistance(const topo::Topology& topology, RouterId from,
                   RouterId to) {
  if (topology.router(from).asn != topology.router(to).asn) {
    return kUnreachable;
  }
  SpfEngine engine(topology);
  return engine.TreeOf(from).HopCountTo(to);
}

int IgpHopDistance(SpfEngine& engine, RouterId from, RouterId to) {
  if (engine.topology().router(from).asn !=
      engine.topology().router(to).asn) {
    return kUnreachable;
  }
  return engine.TreeOf(from).HopCountTo(to);
}

}  // namespace wormhole::routing
