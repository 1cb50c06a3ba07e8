#include "sim/network.h"

#include <algorithm>
#include <utility>

#include "exec/thread_pool.h"
#include "routing/igp.h"

namespace wormhole::sim {

Network::Network(const topo::Topology& topology,
                 const mpls::MplsConfigMap& configs,
                 routing::BgpPolicy bgp_policy, EngineOptions options,
                 const mpls::TeDatabase* te, const mpls::SrDatabase* sr,
                 std::size_t convergence_jobs)
    : topology_(&topology),
      configs_(&configs),
      bgp_policy_(std::move(bgp_policy)),
      options_(options),
      te_(te),
      sr_(sr),
      spf_(topology) {
  const std::size_t jobs = exec::ResolveJobs(convergence_jobs);
  if (jobs > 1) pool_ = std::make_unique<exec::ThreadPool>(jobs);
  exec::RoleLock converge(convergence_role_);
  ConvergeFull();
}

Network::~Network() = default;

void Network::ConvergeFull() {
  const std::size_t n = topology_->router_count();
  fibs_.resize(n);
  std::vector<topo::RouterId> all(n);
  for (std::size_t r = 0; r < n; ++r) {
    all[r] = static_cast<topo::RouterId>(r);
  }

  // Phase 1: every (AS, source) SPF tree, exactly once, fanned out in
  // fixed shards.
  spf_.Prime(all, pool_.get());

  // Phase 2: per-AS IGP prefix plans and the AS-level BGP state. Neither
  // reads any FIB.
  const std::vector<topo::AsNumber> as_numbers = topology_->AsNumbers();
  std::vector<routing::IgpPlan> plans(as_numbers.size());
  exec::ParallelFor(pool_.get(), as_numbers.size(), [&](std::size_t i) {
    plans[i] = routing::BuildIgpPlan(*topology_, as_numbers[i]);
  });
  bgp_level_ = routing::ComputeBgpLevel(*topology_, bgp_policy_);

  // Phase 3: per-router route installation + seal (each task owns its
  // router's FIB — disjoint writes, shared read-only inputs).
  InstallRoutes(all, plans);

  // Phase 4: LDP domains from the sealed FIBs; then the engine's
  // per-router hot-path caches.
  ldp_ = mpls::LdpTables(*topology_, *configs_, fibs_, pool_.get());
  engine_ = std::make_unique<Engine>(*topology_, *configs_, fibs_, ldp_,
                                     options_, te_, sr_, pool_.get());
}

void Network::InstallRoutes(const std::vector<topo::RouterId>& routers,
                            const std::vector<routing::IgpPlan>& plans) {
  std::unordered_map<topo::AsNumber, const routing::IgpPlan*> plan_of;
  plan_of.reserve(plans.size());
  for (const routing::IgpPlan& plan : plans) plan_of[plan.asn] = &plan;

  exec::ParallelFor(pool_.get(), routers.size(), [&](std::size_t i) {
    const topo::RouterId rid = routers[i];
    routing::Fib& fib = fibs_[rid];
    const routing::SpfTree& tree = spf_.CachedTree(rid);
    const routing::IgpPlan& plan =
        *plan_of.at(topology_->router(rid).asn);
    routing::InstallIgpRoutesForRouter(*topology_, plan, tree, rid, fib);
    routing::InstallBgpRoutesForRouter(*topology_, bgp_level_, tree, rid,
                                       fib);
    // Seal here, off the packet path, while the FIB is cache-hot.
    fib.Seal();
  });
}

routing::ConvergenceDelta Network::OnLinkStateChange(topo::LinkId link) {
  // The exclusive write phase: no probe may be in flight (see header).
  exec::RoleLock converge(convergence_role_);
  const topo::Link& l = topology_->link(link);
  const topo::AsNumber as_a =
      topology_->router(topology_->interface(l.a).router).asn;
  const topo::AsNumber as_b =
      topology_->router(topology_->interface(l.b).router).asn;
  routing::ConvergenceDelta delta;
  if (as_a == as_b) {
    ReconvergeAs(as_a, delta);
  } else {
    ReconvergeInterAs(delta);
  }
  // Stamp AFTER the rebuild: this is the epoch the new state lives under.
  delta.epoch = engine_->convergence_epoch();
  return delta;
}

void Network::ReconvergeAs(topo::AsNumber asn,
                           routing::ConvergenceDelta& delta) {
  const std::vector<topo::RouterId>& members = topology_->as(asn).routers;
  delta.scope = routing::ConvergenceDelta::Scope::kIntraAs;
  delta.touched_as = asn;

  // Only this AS's shortest paths can have moved: drop and recompute its
  // members' trees, keep every other AS's.
  spf_.ApplyTopologyChange(members);
  spf_.Prime(members, pool_.get());

  // Clear in place: the Engine caches `const Fib*` per router, so the Fib
  // objects must keep their addresses, and each keeps its entry array's
  // storage, so the rebuilt tables stay where they were in the heap.
  for (const topo::RouterId rid : members) fibs_[rid].Clear();

  // An intra-AS flip is invisible at the AS level (the adjacency only
  // counts inter-AS links), so the cached bgp_level_ is still exact.
  std::vector<routing::IgpPlan> plans(1);
  plans[0] = routing::BuildIgpPlan(*topology_, asn);
  InstallRoutes(members, plans);

  // The flipped link's subnet enters/leaves the AS's FEC set and routes
  // to every internal prefix may have moved: rebuild this one domain.
  // InstallDomain reuses the map node, keeping engine pointers valid.
  const bool any_enabled =
      std::any_of(members.begin(), members.end(), [&](topo::RouterId rid) {
        return configs_->For(rid).enabled;
      });
  if (any_enabled) {
    ldp_.InstallDomain(
        asn, mpls::LdpDomain(*topology_, *configs_, asn, fibs_));
  }

  engine_->RefreshRouters(members);
}

void Network::ReconvergeInterAs(routing::ConvergenceDelta& delta) {
  delta.scope = routing::ConvergenceDelta::Scope::kGlobal;
  // No intra-AS shortest path moved: adopt the new topology version with
  // every cached SPF tree intact.
  spf_.ApplyTopologyChange({});

  // What did move: the AS graph (best AS paths, border-link sets) and the
  // two endpoint borders' connected/injected eBGP subnets. Both are woven
  // through every FIB, so rebuild all routes — from cached trees, which
  // is the expensive part saved.
  bgp_level_ = routing::ComputeBgpLevel(*topology_, bgp_policy_);

  const std::size_t n = topology_->router_count();
  std::vector<topo::RouterId> all(n);
  for (std::size_t r = 0; r < n; ++r) {
    all[r] = static_cast<topo::RouterId>(r);
  }
  // Clear in place, as ReconvergeAs does.
  for (routing::Fib& fib : fibs_) fib.Clear();

  const std::vector<topo::AsNumber> as_numbers = topology_->AsNumbers();
  std::vector<routing::IgpPlan> plans(as_numbers.size());
  exec::ParallelFor(pool_.get(), as_numbers.size(), [&](std::size_t i) {
    plans[i] = routing::BuildIgpPlan(*topology_, as_numbers[i]);
  });
  InstallRoutes(all, plans);

  // LDP is untouched: FECs are internal prefixes only, and the routes to
  // them did not move — an identical rebuild would be wasted work.
  engine_->RefreshRouters(all);
}

}  // namespace wormhole::sim
