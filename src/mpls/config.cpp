#include "mpls/config.h"

namespace wormhole::mpls {

MplsConfig DefaultConfigFor(topo::Vendor vendor) {
  MplsConfig config;
  switch (vendor) {
    case topo::Vendor::kCiscoIos:
    case topo::Vendor::kCiscoIosXr:
      config.ldp_policy = LdpPolicy::kAllPrefixes;
      break;
    case topo::Vendor::kJuniperJunos:
    case topo::Vendor::kJuniperJunosE:
      config.ldp_policy = LdpPolicy::kLoopbacksOnly;
      break;
    case topo::Vendor::kBrocade:
    case topo::Vendor::kLinux:
      // The paper observes <64,64> cores behaving like Juniper (Sec. 6,
      // AS3549 discussion): loopback-only advertisement.
      config.ldp_policy = LdpPolicy::kLoopbacksOnly;
      break;
  }
  return config;
}

void MplsConfigMap::EnableAs(topo::AsNumber asn, const AsOptions& options) {
  exec::MutexLock lock(mutex_);
  for (const topo::RouterId rid : topology_->as(asn).routers) {
    MplsConfig config = DefaultConfigFor(topology_->router(rid).vendor);
    config.enabled = true;
    config.ttl_propagate = options.ttl_propagate;
    config.popping = options.popping;
    if (options.ldp_policy) config.ldp_policy = *options.ldp_policy;
    configs_[rid] = config;
  }
}

void MplsConfigMap::Set(topo::RouterId router, MplsConfig config) {
  exec::MutexLock lock(mutex_);
  configs_[router] = config;
}

const MplsConfig& MplsConfigMap::For(topo::RouterId router) const {
  exec::MutexLock lock(mutex_);
  const auto it = configs_.find(router);
  if (it != configs_.end()) return it->second;
  // Lazily materialise the vendor default (disabled) so we can hand out a
  // stable reference.
  return configs_
      .emplace(router, DefaultConfigFor(topology_->router(router).vendor))
      .first->second;
}

MplsConfig& MplsConfigMap::Mutable(topo::RouterId router) {
  exec::MutexLock lock(mutex_);
  const auto it = configs_.find(router);
  if (it != configs_.end()) return it->second;
  return configs_
      .emplace(router, DefaultConfigFor(topology_->router(router).vendor))
      .first->second;
}

}  // namespace wormhole::mpls
