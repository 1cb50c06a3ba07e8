// Per-router MPLS configuration knobs — the exact set the paper varies in
// its GNS3 scenarios (Sec. 3.3):
//   * LDP advertisement policy (all IGP prefixes vs loopbacks only,
//     `mpls ldp label allocate global host-routes`),
//   * TTL propagation (`no mpls ip propagate-ttl`),
//   * PHP vs UHP (`mpls ldp explicit-null`),
// plus the implementation behaviours that matter for measurement:
// RFC 4950 LSE quoting and Cisco's "ICMP forwarded along the LSP".
#pragma once

#include <unordered_map>

#include "exec/sync.h"
#include "topo/topology.h"

namespace wormhole::mpls {

enum class LdpPolicy : std::uint8_t {
  /// Advertise a label for every prefix in the IGP routing table
  /// (Cisco IOS default).
  kAllPrefixes,
  /// Advertise labels for loopback /32s only (Juniper default, or Cisco with
  /// `mpls ldp label allocate global host-routes`).
  kLoopbacksOnly,
};

enum class Popping : std::uint8_t {
  kPhp,  ///< advertise implicit-null: penultimate hop pops (default)
  kUhp,  ///< advertise explicit-null: egress pops (ultimate hop popping)
};

struct MplsConfig {
  bool enabled = false;
  LdpPolicy ldp_policy = LdpPolicy::kAllPrefixes;
  /// Ingress copies IP-TTL into the LSE-TTL (`ttl-propagate`). Disabling it
  /// is what makes a tunnel invisible.
  bool ttl_propagate = true;
  Popping popping = Popping::kPhp;
  /// Quote the MPLS stack in ICMP time-exceeded (RFC 4950); on for all
  /// recent OSes.
  bool rfc4950 = true;
  /// Forward ICMP errors generated mid-LSP to the tunnel end before routing
  /// them back (Cisco/Juniper behaviour on label-switched replies).
  bool icmp_along_lsp = true;
  /// Copy min(IP-TTL, LSE-TTL) into the exposed header on a PHP pop
  /// (RFC 3443; "the min behaviour is implemented by Cisco", Sec. 3.1).
  /// Disabling it models non-compliant hardware — and kills the FRPLA and
  /// RTLA signals, which is exactly what bench/ablation_knobs measures.
  bool min_ttl_on_pop = true;

  // --- failure injection (not MPLS per se, but per-router behaviour) -----
  /// Router never originates ICMP replies: an "anonymous router" in
  /// topology-discovery terms. Its hops show up as "*".
  bool icmp_silent = false;
  /// Probability that an individual ICMP reply is dropped/rate-limited.
  /// Deterministic per (probe id, router): re-probing the same TTL with a
  /// new probe id re-rolls the dice, like real rate limiting.
  double icmp_loss = 0.0;

  friend bool operator==(const MplsConfig&, const MplsConfig&) = default;
};

/// Vendor-default config (MPLS disabled until enabled explicitly; the LDP
/// policy reflects the vendor default the paper leans on for DPR vs BRPR).
MplsConfig DefaultConfigFor(topo::Vendor vendor);

/// The MPLS configuration of every router in a topology. Routers without an
/// explicit entry fall back to their vendor default (MPLS disabled).
///
/// Thread-safe: every member locks, because the LDP domains of different
/// ASes are built in parallel (mpls::LdpTables) and each calls For, which
/// materialises a missing default. The members run only while worlds are
/// built and converged, never per hop: the engine resolves each router's
/// config pointer once. Entries are never erased and the map is
/// node-based, so a returned reference stays valid and sees later edits
/// through Mutable and Set.
class MplsConfigMap {
 public:
  explicit MplsConfigMap(const topo::Topology& topology)
      : topology_(&topology) {}

  /// Per-AS enablement with uniform overrides; individual routers can then
  /// be tweaked via Set().
  struct AsOptions {
    bool ttl_propagate = true;
    Popping popping = Popping::kPhp;
    /// If set, overrides each router's vendor-default LDP policy.
    std::optional<LdpPolicy> ldp_policy;
  };
  void EnableAs(topo::AsNumber asn, const AsOptions& options);

  void Set(topo::RouterId router, MplsConfig config);
  [[nodiscard]] const MplsConfig& For(topo::RouterId router) const;
  [[nodiscard]] MplsConfig& Mutable(topo::RouterId router);

  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }

 private:
  const topo::Topology* topology_;
  mutable exec::Mutex mutex_;
  mutable std::unordered_map<topo::RouterId, MplsConfig> configs_
      GUARDED_BY(mutex_);
};

}  // namespace wormhole::mpls
