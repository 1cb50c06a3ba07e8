// LDP (RFC 5036) in converged form.
//
// We do not simulate session establishment; we compute the steady state the
// protocol converges to: for every MPLS-enabled router and every FEC its
// policy allows, a label binding advertised to all neighbors (downstream
// unsolicited, liberal retention — a router advertises the *same* label for
// a FEC to every neighbor, as the paper notes in Sec. 2.1).
//
// A router that reaches a FEC over a directly connected interface is an
// Egress LER for it and advertises implicit-null (PHP) or explicit-null
// (UHP), which is what places the pop at the penultimate hop.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpls/config.h"
#include "netbase/ipv4.h"
#include "netbase/label.h"
#include "routing/fib.h"
#include "topo/topology.h"

namespace wormhole::exec {
class ThreadPool;
}  // namespace wormhole::exec

namespace wormhole::mpls {

using netbase::Prefix;
using topo::RouterId;

enum class BindingKind : std::uint8_t {
  kLabel,         ///< ordinary label: upstream swaps to it
  kImplicitNull,  ///< label 3: upstream pops (PHP)
  kExplicitNull,  ///< label 0: upstream swaps to 0; egress pops (UHP)
};

struct Binding {
  BindingKind kind = BindingKind::kLabel;
  std::uint32_t label = 0;  ///< meaningful for kLabel only

  friend bool operator==(const Binding&, const Binding&) = default;
};

/// The converged label state of one MPLS-enabled AS.
class LdpDomain {
 public:
  /// An empty domain (no bindings); staging value for InstallDomain.
  LdpDomain() = default;

  /// Computes bindings for every enabled router of `asn`. `fibs` must
  /// already contain the IGP routes (FECs are taken from the RIB).
  LdpDomain(const topo::Topology& topology, const MplsConfigMap& configs,
            topo::AsNumber asn, const std::vector<routing::Fib>& fibs);

  /// The binding `advertiser` distributes for `fec`; nullopt when the
  /// router does not advertise that FEC (policy filter / not in RIB /
  /// MPLS disabled).
  [[nodiscard]] std::optional<Binding> BindingOf(RouterId advertiser,
                                                 const Prefix& fec) const;

  /// Reverse lookup: which FEC does `label` select on `router`?
  [[nodiscard]] std::optional<Prefix> FecOfLabel(RouterId router,
                                                 std::uint32_t label) const;

  /// All FECs `router` advertises (tests / reports).
  [[nodiscard]] std::vector<Prefix> FecsOf(RouterId router) const;

  /// All (FEC, binding) pairs `router` advertises, sorted by FEC — the
  /// zero-copy view behind FecsOf, for bulk consumers (engine cache
  /// build).
  [[nodiscard]] std::span<const std::pair<Prefix, Binding>> BindingsOf(
      RouterId router) const;

  [[nodiscard]] topo::AsNumber asn() const { return asn_; }

 private:
  /// Flat converged tables: ~10^2 FECs per router makes binary search on
  /// a sorted vector beat a node-based hash map on both build cost (zero
  /// per-FEC allocations) and lookup locality.
  struct RouterTables {
    /// Sorted by FEC — the build appends ascending candidate FECs.
    std::vector<std::pair<Prefix, Binding>> bindings;
    /// FEC of label (kFirstUnreservedLabel + i): labels are allocated
    /// densely in binding order, so the reverse map is a plain array.
    std::vector<Prefix> label_to_fec;
  };

  topo::AsNumber asn_ = 0;
  std::unordered_map<RouterId, RouterTables> tables_;
};

/// All LDP domains of a topology, keyed by AS. ASes without any MPLS-enabled
/// router get no domain.
class LdpTables {
 public:
  LdpTables() = default;
  /// Builds every AS's domain; with a pool, domains are computed in
  /// parallel (one task per enabled AS) and installed in AS-number order,
  /// so the result is identical to the serial build.
  LdpTables(const topo::Topology& topology, const MplsConfigMap& configs,
            const std::vector<routing::Fib>& fibs,
            exec::ThreadPool* pool = nullptr);

  [[nodiscard]] const LdpDomain* DomainOf(topo::AsNumber asn) const;

  /// Replaces (or adds) one AS's domain in place. The map node for an
  /// existing AS is reused — mapped-value assignment — so sim::Engine's
  /// cached LdpDomain pointers stay valid across an incremental
  /// reconvergence.
  void InstallDomain(topo::AsNumber asn, LdpDomain domain);

 private:
  std::unordered_map<topo::AsNumber, LdpDomain> domains_;
};

}  // namespace wormhole::mpls
