// Per-router forwarding table.
//
// One FIB per router, filled by the IGP (intra-AS prefixes) and BGP-lite
// (external prefixes). Longest-prefix-match lookup; entries carry their ECMP
// next-hop set and, for BGP routes, the recursive next hop (the egress LER
// loopback) that drives MPLS label imposition.
//
// Two-sided design: AddRoute and AddRouteIfAbsent append to a pending
// list, and Seal() compiles it into the flat query side — one exact-size
// array of the entries sorted by (address, length), which is also what
// Entries() enumerates; the populated prefix lengths, each with the range
// of masked addresses stored at it; and an open-addressing hash of entry
// positions keyed on (masked address, length) that Lookup probes. LPM
// then touches only the handful of prefix lengths that actually exist in
// the table instead of walking all 33, skips a length outright when the
// destination falls outside that length's range, and each probe is a
// single hash slot chase. A prefix added more than once resolves as an
// ordered map's insert_or_assign and try_emplace would: the last AddRoute
// wins, else the first AddRouteIfAbsent. Sealing happens lazily on the
// first query (thread-safely) or eagerly via Seal(); an add after a seal
// is merged in by the next one, so build → query → rebuild cycles just
// work. Clear() keeps the entry array's storage, so a router whose routes
// are rebuilt keeps its table where it was.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/contracts.h"
#include "netbase/inline_vec.h"
#include "netbase/ipv4.h"
#include "topo/topology.h"

namespace wormhole::routing {

using netbase::Ipv4Address;
using netbase::Prefix;
using topo::LinkId;
using topo::RouterId;

enum class RouteSource : std::uint8_t {
  kConnected,  ///< prefix on a local interface (or the loopback)
  kIgp,        ///< learned via intra-AS SPF
  kBgp,        ///< external, via the AS-level best path
};

/// One forwarding adjacency: send over `link` to `neighbor`.
struct NextHop {
  LinkId link = topo::kNoLink;
  RouterId neighbor = topo::kNoRouter;

  friend bool operator==(const NextHop&, const NextHop&) = default;
  friend auto operator<=>(const NextHop&, const NextHop&) = default;
};

/// An ECMP next-hop set. Real sets are almost always 1-3 hops, so they
/// live inline in the FibEntry — installing ~10^5 routes per convergence
/// must not mean ~10^5 heap vectors.
using NextHopSet = netbase::InlineVec<NextHop, 4>;

struct FibEntry {
  Prefix prefix;
  RouteSource source = RouteSource::kConnected;
  /// IGP metric to the prefix (0 for connected; AS-internal part for BGP).
  int metric = 0;
  /// Equal-cost next hops, sorted for determinism. Empty for a connected
  /// prefix on the router itself (local delivery).
  NextHopSet next_hops;
  /// For BGP routes on non-border routers: the loopback of the chosen
  /// egress border router (next-hop-self). Unspecified otherwise.
  Ipv4Address bgp_next_hop;
};

class Fib {
 public:
  Fib() = default;
  // Copies and moves carry the routes and re-seal lazily: the publication
  // flag is not copyable, and a moved-from FIB is left empty. A copy seals
  // its source first, so it never reads routes that a concurrent first
  // query of the source is merging.
  Fib(const Fib& other) {
    other.Seal();
    entries_ = other.entries_;
  }
  Fib(Fib&& other) noexcept
      : entries_(std::move(other.entries_)),
        pending_(std::move(other.pending_)) {
    other.Clear();
  }
  Fib& operator=(Fib other) noexcept {
    entries_.swap(other.entries_);
    pending_.swap(other.pending_);
    Invalidate();
    return *this;
  }

  /// Inserts or replaces the route for `entry.prefix`. Build-side only:
  /// not safe to call concurrently with a query. Every FibEntry pointer
  /// the FIB handed out is invalid from here on.
  void AddRoute(FibEntry entry);

  /// Inserts only when no route for `entry.prefix` exists, counting the
  /// adds before it — the connected-wins rule of the install loops,
  /// without a LookupExact probe first. Invalidates as AddRoute does.
  void AddRouteIfAbsent(FibEntry entry);

  /// Drops every route but keeps the entry array's and the index's
  /// storage for the rebuild. Invalidates as AddRoute does.
  void Clear();

  /// Compiles the pending adds and the flat query index (idempotent,
  /// thread-safe). The first query seals automatically; calling this
  /// eagerly after route installation (sim::Network does) keeps the first
  /// packet fast.
  void Seal() const;

  /// Longest-prefix-match; nullptr when no route covers `dst`.
  [[nodiscard]] const FibEntry* Lookup(Ipv4Address dst) const;

  /// Exact-match on a prefix (FEC lookup for LDP); nullptr if absent.
  [[nodiscard]] const FibEntry* LookupExact(const Prefix& prefix) const;

  [[nodiscard]] std::size_t size() const {
    if (!sealed_.load(std::memory_order_acquire)) Seal();
    return entries_.size();
  }

  /// All entries, in (address, length-ascending) order.
  [[nodiscard]] std::vector<const FibEntry*> Entries() const;

 private:
  /// An added route and how it was added, until the next Seal.
  struct PendingRoute {
    FibEntry entry;
    bool if_absent = false;
  };

  /// One hash slot: a stored masked address, then its prefix length + 1
  /// in the top byte and its position in entries_ in the low 24 bits. A
  /// tag of 0 marks an empty slot (no length + 1 is 0).
  struct Slot {
    std::uint32_t address = 0;
    std::uint32_t tag = 0;
  };
  static constexpr int kIndexBits = 24;
  static constexpr std::uint32_t kIndexMask = (1u << kIndexBits) - 1;

  /// A populated prefix length and the least and greatest masked address
  /// stored at it. A destination whose masked address falls outside
  /// [lo, hi] cannot match at this length, so Lookup skips its probe.
  struct LengthRange {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    int length = 0;
  };

  /// Packs (masked address, length) into one key that orders as the pairs
  /// do: the seal's sort key and the hash's input.
  static constexpr std::uint64_t KeyOf(std::uint32_t address, int length) {
    return (std::uint64_t{address} << 8) |
           static_cast<std::uint64_t>(length + 1);
  }

  static constexpr std::uint32_t TagOf(int length) {
    return static_cast<std::uint32_t>(length + 1) << kIndexBits;
  }

  void Add(FibEntry entry, bool if_absent);
  [[nodiscard]] const FibEntry* FindSealed(std::uint32_t address,
                                           int length) const;
  void Invalidate() { sealed_.store(false, std::memory_order_release); }

  // The routes: entries_ as of the last Seal, and what was added since.
  // Only Seal (under its lock) moves pending routes into entries_ and
  // frees pending_, which would otherwise double the memory.
  mutable std::vector<FibEntry> entries_;
  mutable std::vector<PendingRoute> pending_;

  // Query side, built by Seal(). `sealed_` is the publication point:
  // readers acquire-load it before touching entries_ or the index.
  // Concurrency contract: these fields and the two above are written by
  // queries only inside Seal() while holding the per-Fib stripe of the
  // seal StripedMutex (fib.cpp) and read lock-free strictly after the
  // `sealed_` release-store — the stripe is dynamic, so the guard is not
  // GUARDED_BY-nameable; the discipline is pinned by
  // tests/test_thread_safety.cpp instead.
  mutable std::atomic<bool> sealed_{false};
  mutable std::vector<Slot> slots_;
  mutable std::uint64_t slot_mask_ = 0;
  /// One record per populated length, most specific first: Lookup's probe
  /// order. Unpopulated lengths take no space.
  mutable std::vector<LengthRange> lengths_;
};

}  // namespace wormhole::routing
