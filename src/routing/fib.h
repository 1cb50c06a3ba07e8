// Per-router forwarding table.
//
// One FIB per router, filled by the IGP (intra-AS prefixes) and BGP-lite
// (external prefixes). Longest-prefix-match lookup; entries carry their ECMP
// next-hop set and, for BGP routes, the recursive next hop (the egress LER
// loopback) that drives MPLS label imposition.
//
// Two-sided design: AddRoute fills a mutable build-side (an ordered map,
// which also serves deterministic enumeration), and Seal() compiles an
// immutable flat query-side — the populated prefix lengths, each with the
// range of masked addresses stored at it, plus an open-addressing hash
// over (masked address, length) — that Lookup probes. LPM then touches
// only the handful of prefix lengths that actually exist in the table
// instead of walking all 33, skips a length outright when the destination
// falls outside that length's range, and each probe is a single hash slot
// chase instead of a red-black-tree descent. Sealing happens lazily on
// the first Lookup (thread-safely) or eagerly via Seal(); AddRoute
// invalidates the index, so build → query → rebuild cycles just work.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
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

/// A recycling fixed-size-node pool: allocation pops a free list backed by
/// chunked slabs, deallocation pushes back onto it. Route-map nodes are
/// all one size, so the ~10^2 node allocations of a router's FIB build
/// collapse into a handful of slab mallocs — and destruction into a
/// handful of frees.
class FibNodePool {
 public:
  FibNodePool() = default;
  FibNodePool(const FibNodePool&) = delete;
  FibNodePool& operator=(const FibNodePool&) = delete;

  void* Allocate(std::size_t bytes) {
    if (free_list_ != nullptr) {
      void* node = free_list_;
      free_list_ = *static_cast<void**>(node);
      return node;
    }
    if (node_size_ == 0) node_size_ = SlotSize(bytes);
    WORMHOLE_ASSERT(SlotSize(bytes) == node_size_,
                    "FibNodePool serves exactly one node size");
    if (next_in_chunk_ == per_chunk_) {
      chunks_.push_back(std::make_unique<std::byte[]>(
          node_size_ * kChunkNodes));
      next_in_chunk_ = 0;
      per_chunk_ = kChunkNodes;
    }
    return chunks_.back().get() + node_size_ * next_in_chunk_++;
  }

  void Deallocate(void* node) {
    *static_cast<void**>(node) = free_list_;
    free_list_ = node;
  }

 private:
  static constexpr std::size_t kChunkNodes = 64;
  static constexpr std::size_t SlotSize(std::size_t bytes) {
    // Room for the free-list link, and 16-byte slots so any node type is
    // aligned within the (operator-new-aligned) slab.
    const std::size_t n = bytes < sizeof(void*) ? sizeof(void*) : bytes;
    return (n + 15) / 16 * 16;
  }

  std::size_t node_size_ = 0;
  std::size_t per_chunk_ = 0;
  std::size_t next_in_chunk_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  void* free_list_ = nullptr;
};

/// The std-allocator face of FibNodePool. Single-size nodes go through
/// the pool; anything else (never requested by the route map in practice)
/// falls back to operator new.
template <typename T>
class FibPoolAllocator {
 public:
  using value_type = T;

  explicit FibPoolAllocator(FibNodePool* pool) : pool_(pool) {}
  template <typename U>
  explicit(false) FibPoolAllocator(const FibPoolAllocator<U>& other)
      : pool_(other.pool()) {}

  T* allocate(std::size_t n) {
    if (n == 1) return static_cast<T*>(pool_->Allocate(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    if (n == 1) {
      pool_->Deallocate(p);
    } else {
      ::operator delete(p);
    }
  }

  [[nodiscard]] FibNodePool* pool() const { return pool_; }

  template <typename U>
  friend bool operator==(const FibPoolAllocator& a,
                         const FibPoolAllocator<U>& b) {
    return a.pool_ == b.pool();
  }

 private:
  FibNodePool* pool_;
};

class Fib {
 public:
  Fib() : routes_(RouteAlloc(&pool_)) {}
  // The sealed index holds pointers into this object's own route map, so
  // copies and moves transfer only the build-side and re-seal lazily.
  // Nodes always come from this object's own pool, so moves with a
  // populated source are element-wise (the unequal-allocator path) — the
  // *source* map's nodes survive with moved-from values, so a moved-from
  // source must drop its sealed index too: it would otherwise keep
  // serving entries whose contents the move just gutted.
  Fib(const Fib& other) : routes_(other.routes_, RouteAlloc(&pool_)) {}
  Fib(Fib&& other) : routes_(std::move(other.routes_), RouteAlloc(&pool_)) {
    other.last_ = other.routes_.end();
    other.Invalidate();
  }
  Fib& operator=(const Fib& other) {
    if (this != &other) {
      routes_ = other.routes_;
      last_ = routes_.end();
      Invalidate();
    }
    return *this;
  }
  Fib& operator=(Fib&& other) {
    if (this != &other) {
      routes_ = std::move(other.routes_);
      last_ = routes_.end();
      other.last_ = other.routes_.end();
      Invalidate();
      other.Invalidate();
    }
    return *this;
  }

  /// Inserts or replaces the route for `entry.prefix`. Build-side only:
  /// not safe to call concurrently with Lookup.
  void AddRoute(FibEntry entry);

  /// Inserts only when no route for `entry.prefix` exists yet; returns
  /// whether it inserted. One tree descent — the connected-wins pattern
  /// of the install loops, without a LookupExact probe first.
  bool AddRouteIfAbsent(FibEntry entry);

  /// Compiles the flat query index (idempotent, thread-safe). The first
  /// Lookup seals automatically; calling this eagerly after route
  /// installation (sim::Network does) keeps the first packet fast.
  void Seal() const;

  /// Longest-prefix-match; nullptr when no route covers `dst`.
  [[nodiscard]] const FibEntry* Lookup(Ipv4Address dst) const;

  /// Exact-match on a prefix (FEC lookup for LDP); nullptr if absent.
  /// Uses the sealed index when available, the build map otherwise (so
  /// interleaved AddRoute/LookupExact during route installation never
  /// pays for resealing).
  [[nodiscard]] const FibEntry* LookupExact(const Prefix& prefix) const;

  [[nodiscard]] std::size_t size() const { return routes_.size(); }

  /// All entries, in (address, length-ascending) order.
  [[nodiscard]] std::vector<const FibEntry*> Entries() const;

 private:
  struct Slot {
    std::uint64_t key = 0;  ///< 0 = empty (KeyOf never returns 0)
    const FibEntry* entry = nullptr;
  };

  /// A populated prefix length and the least and greatest masked address
  /// stored at it. A destination whose masked address falls outside
  /// [lo, hi] cannot match at this length, so Lookup skips its probe.
  struct LengthRange {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    int length = 0;
  };

  /// Packs (masked address, length) so that no valid route collides with
  /// the empty-slot sentinel: length 0..32 maps to low bits 1..33.
  static constexpr std::uint64_t KeyOf(std::uint32_t address, int length) {
    return (std::uint64_t{address} << 8) |
           static_cast<std::uint64_t>(length + 1);
  }

  [[nodiscard]] const FibEntry* FindSealed(std::uint32_t address,
                                           int length) const;
  void Invalidate() { sealed_.store(false, std::memory_order_release); }

  /// Upper-bound insertion hint for ascending-order adds: the position
  /// just after the last touched element.
  [[nodiscard]] auto HintFor() {
    return last_ == routes_.end() ? last_ : std::next(last_);
  }

  using RouteKey = std::pair<std::uint32_t, int>;
  using RouteAlloc =
      FibPoolAllocator<std::pair<const RouteKey, FibEntry>>;

  using RouteMap =
      std::map<RouteKey, FibEntry, std::less<RouteKey>, RouteAlloc>;

  // Build side. Ordered so Entries() is deterministic; node-based so
  // sealed-slot and caller-held FibEntry pointers stay valid across
  // further AddRoute calls. Nodes live in pool_, declared first so it
  // outlives the map's destructor.
  FibNodePool pool_;
  RouteMap routes_;
  /// Last element touched by AddRoute/AddRouteIfAbsent. The install
  /// loops add routes in ascending prefix order, so std::next(last_) is
  /// the correct hint and those inserts are amortized O(1); out-of-order
  /// adds just make the hint stale, which costs the ordinary descent.
  RouteMap::iterator last_ = routes_.end();

  // Query side, built by Seal(). `sealed_` is the publication point:
  // readers acquire-load it before touching the index. Concurrency
  // contract: these fields are written only inside Seal() while holding
  // the per-Fib stripe of the seal StripedMutex (fib.cpp) and read
  // lock-free strictly after the `sealed_` release-store — the stripe is
  // dynamic, so the guard is not GUARDED_BY-nameable; the discipline is
  // pinned by tests/test_thread_safety.cpp instead.
  mutable std::atomic<bool> sealed_{false};
  mutable std::vector<Slot> slots_;
  mutable std::uint64_t slot_mask_ = 0;
  /// One record per populated length, most specific first: Lookup's probe
  /// order. Unpopulated lengths take no space.
  mutable std::vector<LengthRange> lengths_;
};

}  // namespace wormhole::routing
