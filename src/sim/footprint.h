// The ASes a caller's data-plane walks crossed.
//
// Engine::Send adds to the footprint its caller passes the AS of every
// router at which a walk processes a hop: the probe's forward walk and
// its reply's walk home, the stretches the reply memo replays and the
// forward cursor resumes past included. A walk reads routing, label and
// per-router engine state only at those routers, so after a
// reconvergence confined to one AS (sim::Network::ReconvergeAs) a walk
// whose footprint misses that AS replays unchanged. That is the
// exactness argument of campaign::TraceCache's dirty rule
// (docs/incremental.md, "The dirty-set computation").
//
// One footprint per prober, passed to Engine::Send per call like the
// reply memo and the forward cursor; the engine never keeps a pointer to
// it. Clear keeps the storage, so a warm owner adds without allocating.
// Not thread-safe: one footprint, one thread at a time.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "topo/topology.h"

namespace wormhole::sim {

class Footprint {
 public:
  /// Forgets every AS; the storage is kept.
  void Clear() {
    ases_.clear();
    seen_ = kEmpty;
  }

  /// Adds `asn` unless it is already in.
  void Add(topo::AsNumber asn) {
    // A trace's probes and replies cross the same few ASes again and
    // again: an AS found in its slot was added already.
    topo::AsNumber& slot = seen_[asn % kSlots];
    if (slot != asn) Insert(slot, asn);
  }

  /// The distinct ASes added since the last Clear, sorted.
  [[nodiscard]] std::span<const topo::AsNumber> ases() const {
    return ases_;
  }

 private:
  /// Add's slow path, out of line so the hop loop stays small: puts `asn`
  /// in `slot` and, unless it is in already, into ases_.
  void Insert(topo::AsNumber& slot, topo::AsNumber asn);

  static constexpr std::size_t kSlots = 64;
  /// An empty slot holds a number that maps to another slot, which no AS
  /// looked up in it can equal.
  static constexpr std::array<topo::AsNumber, kSlots> kEmpty = [] {
    std::array<topo::AsNumber, kSlots> slots{};
    for (std::size_t i = 0; i < kSlots; ++i) {
      slots[i] = static_cast<topo::AsNumber>(i + 1);
    }
    return slots;
  }();

  std::vector<topo::AsNumber> ases_;
  /// Direct-mapped by AS number: each slot holds the last AS added that
  /// maps to it, so a slot holding `asn` proves it added.
  std::array<topo::AsNumber, kSlots> seen_ = kEmpty;
};

}  // namespace wormhole::sim
