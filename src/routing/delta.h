// The convergence delta: how far one Network::OnLinkStateChange reached,
// exported so the measurement plane can invalidate cached traces instead
// of re-running whole campaigns (docs/incremental.md).
//
// A kIntraAs delta names the one AS whose routing, label and engine state
// was rebuilt; campaign::TraceCache keeps every cached trace whose walks
// visited none of that AS's routers (sim/footprint.h).
#pragma once

#include <cstdint>

#include "topo/topology.h"

namespace wormhole::routing {

struct ConvergenceDelta {
  /// How far the reconvergence reached.
  ///  * kNone: nothing changed (no reconvergence ran).
  ///  * kIntraAs: one AS's SPF trees, FIBs, LDP domain and engine rows
  ///    were rebuilt; every other router's state is untouched.
  ///  * kGlobal: the AS graph moved — every FIB was rebuilt and any
  ///    inter-AS path may have changed. Consumers should treat every
  ///    cached result as dirty.
  enum class Scope : std::uint8_t { kNone, kIntraAs, kGlobal };

  /// The engine's convergence epoch AFTER this reconvergence (see
  /// sim::Engine::convergence_epoch()). Epochs advance by exactly one
  /// per reconvergence, so `epoch - 1` names the state a still-clean
  /// cache entry was recorded under.
  std::uint64_t epoch = 0;

  Scope scope = Scope::kNone;

  /// kIntraAs only: the AS whose internal link flipped.
  topo::AsNumber touched_as = 0;
};

}  // namespace wormhole::routing
