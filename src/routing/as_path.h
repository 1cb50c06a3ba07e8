// An empty stand-in for the AS-level path oracle the trace cache's dirty
// rule once consulted. The cache now reads the ASes each trace's walks
// crossed (docs/incremental.md), so nothing reads an oracle. Kept only
// because the repository benchmark (perfbench/perfbench.cpp) still builds
// one after every flap and passes it to the two-argument
// campaign::TraceCache::Invalidate; both go with the next change to that
// benchmark (ROADMAP item 8).
#pragma once

#include "routing/bgp.h"
#include "topo/topology.h"

namespace wormhole::routing {

class AsPathOracle {
 public:
  AsPathOracle(const topo::Topology& /*topology*/, const BgpLevel& /*level*/,
               const BgpPolicy& /*policy*/) {}
};

}  // namespace wormhole::routing
