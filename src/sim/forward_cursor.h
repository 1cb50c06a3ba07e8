// A trace's forward cursor: where the previous probe of a Paris traceroute
// stopped, so the next probe resumes there instead of walking again from
// the vantage point's gateway.
//
// Paris traceroute keeps src, dst and flow id fixed, which pins the ECMP
// choice at every hop: probe t + d takes the links probe t took, up to
// where probe t stopped. On that prefix every TTL field either follows the
// probe's TTL (the IP-TTL, and an LSE-TTL pushed under ttl-propagate from a
// following IP-TTL) or is constant in it (an LSE-TTL of 255 pushed under
// no-ttl-propagate). So the stopped probe's state, with every following
// field shifted by d, is exactly the state probe t + d reaches there.
// docs/semantics.md ("Forward cursor") has the whole argument; in short:
//
//  * Before each forward step the engine saves the transit: router,
//    arrival interface, one-shot flags, IP-TTL, label stack, hop count,
//    elapsed time, the walk's running EngineStats, the length of its link
//    trail, and the TTL provenance (which fields follow, and the slack a
//    mixed-kind min rule left).
//  * A probe resumes at the saved state when it is a fresh echo-request
//    with the same src, dst and flow id, under the same engine,
//    convergence epoch and topology version, and 0 <= d <= slack (d = 0
//    is a retry). It re-adds the trail's jittered link delays for its own
//    probe id (or reuses the saved elapsed time when jitter is off) and
//    the prefix's stats, then re-runs the saved step. The ICMP-loss coin,
//    icmp_silent, local and host delivery and ICMP sent along the LSP all
//    happen in that step, under the new probe id.
//
// One cursor per prober, reset at the start of each trace and passed to
// Engine::Send per call; the engine never keeps a pointer to it. Not
// thread-safe: one cursor, one thread at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/label.h"
#include "sim/engine.h"
#include "topo/topology.h"

namespace wormhole::sim {

class ForwardCursor {
 public:
  struct Counts {
    /// Probes walked from the gateway.
    std::uint64_t walks = 0;
    /// Probes resumed where the previous probe stopped (retries included).
    std::uint64_t resumes = 0;
    /// Forward hops the resumes did not step.
    std::uint64_t resumed_hops = 0;

    friend bool operator==(const Counts&, const Counts&) = default;
  };

  [[nodiscard]] const Counts& counts() const { return counts_; }

  /// Forgets the saved state, so the next probe walks from the gateway.
  /// Storage and counts are kept.
  void Reset() { valid_ = false; }

 private:
  friend class Engine;

  /// What a resuming probe must share with the saved walk.
  struct Key {
    const Engine* engine = nullptr;
    std::uint64_t epoch = 0;
    std::uint64_t topology_version = 0;
    netbase::Ipv4Address src;
    netbase::Ipv4Address dst;
    std::uint16_t flow_id = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// The transit before the last step the previous probe took, in terms
  /// of that probe's TTL.
  struct Saved {
    int probe_ttl = 0;
    topo::RouterId router = topo::kNoRouter;
    topo::InterfaceId in_interface = topo::kNoInterface;
    bool locally_originated = false;
    bool skip_ip_decrement = false;
    int ip_ttl = 0;
    netbase::LabelStack labels;
    int hops_traversed = 0;
    double elapsed_ms = 0.0;
    EngineStats stats;
    /// Links of the trail walked before this step.
    std::uint32_t trail_size = 0;
    /// Engine::Transit's TTL provenance at this step.
    std::uint64_t follows = 0;
    int slack = 0;
  };

  Key key_;
  bool valid_ = false;
  Saved saved_;
  /// Links walked from the gateway, in order. A resume re-reads each
  /// link's delay from the engine's adjacency record, exactly as Forward
  /// does.
  std::vector<topo::LinkId> trail_;
  Counts counts_;
};

}  // namespace wormhole::sim
