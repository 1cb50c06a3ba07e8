// The measurement front end: ping and Paris traceroute from one vantage
// point, mirroring the paper's scamper usage (ICMP echo-request probes,
// constant flow identifier per trace so ECMP cannot fan the path out).
#pragma once

#include "probe/trace.h"
#include "sim/engine.h"
#include "sim/footprint.h"
#include "sim/forward_cursor.h"
#include "sim/reply_memo.h"

namespace wormhole::probe {

struct TraceOptions {
  /// First probed TTL; the paper's campaign starts at 2 to skip the
  /// vantage point's own gateway.
  int first_ttl = 1;
  int max_ttl = 40;
  /// Paris flow identifier (kept constant across the whole trace).
  std::uint16_t flow_id = 0;
  /// Stop after this many consecutive unresponsive hops.
  int gap_limit = 4;
  /// Probes per hop before declaring it unresponsive (scamper-style
  /// retries; each retry uses a fresh probe id, which re-rolls simulated
  /// ICMP rate limiting).
  int attempts = 2;
  /// Ignored: every trace steps through Engine::Send with the prober's
  /// forward cursor. Kept only because the repository benchmark
  /// (perfbench/perfbench.cpp) still assigns
  /// CampaignOptions::batched_stepping to it; both go with the next
  /// change to that benchmark.
  bool batched = false;
};

class Prober {
 public:
  /// `vantage_point` must be a host attached via Topology::AttachHost.
  /// The engine is only ever read (Engine::Send is thread-safe), so many
  /// probers — one per worker thread — can share one engine; a single
  /// Prober instance is still single-threaded (it owns the probe-id
  /// sequence).
  Prober(const sim::Engine& engine, netbase::Ipv4Address vantage_point);

  [[nodiscard]] netbase::Ipv4Address vantage_point() const { return source_; }

  /// Paris traceroute with ICMP echo-request probes.
  TraceResult Traceroute(netbase::Ipv4Address target,
                         const TraceOptions& options = {});
  /// The same trace written into `result`, reusing its hop storage: a
  /// warm prober tracing into a recycled result allocates nothing.
  void Traceroute(netbase::Ipv4Address target, const TraceOptions& options,
                  TraceResult& result);

  /// One echo-request with a large TTL; returns the reply's remaining TTL
  /// (the second half of the fingerprint signature).
  PingResult Ping(netbase::Ipv4Address target, std::uint16_t flow_id = 0);

  /// Number of probe packets issued so far (campaign accounting).
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }

  /// This vantage point's memo of reply walks (sim/reply_memo.h): every
  /// probe the prober sends drains its reply through it.
  [[nodiscard]] const sim::ReplyMemo& reply_memo() const {
    return reply_memo_;
  }

  /// The traces' forward cursor (sim/forward_cursor.h): reset at the start
  /// of each trace, it lets every probe after the first resume where the
  /// previous one stopped.
  [[nodiscard]] const sim::ForwardCursor& forward_cursor() const {
    return forward_cursor_;
  }

  /// The ASes the last Traceroute's or Ping's probes and replies crossed
  /// (sim/footprint.h): cleared when each starts, and left empty unless
  /// the prober records footprints (see Restart). Not measurement data —
  /// what the trace cache's dirty rule reads.
  [[nodiscard]] const sim::Footprint& footprint() const {
    return footprint_;
  }

  /// Back to a fresh prober's observable state: probe ids restart at 1
  /// and the sent counter at 0. The reply memo and the forward cursor keep
  /// their storage; the memo still holds only walks of the current epoch
  /// (it empties itself when the engine reconverges), so what a restarted
  /// prober observes is id-for-id what a new one would. A new prober
  /// records no footprints; `record_footprint` says whether to record
  /// them until the next Restart. Only a trace cache reads them, so
  /// Campaign::StartRun turns recording on for runs that have one.
  void Restart(bool record_footprint) {
    next_probe_id_ = 1;
    probes_sent_ = 0;
    record_footprint_ = record_footprint;
  }

  /// Advances the probe-id sequence and the sent counter by `n` without
  /// sending anything, replaying the id consumption of a trace served
  /// from a cache (campaign::TraceCache) so every later live probe
  /// carries exactly the id it would have carried in a cold run.
  void SkipProbes(std::uint64_t n) {
    next_probe_id_ += static_cast<std::uint32_t>(n);
    probes_sent_ += n;
  }

 private:
  const sim::Engine* engine_;
  netbase::Ipv4Address source_;
  std::uint32_t next_probe_id_ = 1;
  std::uint64_t probes_sent_ = 0;
  sim::ReplyMemo reply_memo_;
  sim::ForwardCursor forward_cursor_;
  sim::Footprint footprint_;
  bool record_footprint_ = false;
};

}  // namespace wormhole::probe
