// The measurement front end: ping and Paris traceroute from one vantage
// point, mirroring the paper's scamper usage (ICMP echo-request probes,
// constant flow identifier per trace so ECMP cannot fan the path out).
#pragma once

#include <vector>

#include "probe/trace.h"
#include "sim/engine.h"
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
  /// Step the trace's probes through Engine::SendBatch in speculative
  /// TTL-sweep batches instead of one Send per probe. Results, probe-id
  /// sequence and engine stats are byte-identical to the sequential
  /// tracer (mispredicted speculative probes are discarded and replayed);
  /// campaigns turn this on for throughput.
  bool batched = false;
  /// Cap on probes per speculative batch when `batched`. 0 picks windows
  /// adaptively: the prober opens with a window sized by its previous
  /// trace's length and extends in short increments, which bounds the
  /// discarded speculative tail. The window never changes the observable
  /// trace, only how much speculative work is thrown away.
  int batch_window = 0;
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

  /// Back to a fresh prober's observable state: probe ids restart at 1,
  /// the sent counter at 0, and the window hint is dropped. The batch
  /// buffers and the reply memo keep their storage; the memo still holds
  /// only walks of the current epoch (it empties itself when the engine
  /// reconverges), so what a restarted prober observes is id-for-id what
  /// a new one would.
  void Restart() {
    next_probe_id_ = 1;
    probes_sent_ = 0;
    window_hint_ = 0;
  }

  /// Advances the probe-id sequence and the sent counter by `n` without
  /// sending anything, replaying the id consumption of a trace served
  /// from a cache (campaign::TraceCache) so every later live probe
  /// carries exactly the id it would have carried in a cold run. The
  /// adaptive window hint is deliberately left alone: it only shapes
  /// discarded speculation, never observable bytes.
  void SkipProbes(std::uint64_t n) {
    next_probe_id_ += static_cast<std::uint32_t>(n);
    probes_sent_ += n;
  }

 private:
  void TracerouteBatched(netbase::Ipv4Address target,
                         const TraceOptions& options, TraceResult& result);

  const sim::Engine* engine_;
  netbase::Ipv4Address source_;
  std::uint32_t next_probe_id_ = 1;
  std::uint64_t probes_sent_ = 0;
  /// Reused across TracerouteBatched calls so steady-state campaign
  /// batches allocate nothing.
  std::vector<netbase::Packet> batch_probes_;
  sim::Engine::BatchResult batch_;
  sim::ReplyMemo reply_memo_;
  /// TTL count of the last completed trace — seeds the adaptive batch
  /// window (batch_window == 0). Purely a speed hint; see TraceOptions.
  int window_hint_ = 0;
};

}  // namespace wormhole::probe
