#include "probe/prober.h"

#include <algorithm>
#include <stdexcept>

namespace wormhole::probe {

using netbase::Packet;
using netbase::PacketKind;

Prober::Prober(const sim::Engine& engine, netbase::Ipv4Address vantage_point)
    : engine_(&engine), source_(vantage_point) {
  if (engine.topology().FindHost(vantage_point) == nullptr) {
    throw std::invalid_argument("Prober: vantage point is not a host");
  }
}

TraceResult Prober::Traceroute(netbase::Ipv4Address target,
                               const TraceOptions& options) {
  TraceResult result;
  Traceroute(target, options, result);
  return result;
}

void Prober::Traceroute(netbase::Ipv4Address target,
                        const TraceOptions& options, TraceResult& result) {
  result.source = source_;
  result.target = target;
  result.flow_id = options.flow_id;
  result.hops.clear();
  result.reached = false;
  result.unreachable = false;
  if (options.batched) {
    TracerouteBatched(target, options, result);
    return;
  }

  int consecutive_timeouts = 0;
  for (int ttl = options.first_ttl; ttl <= options.max_ttl; ++ttl) {
    sim::Engine::Outcome outcome;
    for (int attempt = 0; attempt < std::max(1, options.attempts);
         ++attempt) {
      Packet probe;
      probe.kind = PacketKind::kEchoRequest;
      probe.src = source_;
      probe.dst = target;
      probe.ip_ttl = ttl;
      probe.flow_id = options.flow_id;
      probe.probe_id = next_probe_id_++;
      ++probes_sent_;
      outcome = engine_->Send(std::move(probe), &reply_memo_);
      if (outcome.received) break;
    }

    Hop hop;
    hop.probe_ttl = ttl;
    if (outcome.received) {
      hop.address = outcome.reply.src;
      hop.reply_kind = outcome.reply.kind;
      hop.reply_ip_ttl = outcome.reply.ip_ttl;
      hop.labels = outcome.reply.quoted_labels;
      hop.rtt_ms = outcome.rtt_ms;
      consecutive_timeouts = 0;
    } else {
      ++consecutive_timeouts;
    }
    result.hops.push_back(std::move(hop));

    if (outcome.received) {
      if (outcome.reply.kind == PacketKind::kEchoReply) {
        result.reached = true;
        break;
      }
      if (outcome.reply.kind == PacketKind::kDestinationUnreachable) {
        result.unreachable = true;
        break;
      }
    }
    if (consecutive_timeouts >= options.gap_limit) break;
  }
}

// Speculative batched tracer. The sequential tracer above is a state
// machine over (ttl, attempt) whose next probe depends on the previous
// outcome; to batch it we *predict* the common path — every probe is
// answered, so the trace is a plain TTL sweep — send the whole predicted
// window through one SendBatch, then replay the outcomes through the
// sequential state machine. The first outcome that falsifies the
// prediction (a timeout with retries left) or stops the trace discards
// the speculative tail: those probes were never "sent", so their ids,
// stats and probes_sent() accounting are dropped and the ids are reused
// by the next window. The observable stream — probe ids, outcomes, hop
// records, engine stats — is byte-identical to the sequential tracer.
void Prober::TracerouteBatched(netbase::Ipv4Address target,
                               const TraceOptions& options,
                               TraceResult& result) {
  const int attempts = std::max(1, options.attempts);
  int ttl = options.first_ttl;
  int attempt = 0;
  int consecutive_timeouts = 0;
  bool done = false;
  while (!done && ttl <= options.max_ttl) {
    // Slot 0 is the sequential machine's actual next probe (ttl,
    // attempt); slots k > 0 assume slot k-1 was answered and probe
    // ttl + k on its first attempt. An attempt number never reaches the
    // wire — retries differ from first attempts only by probe id, and
    // ids are assigned by consumed-slot order — so a packet built for
    // the wrong attempt number is still byte-correct.
    std::size_t window = static_cast<std::size_t>(options.max_ttl - ttl) + 1;
    if (options.batch_window > 0) {
      window =
          std::min(window, static_cast<std::size_t>(options.batch_window));
    } else {
      // Adaptive window: open with the previous trace's TTL count (paths
      // from one vantage point cluster tightly, so the hint usually lands
      // the stop inside the first window with no discarded tail), then
      // extend in short increments past the hint. The window never
      // changes the observable trace — a wrong hint costs speculative
      // work, not correctness.
      const int done = ttl - options.first_ttl;
      const int hinted = window_hint_ > 0 ? window_hint_ - done : 8;
      window = std::min(
          window, static_cast<std::size_t>(std::clamp(hinted, 4, 64)));
    }
    batch_probes_.clear();
    for (std::size_t k = 0; k < window; ++k) {
      Packet probe;
      probe.kind = PacketKind::kEchoRequest;
      probe.src = source_;
      probe.dst = target;
      probe.ip_ttl = ttl + static_cast<int>(k);
      probe.flow_id = options.flow_id;
      probe.probe_id = next_probe_id_ + static_cast<std::uint32_t>(k);
      batch_probes_.push_back(probe);
    }
    engine_->SendBatch(batch_probes_, batch_,
                       {.commit_stats = false, .reply_memo = &reply_memo_});

    // Replay: consume outcomes in slot order until a misprediction or a
    // stop, accumulating only consumed slots' stats for one commit.
    sim::EngineStats consumed_stats;
    std::size_t used = 0;
    bool diverged = false;
    for (std::size_t k = 0; k < window; ++k) {
      const sim::Engine::Outcome& outcome = batch_.outcomes[k];
      const int cur_ttl = ttl + static_cast<int>(k);
      const int cur_attempt = k == 0 ? attempt : 0;
      consumed_stats += batch_.per_slot_stats[k];
      ++used;
      if (!outcome.received && cur_attempt + 1 < attempts) {
        ttl = cur_ttl;
        attempt = cur_attempt + 1;
        diverged = true;
        break;
      }

      Hop hop;
      hop.probe_ttl = cur_ttl;
      if (outcome.received) {
        hop.address = outcome.reply.src;
        hop.reply_kind = outcome.reply.kind;
        hop.reply_ip_ttl = outcome.reply.ip_ttl;
        hop.labels = outcome.reply.quoted_labels;
        hop.rtt_ms = outcome.rtt_ms;
        consecutive_timeouts = 0;
      } else {
        ++consecutive_timeouts;
      }
      result.hops.push_back(std::move(hop));

      if (outcome.received) {
        if (outcome.reply.kind == PacketKind::kEchoReply) {
          result.reached = true;
          done = true;
          break;
        }
        if (outcome.reply.kind == PacketKind::kDestinationUnreachable) {
          result.unreachable = true;
          done = true;
          break;
        }
      }
      if (consecutive_timeouts >= options.gap_limit) {
        done = true;
        break;
      }
    }
    next_probe_id_ += static_cast<std::uint32_t>(used);
    probes_sent_ += used;
    engine_->CommitStats(consumed_stats);
    if (!diverged && !done) {
      // The whole window was consumed without a stop: continue the sweep
      // past it (only possible when a cap or the adaptive hint shortened
      // the window below the remaining TTL range).
      ttl += static_cast<int>(window);
      attempt = 0;
    }
  }
  window_hint_ = static_cast<int>(result.hops.size());
}

PingResult Prober::Ping(netbase::Ipv4Address target, std::uint16_t flow_id) {
  Packet probe;
  probe.kind = PacketKind::kEchoRequest;
  probe.src = source_;
  probe.dst = target;
  probe.ip_ttl = 64;  // plenty; ping is not a TTL-limited probe
  probe.flow_id = flow_id;
  probe.probe_id = next_probe_id_++;
  ++probes_sent_;

  const sim::Engine::Outcome outcome =
      engine_->Send(std::move(probe), &reply_memo_);
  PingResult result;
  result.target = target;
  if (outcome.received &&
      outcome.reply.kind == PacketKind::kEchoReply) {
    result.responded = true;
    result.reply_ip_ttl = outcome.reply.ip_ttl;
    result.rtt_ms = outcome.rtt_ms;
  }
  return result;
}

}  // namespace wormhole::probe
