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
  forward_cursor_.Reset();
  footprint_.Clear();
  sim::Footprint* const footprint =
      record_footprint_ ? &footprint_ : nullptr;

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
      outcome = engine_->Send(std::move(probe), &reply_memo_,
                              &forward_cursor_, footprint);
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

PingResult Prober::Ping(netbase::Ipv4Address target, std::uint16_t flow_id) {
  Packet probe;
  probe.kind = PacketKind::kEchoRequest;
  probe.src = source_;
  probe.dst = target;
  probe.ip_ttl = 64;  // plenty; ping is not a TTL-limited probe
  probe.flow_id = flow_id;
  probe.probe_id = next_probe_id_++;
  ++probes_sent_;

  footprint_.Clear();
  const sim::Engine::Outcome outcome =
      engine_->Send(std::move(probe), &reply_memo_, nullptr,
                    record_footprint_ ? &footprint_ : nullptr);
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
