#include "campaign/compact_trace.h"

#include "netbase/contracts.h"

namespace wormhole::campaign {

void CompactTraceLog::Append(const probe::TraceResult& trace) {
  Header header;
  header.source = trace.source;
  header.target = trace.target;
  header.hop_begin = static_cast<std::uint32_t>(hops_.size());
  header.flow_id = trace.flow_id;
  header.first_ttl =
      trace.hops.empty()
          ? 0
          : static_cast<std::uint8_t>(trace.hops.front().probe_ttl);
  header.flags = static_cast<std::uint8_t>((trace.reached ? 1 : 0) |
                                           (trace.unreachable ? 2 : 0));
  traces_.push_back(header);

  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    const probe::Hop& hop = trace.hops[i];
    WORMHOLE_DCHECK(hop.probe_ttl ==
                        trace.hops.front().probe_ttl + static_cast<int>(i),
                    "compact log requires consecutive hop TTLs");
    PackedHop packed;
    if (hop.address) {
      packed.address = hop.address->value();
      packed.reply_kind = static_cast<std::uint8_t>(hop.reply_kind);
      packed.reply_ip_ttl = static_cast<std::uint8_t>(hop.reply_ip_ttl);
    }
    hops_.push_back(packed);
  }
}

void CompactTraceLog::AppendFrom(const CompactTraceLog& other,
                                 std::size_t i) {
  Header header = other.traces_.at(i);
  const std::size_t hop_end = other.HopEnd(i);
  const std::size_t hop_begin = header.hop_begin;
  header.hop_begin = static_cast<std::uint32_t>(hops_.size());
  traces_.push_back(header);
  hops_.insert(hops_.end(), other.hops_.begin() + hop_begin,
               other.hops_.begin() + hop_end);
}

void CompactTraceLog::Reserve(std::size_t traces, std::size_t hops) {
  traces_.reserve(traces_.size() + traces);
  hops_.reserve(hops_.size() + hops);
}

probe::TraceResult CompactTraceLog::Inflate(std::size_t i) const {
  probe::TraceResult out;
  InflateInto(i, out);
  return out;
}

void CompactTraceLog::InflateInto(std::size_t i,
                                  probe::TraceResult& out) const {
  const Header& header = traces_.at(i);
  const std::size_t hop_end = HopEnd(i);

  out.source = header.source;
  out.target = header.target;
  out.flow_id = header.flow_id;
  out.reached = (header.flags & 1) != 0;
  out.unreachable = (header.flags & 2) != 0;
  out.hops.clear();
  out.hops.reserve(hop_end - header.hop_begin);
  for (std::size_t h = header.hop_begin; h < hop_end; ++h) {
    const PackedHop& packed = hops_[h];
    probe::Hop hop;
    hop.probe_ttl = header.first_ttl +
                    static_cast<int>(h - header.hop_begin);
    if (packed.address != 0) {
      hop.address = netbase::Ipv4Address(packed.address);
      hop.reply_kind = static_cast<netbase::PacketKind>(packed.reply_kind);
      hop.reply_ip_ttl = packed.reply_ip_ttl;
    }
    out.hops.push_back(std::move(hop));
  }
}

}  // namespace wormhole::campaign
