// Packed per-VP trace storage for the campaign pipeline.
//
// A full probe::TraceResult costs ~64 bytes per hop plus a label-stack
// allocation per labelled hop — a million-trace campaign buffers over a
// gigabyte before the reduce even starts. The campaign instead traces
// into one recycled TraceResult per vantage point and appends each trace
// to this log (8 bytes per hop, 16 per trace) as soon as it is traced;
// the sequential reduce later re-inflates one trace at a time.
//
// Contract: Inflate(i) reproduces every field the campaign reduce reads —
// target, flow id, reached/unreachable flags, and per hop the probe TTL,
// responder address, reply kind and reply IP-TTL. Label stacks and RTTs
// are NOT retained: no consumer of the log (dataset building, UHP/
// candidate analysis, fingerprinting, FRPLA/RTLA, the report) reads them,
// and keeping them is exactly the memory the log exists to not spend.
#pragma once

#include <cstdint>
#include <vector>

#include "probe/trace.h"

namespace wormhole::campaign {

class CompactTraceLog {
 public:
  /// Appends one finished trace (hop TTLs must be consecutive from
  /// hops[0].probe_ttl, which is what the tracer produces).
  void Append(const probe::TraceResult& trace);

  /// Rebuilds trace `i` (labels empty, RTTs zero — see file comment).
  [[nodiscard]] probe::TraceResult Inflate(std::size_t i) const;

  /// Rebuilds trace `i` into `out`, reusing its hop storage. The reduce
  /// inflates every trace up to three times (dataset, analysis, FRPLA);
  /// a reused scratch keeps those passes allocation-free after the first
  /// trace.
  void InflateInto(std::size_t i, probe::TraceResult& out) const;

  /// Appends trace `i` of `other` verbatim (header rebased onto this
  /// log's hop array). This is how delta re-probing splices cached traces
  /// into a fresh per-VP log without an Inflate/Append round trip.
  void AppendFrom(const CompactTraceLog& other, std::size_t i);

  /// Reserves room for exactly `traces` more traces of `hops` hops in
  /// all, so a log rebuilt from a known set of traces holds no slack.
  void Reserve(std::size_t traces, std::size_t hops);

  [[nodiscard]] std::size_t size() const { return traces_.size(); }
  [[nodiscard]] bool empty() const { return traces_.empty(); }
  [[nodiscard]] std::size_t hop_count() const { return hops_.size(); }
  /// Hops stored for trace `i`.
  [[nodiscard]] std::size_t HopsOf(std::size_t i) const {
    return HopEnd(i) - traces_[i].hop_begin;
  }

  /// Bytes that `traces` traces of `hops` hops in all take in a log.
  [[nodiscard]] static constexpr std::size_t BytesFor(std::size_t traces,
                                                      std::size_t hops) {
    return traces * sizeof(Header) + hops * sizeof(PackedHop);
  }

  /// Bytes retained, for memory accounting in benches/tests.
  [[nodiscard]] std::size_t RetainedBytes() const {
    return BytesFor(traces_.capacity(), hops_.capacity());
  }

 private:
  struct Header {
    netbase::Ipv4Address source;
    netbase::Ipv4Address target;
    std::uint32_t hop_begin = 0;
    std::uint16_t flow_id = 0;
    std::uint8_t first_ttl = 0;
    std::uint8_t flags = 0;  ///< bit 0: reached, bit 1: unreachable
  };
  struct PackedHop {
    std::uint32_t address = 0;  ///< 0 = timeout ("*")
    std::uint8_t reply_kind = 0;
    std::uint8_t reply_ip_ttl = 0;
  };

  /// One past trace `i`'s last hop in hops_.
  [[nodiscard]] std::size_t HopEnd(std::size_t i) const {
    return i + 1 < traces_.size() ? traces_[i + 1].hop_begin : hops_.size();
  }

  std::vector<Header> traces_;
  std::vector<PackedHop> hops_;
};

}  // namespace wormhole::campaign
