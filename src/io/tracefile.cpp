#include "io/tracefile.h"

#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "netbase/parse.h"

namespace wormhole::io {

namespace {

using netbase::PacketKind;

char KindCode(PacketKind kind) {
  switch (kind) {
    case PacketKind::kTimeExceeded: return 'x';
    case PacketKind::kEchoReply: return 'e';
    case PacketKind::kDestinationUnreachable: return 'u';
    case PacketKind::kEchoRequest: break;
  }
  return '?';
}

[[noreturn]] void Malformed(std::size_t line, const std::string& what) {
  throw std::runtime_error("tracefile line " + std::to_string(line) + ": " +
                           what);
}

/// A whole-string decimal integer in [lo, hi]; `field` names it in the
/// error.
int ParseInt(std::string_view text, int lo, int hi, const char* field,
             std::size_t line) {
  const auto value = netbase::ParseNumber<int>(text);
  if (!value || *value < lo || *value > hi) {
    const std::string quoted = "'" + std::string(text) + "'";
    Malformed(line, std::string("bad ") + field + " " + quoted);
  }
  return *value;
}

netbase::Ipv4Address ParseAddress(const std::string& text, std::size_t line) {
  const auto address = netbase::Ipv4Address::Parse(text);
  if (!address) Malformed(line, "bad address '" + text + "'");
  return *address;
}

PacketKind ParseKind(const std::string& text, std::size_t line) {
  if (text == "x") return PacketKind::kTimeExceeded;
  if (text == "e") return PacketKind::kEchoReply;
  if (text == "u") return PacketKind::kDestinationUnreachable;
  Malformed(line, "bad reply kind '" + text + "'");
}

/// L<label>:<ttl>, the label within 20 bits and the TTL within 8.
netbase::LabelStackEntry ParseLabel(const std::string& text,
                                    std::size_t line) {
  const auto colon = text.find(':');
  if (!text.starts_with('L') || colon == std::string::npos) {
    Malformed(line, "bad label field '" + text + "'");
  }
  const std::string_view label = std::string_view(text).substr(1, colon - 1);
  const std::string_view ttl = std::string_view(text).substr(colon + 1);
  netbase::LabelStackEntry lse;
  lse.label = static_cast<std::uint32_t>(
      ParseInt(label, 0, netbase::kMaxLabel, "label", line));
  lse.ttl = static_cast<std::uint8_t>(ParseInt(ttl, 0, 255, "LSE TTL", line));
  return lse;
}

}  // namespace

void WriteTrace(std::ostream& os, const probe::TraceResult& trace) {
  os << "T " << trace.source << ' ' << trace.target << ' ' << trace.flow_id
     << ' ' << (trace.reached ? 1 : 0) << ' ' << (trace.unreachable ? 1 : 0)
     << '\n';
  for (const probe::Hop& hop : trace.hops) {
    os << "H " << hop.probe_ttl << ' ';
    if (hop.address) {
      os << *hop.address << ' ' << KindCode(hop.reply_kind) << ' '
         << hop.reply_ip_ttl << ' ' << std::fixed << std::setprecision(3)
         << hop.rtt_ms;
      for (const auto& lse : hop.labels) {
        os << " L" << lse.label << ':' << static_cast<int>(lse.ttl);
      }
    } else {
      os << '*';
    }
    os << '\n';
  }
  os << ".\n";
}

void WriteTraces(std::ostream& os,
                 const std::vector<probe::TraceResult>& traces) {
  os << "# wormhole tracefile v1, " << traces.size() << " traces\n";
  for (const probe::TraceResult& trace : traces) WriteTrace(os, trace);
}

std::vector<probe::TraceResult> ReadTraces(std::istream& is) {
  std::vector<probe::TraceResult> traces;
  probe::TraceResult current;
  std::size_t trace_line = 0;  // line of the open T record; 0 if none
  std::string line;
  std::vector<std::string> f;  // the line's fields

  for (std::size_t number = 1; std::getline(is, line); ++number) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    f.clear();
    for (std::string field; ss >> field;) f.push_back(field);
    if (f.empty()) continue;
    const std::string& tag = f[0];

    if (tag == "T") {
      if (trace_line != 0) Malformed(number, "nested trace record");
      if (f.size() != 6) Malformed(number, "T record needs 5 fields");
      current = probe::TraceResult{};
      current.source = ParseAddress(f[1], number);
      current.target = ParseAddress(f[2], number);
      current.flow_id = static_cast<std::uint16_t>(
          ParseInt(f[3], 0, 0xFFFF, "flow id", number));
      current.reached = ParseInt(f[4], 0, 1, "reached flag", number) != 0;
      current.unreachable =
          ParseInt(f[5], 0, 1, "unreachable flag", number) != 0;
      trace_line = number;
    } else if (tag == "H") {
      if (trace_line == 0) Malformed(number, "H record outside trace");
      const bool silent = f.size() >= 3 && f[2] == "*";
      if (silent ? f.size() != 3 : f.size() < 6) {
        Malformed(number, "malformed H record");
      }
      probe::Hop hop;
      hop.probe_ttl = ParseInt(f[1], 1, 255, "probe TTL", number);
      if (!silent) {
        hop.address = ParseAddress(f[2], number);
        hop.reply_kind = ParseKind(f[3], number);
        hop.reply_ip_ttl = ParseInt(f[4], 0, 255, "reply TTL", number);
        const auto rtt = netbase::ParseNumber<double>(f[5]);
        if (!rtt || !std::isfinite(*rtt) || *rtt < 0.0) {
          Malformed(number, "bad RTT '" + f[5] + "'");
        }
        hop.rtt_ms = *rtt;
        for (std::size_t i = 6; i < f.size(); ++i) {
          hop.labels.push_back(ParseLabel(f[i], number));
        }
      }
      current.hops.push_back(std::move(hop));
    } else if (tag == ".") {
      if (trace_line == 0) Malformed(number, "stray trace terminator");
      if (f.size() != 1) Malformed(number, "trailing fields after '.'");
      traces.push_back(std::move(current));
      trace_line = 0;
    } else {
      Malformed(number, "unknown record tag '" + tag + "'");
    }
  }
  if (trace_line != 0) Malformed(trace_line, "unterminated trace record");
  return traces;
}

}  // namespace wormhole::io
