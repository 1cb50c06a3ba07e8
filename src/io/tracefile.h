// Trace persistence — a warts-lite line format for campaign output, so
// measurement and analysis can run in separate processes (the paper's
// dataset is published exactly this way; see their scamper warts files).
//
// Format, one record per line:
//   T <src> <dst> <flow> <reached:0|1> <unreachable:0|1>     -- trace start
//   H <ttl> <addr|*> <kind:x|e|u> <reply_ttl> <rtt_ms> [L<label>:<ttl>]...
//   .                                                        -- trace end
// Lines starting with '#' are comments.
#pragma once

#include <iosfwd>
#include <vector>

#include "probe/trace.h"

namespace wormhole::io {

void WriteTrace(std::ostream& os, const probe::TraceResult& trace);
void WriteTraces(std::ostream& os,
                 const std::vector<probe::TraceResult>& traces);

/// Reads every trace from the stream. Throws std::runtime_error naming the
/// line number on a malformed record or an out-of-range field: labels
/// above 2^20-1, LSE and reply TTLs outside 0..255, probe TTLs outside
/// 1..255, flow ids above 65535, negative or non-finite RTTs.
std::vector<probe::TraceResult> ReadTraces(std::istream& is);

}  // namespace wormhole::io
