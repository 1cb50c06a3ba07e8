// Fuzz entry point for the two readers of outside input: io::ReadTraces
// (tracefiles) and topo::ItdkDataset::Read (ITDK-style datasets).
//
// Every input goes to both readers. Each may accept it or throw
// std::runtime_error naming the bad line; any other exception, a crash or
// a sanitizer report is a finding. An accepted input must also be stable
// under the writer: Write, Read back, Write again gives the same bytes.
//
// Built two ways (tests/CMakeLists.txt): linked with libFuzzer where the
// compiler supports -fsanitize=fuzzer, and with fuzz_replay_main.cpp as a
// plain program that replays the checked-in corpus (tests/data/fuzz/) as
// the ctest fuzz.readers.corpus.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/tracefile.h"
#include "topo/itdk.h"

namespace {

[[noreturn]] void Fail(const char* reader, const char* what) {
  std::fprintf(stderr, "fuzz_readers: %s: %s\n", reader, what);
  std::abort();
}

/// Parses `text` with `read`, and when it is accepted, checks that
/// `write` → `read` → `write` reproduces the first write byte for byte.
template <typename Read, typename Write>
void CheckReader(const char* name, const std::string& text, Read read,
                 Write write) {
  std::istringstream in(text);
  std::ostringstream first;
  try {
    write(first, read(in));
  } catch (const std::runtime_error&) {
    return;  // rejected with a message: the allowed failure
  }
  std::istringstream again(first.str());
  std::ostringstream second;
  try {
    write(second, read(again));
  } catch (const std::runtime_error& e) {
    Fail(name, e.what());  // the reader rejects the writer's own output
  }
  if (second.str() != first.str()) {
    Fail(name, "write -> read -> write changed the bytes");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const auto read_traces = [](std::istream& is) {
    return wormhole::io::ReadTraces(is);
  };
  const auto write_traces = [](std::ostream& os, const auto& traces) {
    wormhole::io::WriteTraces(os, traces);
  };
  const auto read_itdk = [](std::istream& is) {
    return wormhole::topo::ItdkDataset::Read(is);
  };
  const auto write_itdk = [](std::ostream& os, const auto& dataset) {
    dataset.Write(os);
  };
  CheckReader("io::ReadTraces", text, read_traces, write_traces);
  CheckReader("topo::ItdkDataset::Read", text, read_itdk, write_itdk);
  return 0;
}
