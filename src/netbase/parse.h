// Whole-string number parsing for input from outside the process
// (tracefiles, dataset files, command-line arguments). Unlike
// std::stoul/strtoull, the text must be exactly one number that fits in
// T: no leading space or '+', no trailing bytes, no silent overflow or
// truncation. Callers check value ranges and name the offending input.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace wormhole::netbase {

template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

}  // namespace wormhole::netbase
