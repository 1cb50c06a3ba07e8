// The host-speed calibration the end-to-end timings are scaled by
// (README.md, "Host speed"). On a shared host the same report, byte for
// byte the same work, runs at speeds up to about 1.6x apart from minute
// to minute, so a run's wall times say as much about the host as about
// the program. Timing a fixed piece of work right after each report, on
// the same CPU, gives the host's speed at that moment; run.py divides it
// out. The work is the benchmark's own, built from a fixed seed: the
// program's code never runs in it, so a change to the program cannot
// move it. Each measurement does the work twice and times the second
// pass only: the first refills the caches the report has just used,
// and scaling by the second pass gave the steadier timings (README.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Calibration {
 public:
  /// Builds the fixed inputs: a random graph for breadth-first search,
  /// keys to sort, and a hash table to look keys up in. They mix the
  /// kinds of work a campaign does (graph walks, branchy comparisons and
  /// hashed lookups over a table larger than a core's own caches), so a
  /// host spell that slows the program slows them alike.
  Calibration() {
    std::mt19937_64 rng(0x5eed);
    std::vector<std::vector<std::uint32_t>> adjacency(kNodes);
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      for (int e = 0; e < 4; ++e) {
        const auto u = static_cast<std::uint32_t>(rng() % kNodes);
        adjacency[v].push_back(u);
        adjacency[u].push_back(v);
      }
    }
    offsets_.push_back(0);
    for (const auto& next : adjacency) {
      edges_.insert(edges_.end(), next.begin(), next.end());
      offsets_.push_back(static_cast<std::uint32_t>(edges_.size()));
    }
    keys_.resize(kSortKeys);
    for (auto& key : keys_) key = static_cast<std::uint32_t>(rng());
    table_.reserve(kTableEntries);
    while (table_.size() < kTableEntries) {
      table_.emplace(static_cast<std::uint32_t>(rng()),
                     static_cast<std::uint32_t>(table_.size()));
    }
    for (const auto& [key, unused] : table_) lookups_.push_back(key);
    std::shuffle(lookups_.begin(), lookups_.end(), rng);
    lookups_.resize(kLookups);
    expected_ = Work();
  }

  /// Does the fixed work once untimed, to bring its inputs back into the
  /// caches, then again, and returns the second pass's wall time in
  /// seconds.
  double Measure() {
    Check(Work());
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t checksum = Work();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    Check(checksum);
    return seconds;
  }

 private:
  static constexpr std::uint32_t kNodes = 20000;
  static constexpr std::size_t kSortKeys = 48000;
  static constexpr std::size_t kTableEntries = 400000;
  static constexpr std::size_t kLookups = 100000;

  void Check(std::uint64_t checksum) const {
    if (checksum != expected_) {
      throw std::runtime_error("calibration: checksum changed");
    }
  }

  std::uint64_t Work() {
    std::uint64_t checksum = 0;
    std::vector<std::int32_t> depth(kNodes);
    std::vector<std::uint32_t> queue;
    queue.reserve(kNodes);
    for (std::uint32_t source : {0u, kNodes / 2}) {
      std::fill(depth.begin(), depth.end(), -1);
      queue.assign(1, source);
      depth[source] = 0;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::uint32_t v = queue[head];
        for (std::uint32_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
          const std::uint32_t u = edges_[e];
          if (depth[u] < 0) {
            depth[u] = depth[v] + 1;
            checksum += static_cast<std::uint64_t>(depth[u]) * u;
            queue.push_back(u);
          }
        }
      }
    }
    std::vector<std::uint32_t> sorted = keys_;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); i += 997) {
      checksum += sorted[i] * i;
    }
    for (const std::uint32_t key : lookups_) {
      checksum += table_.find(key)->second;
    }
    return checksum;
  }

  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> edges_;
  std::vector<std::uint32_t> keys_;
  std::unordered_map<std::uint32_t, std::uint32_t> table_;
  std::vector<std::uint32_t> lookups_;
  std::uint64_t expected_ = 0;
};

}  // namespace perfbench
