// Spans for the traced benchmark run: one record per call into a
// module's public function, kept in memory and written out once at the
// end, so recording a span costs two clock reads and a push_back.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Record {
    const char* name;
    /// Index of the enclosing span, -1 for a root.
    std::int64_t parent;
    /// The report the span belongs to; -1 outside the report loop.
    std::int64_t report;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Report id stamped on spans opened from now on.
  void set_report(std::int64_t report) { report_ = report; }

  std::int64_t Open(const char* name) {
    const auto id = static_cast<std::int64_t>(records_.size());
    const std::int64_t parent = open_.empty() ? -1 : open_.back();
    records_.push_back({name, parent, report_, 0, 0});
    open_.push_back(id);
    records_.back().start_ns = Now();
    return id;
  }

  void Close(std::int64_t id) {
    records_[static_cast<std::size_t>(id)].end_ns = Now();
    open_.pop_back();
  }

  /// One line per span: "id parent report name start_ns end_ns".
  [[nodiscard]] bool WriteTo(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << i << ' ' << r.parent << ' ' << r.report << ' ' << r.name << ' '
          << r.start_ns << ' ' << r.end_ns << '\n';
    }
    return static_cast<bool>(out);
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }

 private:
  [[nodiscard]] std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::int64_t report_ = -1;
  std::vector<Record> records_;
  std::vector<std::int64_t> open_;
};

/// Scoped span; a null log records nothing, which is how the untraced
/// run and the untraced reports of a traced run skip tracing.
class Span {
 public:
  Span(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->Open(name) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

}  // namespace perfbench
