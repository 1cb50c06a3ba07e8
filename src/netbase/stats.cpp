#include "netbase/stats.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace wormhole::netbase {

void IntDistribution::Add(int value, std::uint64_t count) {
  buckets_[value] += count;
  total_ += count;
}

void IntDistribution::Merge(const IntDistribution& other) {
  for (const auto& [value, count] : other.buckets_) Add(value, count);
}

std::uint64_t IntDistribution::CountOf(int value) const {
  const auto it = buckets_.find(value);
  return it == buckets_.end() ? 0 : it->second;
}

double IntDistribution::Pdf(int value) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(CountOf(value)) / static_cast<double>(total_);
}

double IntDistribution::Cdf(int value) const {
  if (total_ == 0) return 0.0;
  std::uint64_t below = 0;
  for (const auto& [v, c] : buckets_) {
    if (v > value) break;
    below += c;
  }
  return static_cast<double>(below) / static_cast<double>(total_);
}

double IntDistribution::Mean() const {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (const auto& [v, c] : buckets_) sum += static_cast<double>(v) * c;
  return sum / static_cast<double>(total_);
}

double IntDistribution::Variance() const {
  if (total_ == 0) return 0.0;
  const double mean = Mean();
  double sum = 0.0;
  for (const auto& [v, c] : buckets_) {
    const double d = static_cast<double>(v) - mean;
    sum += d * d * static_cast<double>(c);
  }
  return sum / static_cast<double>(total_);
}

double IntDistribution::StdDev() const { return std::sqrt(Variance()); }

int IntDistribution::Quantile(double q) const {
  if (total_ == 0) throw std::logic_error("quantile of empty distribution");
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (const auto& [v, c] : buckets_) {
    seen += c;
    if (seen > target) return v;
  }
  return buckets_.rbegin()->first;
}

int IntDistribution::Min() const {
  if (total_ == 0) throw std::logic_error("min of empty distribution");
  return buckets_.begin()->first;
}

int IntDistribution::Max() const {
  if (total_ == 0) throw std::logic_error("max of empty distribution");
  return buckets_.rbegin()->first;
}

int IntDistribution::Mode() const {
  if (total_ == 0) throw std::logic_error("mode of empty distribution");
  int best_value = buckets_.begin()->first;
  std::uint64_t best_count = 0;
  for (const auto& [v, c] : buckets_) {
    if (c > best_count) {
      best_count = c;
      best_value = v;
    }
  }
  return best_value;
}

std::vector<std::pair<int, double>> IntDistribution::PdfSeries() const {
  std::vector<std::pair<int, double>> series;
  series.reserve(buckets_.size());
  for (const auto& [v, c] : buckets_) {
    series.emplace_back(v, static_cast<double>(c) /
                               static_cast<double>(total_));
  }
  return series;
}

double IntDistribution::AsymmetryAround(int center) const {
  if (total_ == 0) return 0.0;
  std::uint64_t above = 0;
  std::uint64_t below = 0;
  for (const auto& [v, c] : buckets_) {
    if (v > center) above += c;
    if (v < center) below += c;
  }
  return (static_cast<double>(above) - static_cast<double>(below)) /
         static_cast<double>(total_);
}

NormalFit FitNormal(const IntDistribution& d) {
  NormalFit fit;
  fit.mean = d.Mean();
  fit.stddev = d.StdDev();
  if (d.total() == 0 || fit.stddev == 0.0) {
    fit.within_one_sigma = d.total() == 0 ? 0.0 : 1.0;
    return fit;
  }
  std::uint64_t inside = 0;
  for (const auto& [v, c] : d.buckets()) {
    if (std::abs(static_cast<double>(v) - fit.mean) <= fit.stddev) {
      inside += c;
    }
  }
  fit.within_one_sigma =
      static_cast<double>(inside) / static_cast<double>(d.total());
  return fit;
}

std::string FormatPdf(const IntDistribution& d, int min_value, int max_value) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4);
  for (int v = min_value; v <= max_value; ++v) {
    os << std::setw(5) << v << "  " << d.Pdf(v) << "\n";
  }
  return os.str();
}

}  // namespace wormhole::netbase
