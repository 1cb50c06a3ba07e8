// Small statistics toolkit used by the analysis and reveal modules:
// integer-bucketed empirical distributions (the paper's PDFs over hop
// counts / degrees), quantiles, moments and a normal fit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wormhole::netbase {

/// An empirical distribution over integers (hop counts, degrees, TTL
/// shifts). Accumulates counts; derives PDF, CDF, moments and quantiles.
class IntDistribution {
 public:
  void Add(int value, std::uint64_t count = 1);
  void Merge(const IntDistribution& other);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] std::uint64_t CountOf(int value) const;

  /// Probability mass at `value` (0 if unseen).
  [[nodiscard]] double Pdf(int value) const;
  /// P(X <= value).
  [[nodiscard]] double Cdf(int value) const;

  [[nodiscard]] double Mean() const;
  [[nodiscard]] double Variance() const;
  [[nodiscard]] double StdDev() const;
  /// q in [0,1]; q=0.5 is the median. Uses the lower-nearest convention.
  [[nodiscard]] int Quantile(double q) const;
  [[nodiscard]] int Median() const { return Quantile(0.5); }
  [[nodiscard]] int Min() const;
  [[nodiscard]] int Max() const;
  /// The value with the highest probability mass (smallest on ties).
  [[nodiscard]] int Mode() const;

  /// All (value, count) pairs in increasing value order.
  [[nodiscard]] const std::map<int, std::uint64_t>& buckets() const {
    return buckets_;
  }

  /// (value, pdf) series, ready for plotting / bench output.
  [[nodiscard]] std::vector<std::pair<int, double>> PdfSeries() const;

  /// Crude symmetry check around `center`: |P(X > c) - P(X < c)|.
  [[nodiscard]] double AsymmetryAround(int center) const;

 private:
  std::map<int, std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

/// Result of fitting a normal distribution by moments.
struct NormalFit {
  double mean = 0.0;
  double stddev = 0.0;
  /// Fraction of mass within one stddev of the mean; ~0.68 when the data is
  /// roughly normal. Used by FRPLA's "asymmetry looks like a normal law
  /// centred on 0" sanity checks.
  double within_one_sigma = 0.0;
};

NormalFit FitNormal(const IntDistribution& d);

/// Formats a PDF as aligned "value probability" lines for bench output.
std::string FormatPdf(const IntDistribution& d, int min_value, int max_value);

}  // namespace wormhole::netbase
