// Streaming statistics and fixed-bin histograms for trace analysis.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace dc {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1)
  double stddev() const;
  double cv() const;  // coefficient of variation, 0 when mean == 0
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples are clamped
/// into the first/last bin and counted separately.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  std::size_t bin_count() const { return counts_.size(); }
  std::int64_t bin(std::size_t i) const { return counts_.at(i); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  std::int64_t total() const { return total_; }
  std::int64_t underflow() const { return underflow_; }
  std::int64_t overflow() const { return overflow_; }

  /// Value below which a fraction `p` (clamped to [0,1]) of the samples
  /// fall, linearly interpolated inside the containing bin. Out-of-range
  /// samples were clamped into the edge bins by `add`, so the result is
  /// always within [lo, hi]; an empty histogram reports `lo`.
  double quantile(double p) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

 private:
  double lo_, hi_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
  std::int64_t underflow_ = 0;
  std::int64_t overflow_ = 0;
};

}  // namespace dc
