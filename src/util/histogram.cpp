#include "util/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dc {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  const double m = mean();
  return m == 0.0 ? 0.0 : stddev() / m;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(lo < hi && bins > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    ++counts_.front();
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    ++counts_.back();
    return;
  }
  const double span = hi_ - lo_;
  auto idx = static_cast<std::size_t>((x - lo_) / span *
                                      static_cast<double>(counts_.size()));
  idx = std::min(idx, counts_.size() - 1);
  ++counts_[idx];
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::quantile(double p) const {
  if (total_ == 0) return lo_;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(total_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto count = static_cast<double>(counts_[i]);
    if (cumulative + count >= target && count > 0.0) {
      const double fraction = std::clamp((target - cumulative) / count, 0.0, 1.0);
      return bin_lo(i) + fraction * (bin_hi(i) - bin_lo(i));
    }
    cumulative += count;
  }
  // p == 1 with trailing empty bins, or pure rounding residue.
  return hi_;
}

}  // namespace dc
