#include "util/histogram.hpp"

#include <gtest/gtest.h>

namespace dc {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.cv(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats stats;
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(RunningStats, CvIsStddevOverMean) {
  RunningStats stats;
  stats.add(10.0);
  stats.add(20.0);
  EXPECT_NEAR(stats.cv(), stats.stddev() / 15.0, 1e-12);
}

TEST(Histogram, BinsUniformly) {
  Histogram hist(0.0, 10.0, 5);
  for (int i = 0; i < 10; ++i) hist.add(i + 0.5);
  EXPECT_EQ(hist.total(), 10);
  for (std::size_t b = 0; b < 5; ++b) {
    EXPECT_EQ(hist.bin(b), 2) << "bin " << b;
  }
}

TEST(Histogram, BinEdges) {
  Histogram hist(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(hist.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(hist.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(hist.bin_hi(4), 10.0);
}

TEST(Histogram, OutOfRangeClampsAndCounts) {
  Histogram hist(0.0, 10.0, 2);
  hist.add(-5.0);
  hist.add(15.0);
  hist.add(10.0);  // hi is exclusive
  EXPECT_EQ(hist.underflow(), 1);
  EXPECT_EQ(hist.overflow(), 2);
  EXPECT_EQ(hist.bin(0), 1);
  EXPECT_EQ(hist.bin(1), 2);
}

TEST(Histogram, QuantileOfEmptyHistogramIsLo) {
  Histogram hist(2.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(hist.p50(), 2.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 2.0);
}

TEST(Histogram, QuantileInterpolatesWithinSingleOccupiedBin) {
  // All mass in [2, 4): the quantile walks linearly across that bin.
  Histogram hist(0.0, 10.0, 5);
  for (int i = 0; i < 4; ++i) hist.add(3.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 3.0);   // half-way through the bin
  EXPECT_DOUBLE_EQ(hist.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 4.0);   // the bin's upper edge
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 2.0);   // p=0 sits at the bin's base
}

TEST(Histogram, QuantileOrderAcrossBins) {
  Histogram hist(0.0, 10.0, 5);
  for (int i = 0; i < 10; ++i) hist.add(i + 0.5);  // 2 per bin
  EXPECT_DOUBLE_EQ(hist.quantile(0.2), 2.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(hist.p50(), 5.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 10.0);
  EXPECT_LE(hist.p50(), hist.p95());
  EXPECT_LE(hist.p95(), hist.p99());
}

TEST(Histogram, QuantileWithSaturatedOverflowBinStaysInRange) {
  // Every sample clamps into the last bin; quantiles must stay within
  // [lo, hi] and land inside that bin, never extrapolate past hi.
  Histogram hist(0.0, 10.0, 2);
  for (int i = 0; i < 100; ++i) hist.add(1e9);
  EXPECT_EQ(hist.overflow(), 100);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 7.5);  // midpoint of bin [5, 10)
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 10.0);
  EXPECT_GE(hist.p99(), 5.0);
  EXPECT_LE(hist.p99(), 10.0);
}

TEST(Histogram, QuantileClampsOutOfRangeP) {
  Histogram hist(0.0, 10.0, 2);
  hist.add(1.0);
  EXPECT_DOUBLE_EQ(hist.quantile(-0.5), hist.quantile(0.0));
  EXPECT_DOUBLE_EQ(hist.quantile(2.0), hist.quantile(1.0));
}

}  // namespace
}  // namespace dc
