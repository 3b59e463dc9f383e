#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace dc {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() != b()) ++differences;
  }
  EXPECT_GT(differences, 90);
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(5);
  const auto first = rng();
  rng.reseed(5);
  EXPECT_EQ(rng(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 7);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 11u) << "all values in [-3,7] should appear";
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(42, 42), 42);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, LognormalMeanCvConverges) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal_mean_cv(100.0, 0.5);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 100.0, 2.0);
  EXPECT_NEAR(std::sqrt(var) / mean, 0.5, 0.03);
}

TEST(Rng, LognormalZeroCvIsDeterministic) {
  Rng rng(21);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(33.0, 0.0), 33.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, HyperexponentialMean) {
  Rng rng(31);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.hyperexponential(0.9, 10.0, 100.0);
  EXPECT_NEAR(sum / n, 0.9 * 10.0 + 0.1 * 100.0, 0.5);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(37);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_EQ(counts[1], 0) << "zero-weight bucket must never be drawn";
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(SampleNhpp, RespectsRateShape) {
  Rng rng(41);
  // Rate 0 on the first half, max on the second half.
  const double horizon = 10000.0;
  const auto arrivals = sample_nhpp(rng, horizon, 0.1, [&](double t) {
    return t < horizon / 2 ? 0.0 : 0.1;
  });
  for (double t : arrivals) {
    ASSERT_GE(t, horizon / 2);
    ASSERT_LT(t, horizon);
  }
  // Expected count = 0.1 * 5000 = 500.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 500.0, 75.0);
}

TEST(SampleNhpp, SortedOutput) {
  Rng rng(43);
  const auto arrivals =
      sample_nhpp(rng, 50000.0, 0.05, [](double) { return 0.05; });
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformIntIsUnbiasedAtBoundaries) {
  // Property: over many draws in [0, 2], each value appears ~1/3 of the time.
  Rng rng(GetParam());
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 3.0, 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1u, 2u, 42u, 1234567u, ~0ull));

}  // namespace
}  // namespace dc
