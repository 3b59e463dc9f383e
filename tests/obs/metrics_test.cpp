#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "util/time.hpp"

namespace dc::obs {
namespace {

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter("jobs.completed"), 0u);
  registry.add_counter("jobs.completed");
  registry.add_counter("jobs.completed", 4);
  registry.add_counter("jobs.killed", 2);
  EXPECT_EQ(registry.counter("jobs.completed"), 5u);
  EXPECT_EQ(registry.counter("jobs.killed"), 2u);
}

TEST(MetricsRegistry, GaugesAreLastWriteWins) {
  MetricsRegistry registry;
  EXPECT_DOUBLE_EQ(registry.gauge("queue.depth"), 0.0);
  registry.set_gauge("queue.depth", 7.0);
  registry.set_gauge("queue.depth", 3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("queue.depth"), 3.0);
}

TEST(MetricsRegistry, StatsInstrumentIsCreatedOnFirstUse) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.find_stats("wait"), nullptr);
  registry.stats("wait").add(10.0);
  registry.stats("wait").add(20.0);
  const RunningStats* stats = registry.find_stats("wait");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count(), 2);
  EXPECT_DOUBLE_EQ(stats->mean(), 15.0);
}

TEST(MetricsRegistry, HistogramKeepsFirstBounds) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("runtime", 0.0, 10.0, 5);
  hist.add(3.0);
  // Later calls with different bounds return the existing instrument.
  Histogram& same = registry.histogram("runtime", 0.0, 999.0, 2);
  EXPECT_EQ(&hist, &same);
  EXPECT_EQ(same.total(), 1);
}

TEST(MetricsRegistry, TimeseriesCsvIsLongFormat) {
  MetricsRegistry registry;
  registry.sample(kHour, "bes.queue_depth", 4.0);
  registry.sample(kHour, "bes.busy", 16.0);
  registry.sample(2 * kHour, "bes.queue_depth", 2.5);
  EXPECT_EQ(registry.sample_count(), 3u);
  ASSERT_EQ(registry.metric_names().size(), 2u);
  EXPECT_EQ(registry.metric_names()[0], "bes.queue_depth");

  const std::string csv = registry.timeseries_csv();
  EXPECT_EQ(csv,
            "time,metric,value\n"
            "3600,bes.queue_depth,4\n"
            "3600,bes.busy,16\n"
            "7200,bes.queue_depth,2.5\n");
}

// Values print as %.10g would print them, through every edge the
// shortest-form and exponent choices have.
TEST(MetricsRegistry, TimeseriesCsvPrintsTenSignificantDigits) {
  using limits = std::numeric_limits<double>;
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           -2.5,
                           123456789.0,
                           1234567890.0,
                           12345678901.0,
                           0.0001,
                           0.00001234,
                           1e21,
                           -1e-300,
                           limits::max(),
                           limits::min(),
                           limits::denorm_min(),
                           4.9e-310,
                           limits::infinity(),
                           -limits::infinity(),
                           limits::quiet_NaN(),
                           -limits::quiet_NaN()};
  MetricsRegistry registry;
  SimTime t = -1;
  for (const double value : values) registry.sample(t++, "m", value);
  registry.sample(std::numeric_limits<SimTime>::max(), "other", 1.5);
  EXPECT_EQ(registry.timeseries_csv(),
            "time,metric,value\n"
            "-1,m,0\n"
            "0,m,-0\n"
            "1,m,0.3333333333\n"
            "2,m,-2.5\n"
            "3,m,123456789\n"
            "4,m,1234567890\n"
            "5,m,1.23456789e+10\n"
            "6,m,0.0001\n"
            "7,m,1.234e-05\n"
            "8,m,1e+21\n"
            "9,m,-1e-300\n"
            "10,m,1.797693135e+308\n"
            "11,m,2.225073859e-308\n"
            "12,m,4.940656458e-324\n"
            "13,m,4.9e-310\n"
            "14,m,inf\n"
            "15,m,-inf\n"
            "16,m,nan\n"
            "17,m,-nan\n"
            "9223372036854775807,other,1.5\n");
}

TEST(MetricsRegistry, SummaryListsEveryInstrument) {
  MetricsRegistry registry;
  registry.add_counter("jobs.completed", 12);
  registry.set_gauge("nodes.busy", 48.0);
  registry.stats("wait").add(30.0);
  registry.histogram("runtime", 0.0, 100.0, 4).add(50.0);
  const std::string summary = registry.summary();
  EXPECT_NE(summary.find("jobs.completed"), std::string::npos) << summary;
  EXPECT_NE(summary.find("counter"), std::string::npos) << summary;
  EXPECT_NE(summary.find("nodes.busy"), std::string::npos) << summary;
  EXPECT_NE(summary.find("gauge"), std::string::npos) << summary;
  EXPECT_NE(summary.find("stats"), std::string::npos) << summary;
  EXPECT_NE(summary.find("histogram"), std::string::npos) << summary;
}

}  // namespace
}  // namespace dc::obs
