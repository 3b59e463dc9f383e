#include "workload/trace.hpp"

#include <gtest/gtest.h>

namespace dc::workload {
namespace {

SwfFile sample_swf() {
  SwfFile file;
  file.header.set_int("MaxProcs", 64);
  SwfRecord a;
  a.job_number = 1;
  a.submit_time = 100;
  a.run_time = 600;
  a.requested_procs = 8;
  SwfRecord cancelled;  // zero runtime: dropped
  cancelled.job_number = 2;
  cancelled.submit_time = 150;
  cancelled.run_time = 0;
  cancelled.requested_procs = 4;
  SwfRecord b;
  b.job_number = 3;
  b.submit_time = 50;
  b.run_time = 60;
  b.allocated_procs = 2;  // no requested: falls back to allocated
  file.records = {a, cancelled, b};
  return file;
}

TEST(Trace, FromSwfFiltersAndSorts) {
  auto trace = Trace::from_swf(sample_swf(), "t");
  ASSERT_TRUE(trace.is_ok());
  EXPECT_EQ(trace->capacity_nodes(), 64);
  ASSERT_EQ(trace->size(), 2u);
  EXPECT_EQ(trace->jobs()[0].submit, 50) << "jobs sorted by submit time";
  EXPECT_EQ(trace->jobs()[0].nodes, 2);
  EXPECT_EQ(trace->jobs()[1].nodes, 8);
}

TEST(Trace, CapacityInferredFromJobsWhenHeaderMissing) {
  SwfFile file = sample_swf();
  file.header.fields.clear();
  auto trace = Trace::from_swf(file, "t");
  ASSERT_TRUE(trace.is_ok());
  EXPECT_EQ(trace->capacity_nodes(), 8);
}

TEST(Trace, EmptySwfIsError) {
  SwfFile file;
  auto trace = Trace::from_swf(file, "t");
  EXPECT_FALSE(trace.is_ok());
}

TEST(Trace, InvalidCpusPerNodeIsError) {
  auto trace = Trace::from_swf(sample_swf(), "t", 0);
  EXPECT_FALSE(trace.is_ok());
}

TEST(Trace, PeriodRoundsLastSubmitUpToHour) {
  Trace trace("t", 16, {TraceJob{1, 90 * kMinute, 60, 1}});
  EXPECT_EQ(trace.period(), 2 * kHour);
  trace.set_period(10 * kHour);
  EXPECT_EQ(trace.period(), 10 * kHour);
}

TEST(Trace, SliceRebasesSubmitTimes) {
  Trace trace("t", 16,
              {TraceJob{1, 100, 60, 1}, TraceJob{2, 5000, 60, 2},
               TraceJob{3, 9000, 60, 4}});
  const Trace sliced = trace.slice(1000, 8000);
  ASSERT_EQ(sliced.size(), 1u);
  EXPECT_EQ(sliced.jobs()[0].submit, 4000);
  EXPECT_EQ(sliced.jobs()[0].nodes, 2);
}

TEST(Trace, ScaleRuntimesKeepsMinimumOfOneSecond) {
  Trace trace("t", 16, {TraceJob{1, 0, 10, 1}, TraceJob{2, 0, 1, 1}});
  trace.scale_runtimes(0.01);
  EXPECT_EQ(trace.jobs()[0].runtime, 1);
  EXPECT_EQ(trace.jobs()[1].runtime, 1);
}

TEST(Trace, MaxNodes) {
  Trace trace("t", 128, {TraceJob{1, 0, 10, 3}, TraceJob{2, 0, 10, 77}});
  EXPECT_EQ(trace.max_nodes(), 77);
}

TEST(Trace, ToSwfRoundTrip) {
  Trace trace("round", 32,
              {TraceJob{1, 10, 300, 4}, TraceJob{2, 400, 1200, 16}});
  // An explicit period longer than the one the last submit implies (1 h),
  // as the synthetic models set.
  trace.set_period(2 * kDay);
  const SwfFile swf = trace.to_swf();
  EXPECT_EQ(swf.header.max_procs(), 32);
  EXPECT_EQ(swf.header.int_field("Period"), 2 * kDay);
  auto back = Trace::from_swf(swf, "round2");
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ(back->jobs()[0].submit, 10);
  EXPECT_EQ(back->jobs()[0].runtime, 300);
  EXPECT_EQ(back->jobs()[0].nodes, 4);
  EXPECT_EQ(back->capacity_nodes(), 32);
  EXPECT_EQ(back->period(), 2 * kDay);
}

TEST(Trace, SwfPeriodHeaderMustBePositive) {
  for (const char* bad : {"0", "-3600", "two weeks"}) {
    SwfFile file = sample_swf();
    file.header.set("Period", bad);
    const auto trace = Trace::from_swf(file, "t");
    ASSERT_FALSE(trace.is_ok()) << bad;
    EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // Archive files carry no Period: the last submit sets it, as before.
  auto archive = Trace::from_swf(sample_swf(), "t");
  ASSERT_TRUE(archive.is_ok());
  EXPECT_EQ(archive->period(), kHour);
}

}  // namespace
}  // namespace dc::workload
