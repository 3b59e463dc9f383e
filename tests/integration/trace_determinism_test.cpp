// The tracing acceptance bar: a run's trace export is a pure function of
// the experiment. Byte-identical across repeated runs, across sweep thread
// counts, under fault injection, and across a snapshot/resume boundary —
// and the Chrome JSON exporter round-trips losslessly through its own
// parser, so trace-summary diffs compare real event streams.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system_runner.hpp"
#include "core/systems.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "workflow/montage.hpp"
#include "workload/models.hpp"

namespace dc {
namespace {

namespace fs = std::filesystem;
using core::SnapshotPolicy;
using core::SystemModel;

const std::vector<SystemModel> kModels = {
    SystemModel::kDcs, SystemModel::kSsp, SystemModel::kDrp,
    SystemModel::kDawningCloud};

core::ConsolidationWorkload make_workload() {
  workload::SyntheticTraceSpec trace_spec;
  trace_spec.name = "obs";
  trace_spec.capacity_nodes = 24;
  trace_spec.period = kDay;
  trace_spec.submit_margin = 2 * kHour;
  trace_spec.jobs_per_day = 120;
  trace_spec.width_weights = {{1, 0.5}, {2, 0.25}, {4, 0.15}, {8, 0.1}};
  trace_spec.hyper_p = 0.9;
  trace_spec.hyper_mean1 = 400;
  trace_spec.hyper_mean2 = 3000;

  core::HtcWorkloadSpec htc;
  htc.name = "obs";
  htc.trace = workload::generate_trace(trace_spec, /*seed=*/17);
  htc.fixed_nodes = 24;
  htc.policy = core::ResourceManagementPolicy::htc(6, 1.5, 24);

  workflow::MontageParams params;
  params.inputs = 12;
  core::MtcWorkloadSpec mtc;
  mtc.name = "wf";
  mtc.dag = workflow::make_montage(params, /*seed=*/3);
  mtc.submit_time = 4 * kHour;
  mtc.fixed_nodes = 12;
  mtc.policy = core::ResourceManagementPolicy::mtc(4, 8.0);

  core::ConsolidationWorkload workload;
  workload.htc.push_back(std::move(htc));
  workload.mtc.push_back(std::move(mtc));
  return workload;
}

core::RunOptions fault_options() {
  core::RunOptions options;
  core::fault::FaultDomain::Config faults;
  faults.mean_time_between_failures = 4 * kHour;
  faults.mean_time_to_repair = 30 * kMinute;
  faults.seed = 20090814;
  options.faults = faults;
  return options;
}

// Runs `model` with a private sink (and optionally a private registry)
// and returns the trace export plus the metrics timeseries.
struct Observed {
  std::string trace_json;
  std::string metrics_csv;
};

Observed observe_run(SystemModel model, const core::ConsolidationWorkload& w,
                     core::RunOptions options) {
  obs::TraceSink sink;
  obs::MetricsRegistry registry;
  options.trace = &sink;
  options.metrics = &registry;
  options.metrics_every = kHour;
  core::run_system(model, w, options);
  EXPECT_GT(sink.emitted(), 0u) << core::system_model_name(model);
  EXPECT_GT(registry.sample_count(), 0u) << core::system_model_name(model);
  return {sink.chrome_json(), registry.timeseries_csv()};
}

TEST(TraceDeterminism, RepeatedRunsExportIdenticalBytes) {
  const core::ConsolidationWorkload workload = make_workload();
  for (const SystemModel model : kModels) {
    SCOPED_TRACE(core::system_model_name(model));
    const Observed first = observe_run(model, workload, {});
    const Observed second = observe_run(model, workload, {});
    EXPECT_EQ(first.trace_json, second.trace_json);
    EXPECT_EQ(first.metrics_csv, second.metrics_csv);
  }
}

// Each model's faulted run on its own parallel_for_index lane: the sinks
// are per run and the trace-name caches thread_local, so the thread count
// must not reach the exported bytes.
TEST(TraceDeterminism, ThreadCountDoesNotChangeTheTrace) {
  const core::ConsolidationWorkload workload = make_workload();
  auto run_all = [&](std::size_t threads) {
    const std::vector<Observed> runs = parallel_map_index<Observed>(
        kModels.size(),
        [&](std::size_t i) {
          return observe_run(kModels[i], workload, fault_options());
        },
        threads);
    std::string all;
    for (const Observed& run : runs) {
      all += run.trace_json;
      all += run.metrics_csv;
    }
    return all;
  };
  const std::string single = run_all(1);
  const std::string pooled = run_all(4);
  EXPECT_EQ(single, pooled);
}

TEST(TraceDeterminism, FaultInjectionEmitsFaultEventsDeterministically) {
  const core::ConsolidationWorkload workload = make_workload();
  for (const SystemModel model : kModels) {
    SCOPED_TRACE(core::system_model_name(model));
    const Observed first = observe_run(model, workload, fault_options());
    const Observed second = observe_run(model, workload, fault_options());
    EXPECT_EQ(first.trace_json, second.trace_json);
    EXPECT_EQ(first.metrics_csv, second.metrics_csv);
    auto parsed = obs::parse_chrome_json(first.trace_json);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
    const auto fault_events =
        std::count_if(parsed.value().begin(), parsed.value().end(),
                      [](const obs::ParsedTraceEvent& e) {
                        return e.category == "fault";
                      });
    EXPECT_GT(fault_events, 0);
  }
}

// Kill at a snapshot boundary, resume, and the *trace* (ring, string
// table, drop counters) continues as if never interrupted: the resumed
// run's export is byte-identical to the uninterrupted run's.
TEST(TraceDeterminism, SnapshotResumePreservesTraceByteIdentity) {
  const core::ConsolidationWorkload workload = make_workload();
  for (const SystemModel model : kModels) {
    SCOPED_TRACE(core::system_model_name(model));

    obs::TraceSink golden_sink;
    core::RunOptions golden_options = fault_options();
    golden_options.trace = &golden_sink;
    core::run_system(model, workload, golden_options);

    const std::string dir = ::testing::TempDir() + "trace_resume_" +
                            core::system_model_name(model);
    fs::remove_all(dir);
    fs::create_directories(dir);
    SnapshotPolicy policy;
    policy.every = 6 * kHour;
    policy.dir = dir;

    obs::TraceSink first_sink;
    core::RunOptions options = fault_options();
    options.trace = &first_sink;
    auto first =
        core::run_system_snapshotted(model, workload, options, policy);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    EXPECT_EQ(first_sink.chrome_json(), golden_sink.chrome_json());

    // Resume from the newest boundary into a *fresh* sink: restore fills
    // it from the snapshot and the run completes the event stream.
    obs::TraceSink resumed_sink;
    core::RunOptions resumed_options = fault_options();
    resumed_options.trace = &resumed_sink;
    SnapshotPolicy resume = policy;
    resume.resume = true;
    auto resumed = core::run_system_snapshotted(model, workload,
                                                resumed_options, resume);
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_EQ(resumed_sink.chrome_json(), golden_sink.chrome_json());
    EXPECT_EQ(resumed_sink.csv(), golden_sink.csv());
    EXPECT_EQ(resumed_sink.emitted(), golden_sink.emitted());
    EXPECT_EQ(resumed_sink.dropped(), golden_sink.dropped());
  }
}

// A snapshot taken from a traced run refuses to resume untraced (and
// vice versa): silent shape drift would desynchronize the stream.
TEST(TraceDeterminism, ResumeRequiresMatchingTracePresence) {
  const core::ConsolidationWorkload workload = make_workload();
  const std::string dir = ::testing::TempDir() + "trace_presence";
  fs::remove_all(dir);
  fs::create_directories(dir);
  SnapshotPolicy policy;
  policy.every = 6 * kHour;
  policy.dir = dir;

  obs::TraceSink sink;
  core::RunOptions traced;
  traced.trace = &sink;
  auto first = core::run_system_snapshotted(SystemModel::kDcs, workload,
                                            traced, policy);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();

  SnapshotPolicy resume = policy;
  resume.resume = true;
  auto untraced = core::run_system_snapshotted(SystemModel::kDcs, workload,
                                               {}, resume);
  ASSERT_FALSE(untraced.is_ok());
  EXPECT_NE(untraced.status().message().find("trace"), std::string::npos)
      << untraced.status().message();
}

TEST(TraceDeterminism, ExporterRoundTripLosesNothing) {
  const core::ConsolidationWorkload workload = make_workload();
  obs::TraceSink sink;
  core::RunOptions options;
  options.trace = &sink;
  core::run_system(SystemModel::kDawningCloud, workload, options);

  auto parsed = obs::parse_chrome_json(sink.chrome_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  ASSERT_EQ(parsed.value().size(), sink.size());
  const auto events = sink.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& raw = events[i];
    const auto& round = parsed.value()[i];
    EXPECT_EQ(round.name, sink.name_of(raw.name)) << "event " << i;
    EXPECT_EQ(round.actor, sink.name_of(raw.actor)) << "event " << i;
    EXPECT_EQ(round.ts_us, raw.time * 1000000) << "event " << i;
    EXPECT_EQ(round.dur_us, raw.dur * 1000000) << "event " << i;
    EXPECT_EQ(round.a0, raw.a0) << "event " << i;
    EXPECT_EQ(round.a1, raw.a1) << "event " << i;
    EXPECT_EQ(round.phase, raw.phase == 1 ? 'X' : 'i') << "event " << i;
  }
}

TEST(TraceDeterminism, CategoryFilterSelectsASubset) {
  const core::ConsolidationWorkload workload = make_workload();
  obs::TraceSink everything;
  core::RunOptions options;
  options.trace = &everything;
  core::run_system(SystemModel::kDawningCloud, workload, options);

  obs::TraceSink only_jobs;
  only_jobs.set_filter(obs::trace_category_bit(obs::TraceCategory::kJob));
  core::RunOptions filtered;
  filtered.trace = &only_jobs;
  core::run_system(SystemModel::kDawningCloud, workload, filtered);

  ASSERT_GT(only_jobs.emitted(), 0u);
  EXPECT_LT(only_jobs.emitted(), everything.emitted());
  const auto counts = only_jobs.category_counts();
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (c == static_cast<std::size_t>(obs::TraceCategory::kJob)) {
      EXPECT_GT(counts[c], 0u);
    } else {
      EXPECT_EQ(counts[c], 0u) << "category " << c;
    }
  }
  // The filtered stream equals the full stream restricted to kJob.
  const auto all_counts = everything.category_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::TraceCategory::kJob)],
            all_counts[static_cast<std::size_t>(obs::TraceCategory::kJob)]);
}

// The profiler observes, never perturbs: profiled and unprofiled runs
// trace identically, and the dispatch phase accounts for the run's events.
TEST(TraceDeterminism, ProfilingDoesNotPerturbTheRun) {
  const core::ConsolidationWorkload workload = make_workload();
  obs::TraceSink plain_sink;
  core::RunOptions plain;
  plain.trace = &plain_sink;
  const core::SystemResult unprofiled =
      core::run_system(SystemModel::kDcs, workload, plain);

  obs::TraceSink profiled_sink;
  obs::PhaseProfiler profiler;
  core::RunOptions options;
  options.trace = &profiled_sink;
  options.profile = &profiler;
  const core::SystemResult profiled =
      core::run_system(SystemModel::kDcs, workload, options);

  EXPECT_EQ(plain_sink.chrome_json(), profiled_sink.chrome_json());
  EXPECT_EQ(unprofiled.simulated_events, profiled.simulated_events);
  EXPECT_GT(profiler.calls(obs::ProfilePhase::kDispatch), 0u);
  EXPECT_EQ(profiler.units(obs::ProfilePhase::kDispatch),
            profiled.simulated_events);
}

}  // namespace
}  // namespace dc
