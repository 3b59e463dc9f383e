// Time-travel analysis acceptance bar (docs/OBSERVABILITY.md):
//
//  * replaying any snapshot boundary of a faulted run reproduces the
//    golden trace slice of that window byte-for-byte;
//  * the divergence bisector localizes a seeded divergence to the single
//    snapshot interval where it was planted, and (given trace exports)
//    to one trace record;
//  * empty or header-only traces are a typed diagnostic, never a vacuous
//    no-divergence verdict.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system_runner.hpp"
#include "core/systems.hpp"
#include "obs/trace.hpp"
#include "rundb/replay.hpp"
#include "util/fsio.hpp"
#include "workflow/montage.hpp"
#include "workload/models.hpp"

namespace dc {
namespace {

namespace fs = std::filesystem;
using core::SnapshotPolicy;
using core::SystemModel;

core::ConsolidationWorkload make_workload() {
  workload::SyntheticTraceSpec trace_spec;
  trace_spec.name = "replay";
  trace_spec.capacity_nodes = 24;
  trace_spec.period = kDay;
  trace_spec.submit_margin = 2 * kHour;
  trace_spec.jobs_per_day = 120;
  trace_spec.width_weights = {{1, 0.5}, {2, 0.25}, {4, 0.15}, {8, 0.1}};
  trace_spec.hyper_p = 0.9;
  trace_spec.hyper_mean1 = 400;
  trace_spec.hyper_mean2 = 3000;

  core::HtcWorkloadSpec htc;
  htc.name = "replay";
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

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "rundb_replay_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Runs `model` traced + snapshotted (6h cadence) and returns the golden
/// trace exports.
struct GoldenRun {
  std::string csv;
  std::string chrome_json;
};

GoldenRun golden_snapshotted_run(SystemModel model,
                                 const core::ConsolidationWorkload& workload,
                                 const std::string& dir,
                                 core::RunOptions options,
                                 SimDuration every = 6 * kHour) {
  obs::TraceSink sink;
  options.trace = &sink;
  SnapshotPolicy policy;
  policy.every = every;
  policy.dir = dir;
  auto result = core::run_system_snapshotted(model, workload, options, policy);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(sink.dropped(), 0u) << "golden run must not drop events";
  return {sink.csv(), sink.chrome_json()};
}

// The central guarantee: for EVERY snapshot boundary of a faulted, traced
// run, replaying the window to the next boundary reproduces exactly the
// golden trace rows whose emission instant falls inside the window — byte
// for byte.
TEST(ReplayWindow, EveryBoundaryReplaysTheGoldenSliceByteForByte) {
  const core::ConsolidationWorkload workload = make_workload();
  for (const SystemModel model :
       {SystemModel::kDcs, SystemModel::kDawningCloud}) {
    SCOPED_TRACE(core::system_model_name(model));
    const std::string dir =
        fresh_dir(std::string("slice_") + core::system_model_name(model));
    const GoldenRun golden =
        golden_snapshotted_run(model, workload, dir, fault_options());
    auto boundaries = core::list_snapshot_boundaries(dir, model);
    ASSERT_TRUE(boundaries.is_ok()) << boundaries.status().to_string();
    ASSERT_GE(boundaries->size(), 2u);

    for (std::size_t i = 0; i < boundaries->size(); ++i) {
      const SimTime until =
          i + 1 < boundaries->size() ? (*boundaries)[i + 1].time : 0;
      auto window = rundb::replay_window(model, workload, fault_options(),
                                         (*boundaries)[i].path, until);
      ASSERT_TRUE(window.is_ok())
          << "boundary " << i << ": " << window.status().to_string();
      EXPECT_EQ(window->start, (*boundaries)[i].time);
      EXPECT_EQ(window->dropped, 0u);
      EXPECT_EQ(window->csv,
                rundb::slice_trace_csv(golden.csv, window->start, window->end))
          << "boundary t=" << (*boundaries)[i].time;
    }
  }
}

TEST(ReplayWindow, RefusesAWindowEndingBeforeItsSnapshot) {
  const core::ConsolidationWorkload workload = make_workload();
  const std::string dir = fresh_dir("backwards");
  golden_snapshotted_run(SystemModel::kDcs, workload, dir, fault_options());
  auto boundaries = core::list_snapshot_boundaries(dir, SystemModel::kDcs);
  ASSERT_TRUE(boundaries.is_ok());
  ASSERT_GE(boundaries->size(), 2u);
  auto window =
      rundb::replay_window(SystemModel::kDcs, workload, fault_options(),
                           boundaries->back().path, (*boundaries)[0].time);
  ASSERT_FALSE(window.is_ok());
  EXPECT_NE(window.status().message().find("forward"), std::string::npos)
      << window.status().message();
}

TEST(ReplayWindow, ListingAMissingDirectoryIsATypedError) {
  auto boundaries = core::list_snapshot_boundaries(
      ::testing::TempDir() + "rundb_replay_nowhere", SystemModel::kDcs);
  ASSERT_FALSE(boundaries.is_ok());
  EXPECT_EQ(boundaries.status().code(), StatusCode::kNotFound);
}

TEST(SliceTraceCsv, KeepsHeaderAndEmissionOrderSemantics) {
  const std::string csv =
      "time,category,phase,name,actor,dur,a0,a1\n"
      "5,job,instant,job.submit,A,0,1,0\n"
      "4,job,span,job.run,A,3,1,0\n"   // span: emitted at 4+3=7
      "10,job,instant,job.complete,A,0,1,0\n";
  // Window (5, 8]: keeps the span emitted at 7, drops the instant at 5
  // (windows are left-open at the snapshot instant) and the one at 10.
  EXPECT_EQ(rundb::slice_trace_csv(csv, 5, 8),
            "time,category,phase,name,actor,dur,a0,a1\n"
            "4,job,span,job.run,A,3,1,0\n");
  // The full range reproduces every row.
  EXPECT_EQ(rundb::slice_trace_csv(csv, -1, 100), csv);
}

/// Writes `text` to `<dir>/<name>` and returns the path.
std::string write_text(const std::string& dir, const std::string& name,
                       const std::string& text) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

// Seed a divergence at a known boundary: dirB is a byte-copy of golden
// dirA up to boundary K, and a genuinely different run (other scheduler)
// from K on. The bisector must localize the first divergence to exactly
// the interval (K-1, K] — probing O(log n) boundaries, not all of them —
// and, given the trace exports, to one trace record.
TEST(Bisect, LocalizesASeededDivergenceToOneIntervalAndTraceRecord) {
  const core::ConsolidationWorkload workload = make_workload();
  const SystemModel model = SystemModel::kDcs;
  const std::string dir_a = fresh_dir("seed_a");
  const std::string dir_c = fresh_dir("seed_c");
  // A 2h cadence over the 24h horizon leaves enough interior boundaries
  // for the binary search to actually skip probes.
  const GoldenRun golden = golden_snapshotted_run(
      model, workload, dir_a, fault_options(), 2 * kHour);
  core::RunOptions mutated = fault_options();
  mutated.faults->seed += 1;  // a different fault schedule from the first hit
  const GoldenRun other =
      golden_snapshotted_run(model, workload, dir_c, mutated, 2 * kHour);

  auto boundaries_a = core::list_snapshot_boundaries(dir_a, model);
  ASSERT_TRUE(boundaries_a.is_ok());
  auto boundaries_c = core::list_snapshot_boundaries(dir_c, model);
  ASSERT_TRUE(boundaries_c.is_ok());
  const std::size_t n = std::min(boundaries_a->size(), boundaries_c->size());
  ASSERT_GE(n, 4u) << "need interior boundaries to make bisection meaningful";
  const std::size_t k = n / 2;

  // dirB = dirA's files before boundary K, dirC's from K on.
  const std::string dir_b = fresh_dir("seed_b");
  for (std::size_t i = 0; i < n; ++i) {
    const auto& source = i < k ? (*boundaries_a)[i] : (*boundaries_c)[i];
    fs::copy_file(source.path,
                  dir_b + "/" + fs::path(source.path).filename().string());
  }

  const std::string trace_a =
      write_text(dir_a, "trace.json", golden.chrome_json);
  const std::string trace_b = write_text(dir_b, "trace.json", other.chrome_json);

  auto report = rundb::bisect_divergence(dir_a, dir_b, model, trace_a, trace_b);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report->diverged);
  EXPECT_EQ(report->last_common, (*boundaries_a)[k - 1].time);
  EXPECT_EQ(report->first_divergent, (*boundaries_a)[k].time);
  EXPECT_FALSE(report->diverging_sections.empty());
  EXPECT_NE(report->summary.find("first diverging trace record"),
            std::string::npos)
      << report->summary;
  EXPECT_NE(report->summary.find("replay window"), std::string::npos)
      << report->summary;
}

// Two runs that part ways at the first queued job (first-fit against
// EASY backfilling, on DawningCloud's small initial holding) differ first
// in their history chunks. Each chunk's table counts toward its
// component, so the bisector names the components, never the `history`
// container.
TEST(Bisect, NamesTheComponentsOfADivergingHistory) {
  const core::ConsolidationWorkload workload = make_workload();
  const SystemModel model = SystemModel::kDawningCloud;
  const std::string dir_a = fresh_dir("history_first_fit");
  const std::string dir_b = fresh_dir("history_backfill");
  golden_snapshotted_run(model, workload, dir_a, core::RunOptions{});
  core::RunOptions backfill;
  backfill.htc_scheduler = core::HtcSchedulerKind::kEasyBackfill;
  golden_snapshotted_run(model, workload, dir_b, backfill);

  auto report = rundb::bisect_divergence(dir_a, dir_b, model, "", "");
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  ASSERT_TRUE(report->diverged);
  EXPECT_NE(report->field_report.find("history.chunk.htc:replay."),
            std::string::npos)
      << report->field_report;
  const std::vector<std::string>& sections = report->diverging_sections;
  EXPECT_EQ(std::count(sections.begin(), sections.end(), "history"), 0)
      << report->summary;
  EXPECT_EQ(std::count(sections.begin(), sections.end(), "htc:replay"), 1)
      << report->summary;
}

TEST(Bisect, IdenticalRunsReportNoDivergence) {
  const core::ConsolidationWorkload workload = make_workload();
  const SystemModel model = SystemModel::kDcs;
  const std::string dir = fresh_dir("same");
  const GoldenRun golden =
      golden_snapshotted_run(model, workload, dir, fault_options());
  const std::string trace = write_text(dir, "trace.json", golden.chrome_json);
  auto report = rundb::bisect_divergence(dir, dir, model, trace, trace);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_FALSE(report->diverged);
  EXPECT_NE(report->summary.find("no divergence"), std::string::npos);
}

TEST(Bisect, DisjointBoundaryGridsAreATypedError) {
  const core::ConsolidationWorkload workload = make_workload();
  const std::string dir_a = fresh_dir("grid_a");
  const std::string dir_b = fresh_dir("grid_b");
  golden_snapshotted_run(SystemModel::kDcs, workload, dir_a, fault_options());
  auto report =
      rundb::bisect_divergence(dir_a, dir_b, SystemModel::kDcs, "", "");
  ASSERT_FALSE(report.is_ok());
  EXPECT_NE(report.status().message().find("no snapshot boundary"),
            std::string::npos)
      << report.status().message();
}

// Satellite: an empty or header-only trace export is a typed diagnostic
// ("zero events"), never a silent zero-row summary or a vacuous
// no-divergence verdict.
TEST(Bisect, EmptyTraceIsATypedDiagnosticNotANoDivergenceVerdict) {
  const core::ConsolidationWorkload workload = make_workload();
  const SystemModel model = SystemModel::kDcs;
  const std::string dir = fresh_dir("empty_trace");
  golden_snapshotted_run(model, workload, dir, fault_options());
  obs::TraceSink empty;
  const std::string path = write_text(dir, "empty.json", empty.chrome_json());
  auto report = rundb::bisect_divergence(dir, dir, model, path, path);
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("zero events"), std::string::npos)
      << report.status().message();
}

TEST(ValidateTraceNonempty, AcceptsEventsRejectsEmpty) {
  EXPECT_FALSE(obs::validate_trace_nonempty({}, "empty.json").is_ok());
  std::vector<obs::ParsedTraceEvent> one(1);
  EXPECT_TRUE(obs::validate_trace_nonempty(one, "one.json").is_ok());
}

}  // namespace
}  // namespace dc
