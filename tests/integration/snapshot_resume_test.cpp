// Crash-consistency regression: a run interrupted at any snapshot
// boundary and resumed from disk must produce results CSVs byte-identical
// to an uninterrupted run — for all four systems, under fault injection,
// and regardless of a parallel sweep's thread count. Corrupted, truncated,
// and model-mismatched snapshots must be rejected with a clear error,
// never a crash or a silently wrong answer.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system_runner.hpp"
#include "core/systems.hpp"
#include "metrics/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snapshot/format.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
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
  trace_spec.name = "snap";
  trace_spec.capacity_nodes = 32;
  trace_spec.period = 2 * kDay;
  trace_spec.submit_margin = 2 * kHour;
  trace_spec.jobs_per_day = 150;
  trace_spec.width_weights = {{1, 0.4}, {2, 0.3}, {4, 0.2}, {8, 0.08}, {32, 0.02}};
  trace_spec.hyper_p = 0.9;
  trace_spec.hyper_mean1 = 500;
  trace_spec.hyper_mean2 = 4000;

  core::HtcWorkloadSpec htc;
  htc.name = "snap";
  htc.trace = workload::generate_trace(trace_spec, /*seed=*/11);
  htc.fixed_nodes = 32;
  htc.policy = core::ResourceManagementPolicy::htc(8, 1.5, 32);

  workflow::MontageParams params;
  params.inputs = 20;
  core::MtcWorkloadSpec mtc;
  mtc.name = "wf";
  mtc.dag = workflow::make_montage(params, /*seed=*/5);
  mtc.submit_time = 6 * kHour;
  mtc.fixed_nodes = 20;
  mtc.policy = core::ResourceManagementPolicy::mtc(4, 8.0);

  core::ConsolidationWorkload workload;
  workload.htc.push_back(std::move(htc));
  workload.mtc.push_back(std::move(mtc));
  return workload;
}

// Fault injection on: the acceptance bar is resume fidelity *with* the
// failure/repair lifecycle mid-flight (pinned victim sequences, pending
// repairs, retry backoffs).
core::RunOptions make_options() {
  core::RunOptions options;
  core::fault::FaultDomain::Config faults;
  faults.mean_time_between_failures = 3 * kHour;
  faults.mean_time_to_repair = 30 * kMinute;
  faults.seed = 20090814;
  options.faults = faults;
  return options;
}

// The artifact under comparison: the same results CSV the figure benches
// publish, plus the provider tables.
std::string results_artifact(const std::vector<core::SystemResult>& systems,
                             const std::string& tag) {
  const std::string path = ::testing::TempDir() + "snap_results_" + tag + ".csv";
  {
    CsvWriter csv(path);
    EXPECT_TRUE(csv.ok()) << path;
    metrics::write_results_csv(csv, systems);
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string artifact = buf.str();
  EXPECT_FALSE(artifact.empty());
  artifact += metrics::format_htc_provider_table(systems, "snap", "HTC");
  artifact += metrics::format_mtc_provider_table(systems, "wf", "MTC");
  return artifact;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::string> snapshot_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".dcsnap") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The lines of `text`, each without its newline; a final newline ends
/// the last line rather than starting an empty one.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(SnapshotResume, ChunkedRunWithPeriodicSnapshotsMatchesUninterrupted) {
  const core::ConsolidationWorkload workload = make_workload();
  const core::RunOptions options = make_options();
  std::vector<core::SystemResult> golden;
  std::vector<core::SystemResult> chunked;
  for (const SystemModel model : kModels) {
    golden.push_back(core::run_system(model, workload, options));
    SnapshotPolicy policy;
    policy.every = 6 * kHour;
    policy.dir = fresh_dir(std::string("snap_chunked_") +
                           core::system_model_name(model));
    auto result = core::run_system_snapshotted(model, workload, options, policy);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    chunked.push_back(*result);
    EXPECT_FALSE(snapshot_files(policy.dir).empty());
  }
  EXPECT_EQ(results_artifact(golden, "golden"),
            results_artifact(chunked, "chunked"));
}

// The tentpole guarantee: kill at *any* snapshot boundary, resume from the
// file on disk, and the final CSV is byte-identical — all four systems,
// faults injected throughout.
TEST(SnapshotResume, ResumeFromEveryBoundaryIsByteIdentical) {
  const core::ConsolidationWorkload workload = make_workload();
  const core::RunOptions options = make_options();
  for (const SystemModel model : kModels) {
    SCOPED_TRACE(core::system_model_name(model));
    const std::string golden = results_artifact(
        {core::run_system(model, workload, options)},
        std::string("g_") + core::system_model_name(model));

    SnapshotPolicy policy;
    policy.every = 6 * kHour;
    policy.dir = fresh_dir(std::string("snap_resume_") +
                           core::system_model_name(model));
    auto continuous =
        core::run_system_snapshotted(model, workload, options, policy);
    ASSERT_TRUE(continuous.is_ok()) << continuous.status().to_string();
    const std::vector<std::string> boundaries = snapshot_files(policy.dir);
    ASSERT_GE(boundaries.size(), 3u);

    // Remember the continuous run's later snapshots: a resumed run rewrites
    // them and must reproduce the exact bytes (rolling state digests agree).
    std::vector<std::string> golden_snapshots;
    for (const std::string& file : boundaries) {
      golden_snapshots.push_back(read_file(file));
    }

    for (std::size_t i = 0; i < boundaries.size(); ++i) {
      SCOPED_TRACE("resume from " + boundaries[i]);
      SnapshotPolicy resume = policy;
      resume.resume_from = boundaries[i];
      auto resumed =
          core::run_system_snapshotted(model, workload, options, resume);
      ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
      EXPECT_EQ(golden,
                results_artifact({*resumed},
                                 std::string("r_") +
                                     core::system_model_name(model) +
                                     std::to_string(i)));
      // Divergence audit: every boundary after the resume point was
      // re-written; the bytes must match the continuous run's snapshots.
      for (std::size_t j = i + 1; j < boundaries.size(); ++j) {
        EXPECT_EQ(read_file(boundaries[j]), golden_snapshots[j])
            << "resumed run diverged by snapshot " << boundaries[j];
      }
    }
  }
}

TEST(SnapshotResume, ResumeIsByteIdenticalAcrossThreadCounts) {
  const core::ConsolidationWorkload workload = make_workload();
  const core::RunOptions options = make_options();

  auto run_matrix = [&](std::size_t threads) {
    const std::string tag = std::to_string(threads);
    // All four systems resumed concurrently, `threads` at a time — the same
    // shape as a figure bench restarted after a crash.
    const std::vector<std::string> artifacts = parallel_map_index<std::string>(
        kModels.size(),
        [&](std::size_t i) {
          const SystemModel model = kModels[i];
          SnapshotPolicy policy;
          policy.every = 8 * kHour;
          policy.dir = fresh_dir("snap_threads_" + tag +
                                 core::system_model_name(model));
          auto first =
              core::run_system_snapshotted(model, workload, options, policy);
          EXPECT_TRUE(first.is_ok()) << first.status().to_string();
          const std::vector<std::string> files = snapshot_files(policy.dir);
          EXPECT_FALSE(files.empty());
          SnapshotPolicy resume = policy;
          resume.resume = true;  // newest valid snapshot
          auto resumed =
              core::run_system_snapshotted(model, workload, options, resume);
          EXPECT_TRUE(resumed.is_ok()) << resumed.status().to_string();
          return results_artifact({*resumed},
                                  "t" + tag + core::system_model_name(model));
        },
        threads);
    std::string all;
    for (const std::string& artifact : artifacts) all += artifact;
    return all;
  };

  const std::string single = run_matrix(1);
  const std::string pooled = run_matrix(4);
  EXPECT_EQ(single, pooled);
}

TEST(SnapshotResume, CorruptedSnapshotIsRejectedWithClearError) {
  const core::ConsolidationWorkload workload = make_workload();
  const core::RunOptions options = make_options();
  SnapshotPolicy policy;
  policy.every = 8 * kHour;
  policy.dir = fresh_dir("snap_corrupt");
  auto first = core::run_system_snapshotted(SystemModel::kDcs, workload,
                                            options, policy);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  std::vector<std::string> files = snapshot_files(policy.dir);
  ASSERT_GE(files.size(), 2u);

  // Flip one byte mid-stream: explicit resume_from must fail loudly.
  std::string bytes = read_file(files.back());
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(files.back(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  SnapshotPolicy resume = policy;
  resume.resume_from = files.back();
  auto rejected =
      core::run_system_snapshotted(SystemModel::kDcs, workload, options, resume);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.status().message().find("corrupt"), std::string::npos)
      << rejected.status().message();

  // Auto-resume skips the corrupt newest file and falls back to the
  // previous valid boundary — and still reproduces the golden artifact.
  const std::string golden = results_artifact(
      {core::run_system(SystemModel::kDcs, workload, options)}, "corrupt_g");
  SnapshotPolicy fallback = policy;
  fallback.resume = true;
  const std::string log_path = policy.dir + ".log";
  std::FILE* log = std::fopen(log_path.c_str(), "w");
  ASSERT_NE(log, nullptr);
  Log::set_stream(log);
  StatusOr<core::SystemResult> resumed = Status::internal("not run");
  {
    ScopedLogLevel info(LogLevel::kInfo);
    resumed = core::run_system_snapshotted(SystemModel::kDcs, workload,
                                           options, fallback);
  }
  Log::set_stream(stderr);
  std::fclose(log);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(golden, results_artifact({*resumed}, "corrupt_r"));

  // The skip warning and the resume line are one line each: no empty
  // line follows either.
  const std::vector<std::string> lines = split_lines(read_file(log_path));
  for (const std::string& prefix :
       {"skipping snapshot " + files.back() + ": ",
        "resumed DCS from " + files[files.size() - 2] + " at t="}) {
    const auto at = std::find_if(
        lines.begin(), lines.end(), [&prefix](const std::string& line) {
          return line.compare(0, prefix.size(), prefix) == 0;
        });
    ASSERT_NE(at, lines.end()) << prefix;
    EXPECT_EQ(std::count_if(lines.begin(), lines.end(),
                            [&prefix](const std::string& line) {
                              return line.find(prefix) != std::string::npos;
                            }),
              1)
        << prefix;
    EXPECT_TRUE(at + 1 == lines.end() || !(at + 1)->empty()) << prefix;
  }

  // Truncation (the crash-mid-write shape, had writes not been atomic) is
  // rejected just as loudly.
  const std::string truncated_path = policy.dir + "/truncated.dcsnap";
  {
    std::ofstream out(truncated_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  SnapshotPolicy from_truncated = policy;
  from_truncated.resume_from = truncated_path;
  auto truncated = core::run_system_snapshotted(SystemModel::kDcs, workload,
                                                options, from_truncated);
  ASSERT_FALSE(truncated.is_ok());

  // When *every* candidate is corrupt, auto-resume refuses to silently
  // restart from scratch.
  for (const std::string& file : snapshot_files(policy.dir)) {
    std::string broken = read_file(file);
    broken[broken.size() / 2] ^= 0x20;
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(broken.data(), static_cast<std::streamsize>(broken.size()));
  }
  auto refused = core::run_system_snapshotted(SystemModel::kDcs, workload,
                                              options, fallback);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_NE(refused.status().message().find("none verifies"),
            std::string::npos)
      << refused.status().message();
}

TEST(SnapshotResume, EmptyDirectoryStartsFresh) {
  const core::ConsolidationWorkload workload = make_workload();
  SnapshotPolicy policy;
  policy.dir = fresh_dir("snap_empty");
  policy.resume = true;
  auto result = core::run_system_snapshotted(SystemModel::kSsp, workload, {},
                                             policy);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const std::string golden = results_artifact(
      {core::run_system(SystemModel::kSsp, workload, {})}, "empty_g");
  EXPECT_EQ(golden, results_artifact({*result}, "empty_r"));
}

TEST(SnapshotResume, ModelMismatchedSnapshotIsRejected) {
  const core::ConsolidationWorkload workload = make_workload();
  SnapshotPolicy policy;
  policy.every = 12 * kHour;
  policy.dir = fresh_dir("snap_mismatch");
  auto dcs = core::run_system_snapshotted(SystemModel::kDcs, workload, {},
                                          policy);
  ASSERT_TRUE(dcs.is_ok());
  const std::vector<std::string> files = snapshot_files(policy.dir);
  ASSERT_FALSE(files.empty());
  SnapshotPolicy resume;
  resume.dir = policy.dir;
  resume.resume_from = files.front();
  auto rejected =
      core::run_system_snapshotted(SystemModel::kDrp, workload, {}, resume);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.status().message().find("DCS"), std::string::npos);
  EXPECT_NE(rejected.status().message().find("DRP"), std::string::npos);
}


// --- Pinned bytes --------------------------------------------------------------
//
// Every test above compares a build with itself. These compare it with
// pinned digests, so a change to seq assignment that moved every run the
// same way would still fail here. The digests are FNV-1a over each
// system's snapshot files in boundary order, over its results artifact,
// and over DawningCloud's trace export and metrics timeseries. The results,
// trace and metrics digests were captured from the emulator that queued
// one event per trace job at registration; the snapshot digests from the
// history layout (final rows in one chunk per save, docs/SNAPSHOT.md).

std::string hex_digest(std::string_view bytes) {
  return str_format("%016llx", static_cast<unsigned long long>(
                                   snapshot::fnv1a(bytes)));
}

struct PinnedRun {
  SystemModel model;
  std::size_t snapshots;
  const char* snapshots_digest;
  const char* results_digest;
};

TEST(SnapshotResume, SnapshotsAndResultsMatchPinnedDigests) {
  const core::ConsolidationWorkload workload = make_workload();
  const core::RunOptions options = make_options();
  const std::vector<PinnedRun> pinned = {
      {SystemModel::kDcs, 7, "f0a1f8600d3745e0", "e8c9ce6ff5d9e0e4"},
      {SystemModel::kSsp, 7, "f0b886885e2ea3e2", "72d83ebf6382bd8e"},
      {SystemModel::kDrp, 7, "0f061340455b00a8", "5d5a7b9b0efdca07"},
      {SystemModel::kDawningCloud, 7, "90d136692936fc76", "d9dd0b86b1d8050c"},
  };
  for (const PinnedRun& pin : pinned) {
    SCOPED_TRACE(core::system_model_name(pin.model));
    SnapshotPolicy policy;
    policy.every = 6 * kHour;
    policy.dir = fresh_dir(std::string("snap_pinned_") +
                           core::system_model_name(pin.model));
    auto result =
        core::run_system_snapshotted(pin.model, workload, options, policy);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    std::string snapshots;
    const std::vector<std::string> files = snapshot_files(policy.dir);
    for (const std::string& file : files) snapshots += read_file(file);
    EXPECT_EQ(files.size(), pin.snapshots);
    EXPECT_EQ(hex_digest(snapshots), pin.snapshots_digest);
    EXPECT_EQ(hex_digest(results_artifact(
                  {*result}, std::string("pinned_") +
                                 core::system_model_name(pin.model))),
              pin.results_digest);
  }
}

TEST(SnapshotResume, DawningCloudTraceAndMetricsMatchPinnedDigests) {
  const core::ConsolidationWorkload workload = make_workload();
  core::RunOptions options = make_options();
  obs::TraceSink sink;
  obs::MetricsRegistry registry;
  options.trace = &sink;
  options.metrics = &registry;
  options.metrics_every = kHour;
  SnapshotPolicy policy;
  policy.every = 6 * kHour;
  policy.dir = fresh_dir("snap_pinned_observed");
  auto result = core::run_system_snapshotted(SystemModel::kDawningCloud,
                                             workload, options, policy);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(hex_digest(registry.timeseries_csv()), "428c18b6e6b218ca");
  EXPECT_EQ(hex_digest(sink.chrome_json()), "6acfa59fb93c85de");
}

// The records the 6-hour pins above never reach: a pending setup, grant
// timeout and job retry, a waiting grant, the packed trace ring and the
// sampler timer. A bounded platform that queues by priority, a setup
// latency, retry backoff and grant timeouts put them in flight, and a
// 10-minute period catches the short-lived ones (the grant-timeout list
// is pending at only a few boundaries).
struct PinnedBusyRun {
  SystemModel model;
  std::size_t snapshots;
  const char* snapshots_digest;
  const char* results_digest;
  const char* trace_digest;
  const char* metrics_digest;
  /// Server records that some snapshot must hold with a non-zero value
  /// (an MTC server's records are the HTC server's, under "mtc:").
  std::vector<const char*> nonzero;
};

/// True when some record `name` of a section starting with `prefix` holds
/// a non-zero u64 or a true bool in one of `files`.
bool some_record_is_set(const std::vector<std::string>& files,
                        std::string_view prefix, std::string_view name) {
  for (const std::string& file : files) {
    auto records = snapshot::read_records(file);
    EXPECT_TRUE(records.is_ok()) << records.status().to_string();
    if (!records.is_ok()) return false;
    for (const snapshot::SnapshotRecord& record : *records) {
      if (record.name != name || record.section.rfind(prefix, 0) != 0) {
        continue;
      }
      if (record.value_text() != "0" && record.value_text() != "false") {
        return true;
      }
    }
  }
  return false;
}

TEST(SnapshotResume, BusyRunSnapshotsMatchPinnedDigests) {
  const core::ConsolidationWorkload workload = make_workload();
  const std::vector<PinnedBusyRun> pinned = {
      {SystemModel::kDawningCloud, 287, "98973270f636481c", "97092580ecfa80b5",
       "937eb17bc3efd0e1", "7a25ebbdd7a37e3a",
       {"setup_count", "timeout_count", "retry_count", "waiting_grant"}},
      {SystemModel::kDrp, 287, "3a7150e3af5b0fe4", "26ace905dd72752f",
       "a6babeb532e3bca7", "de3368693c6e8898", {"retry_count"}},
  };
  for (const PinnedBusyRun& pin : pinned) {
    SCOPED_TRACE(core::system_model_name(pin.model));
    core::RunOptions options = make_options();
    options.recovery.retry_backoff = 10 * kMinute;
    options.recovery.grant_timeout = 20 * kMinute;
    options.platform_capacity = 36;
    options.contention =
        core::ProvisionPolicy::ContentionMode::kQueueByPriority;
    options.setup_latency = 5 * kMinute;
    obs::TraceSink sink;
    obs::MetricsRegistry registry;
    options.trace = &sink;
    options.metrics = &registry;
    options.metrics_every = kHour;
    SnapshotPolicy policy;
    policy.every = 10 * kMinute;
    policy.dir = fresh_dir(std::string("snap_pinned_busy_") +
                           core::system_model_name(pin.model));
    auto result =
        core::run_system_snapshotted(pin.model, workload, options, policy);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    std::string snapshots;
    const std::vector<std::string> files = snapshot_files(policy.dir);
    for (const std::string& file : files) snapshots += read_file(file);
    EXPECT_EQ(files.size(), pin.snapshots);
    EXPECT_EQ(hex_digest(snapshots), pin.snapshots_digest);
    EXPECT_EQ(hex_digest(results_artifact(
                  {*result}, std::string("pinned_busy_") +
                                 core::system_model_name(pin.model))),
              pin.results_digest);
    EXPECT_EQ(hex_digest(sink.chrome_json()), pin.trace_digest);
    EXPECT_EQ(hex_digest(registry.timeseries_csv()), pin.metrics_digest);
    for (const char* name : pin.nonzero) {
      EXPECT_TRUE(some_record_is_set(files, "", name)) << name;
    }
    EXPECT_TRUE(some_record_is_set(files, "obs", "sampler_pending"));
    // The trace ring's events are history rows: each save's chunk packs
    // the ones emitted since the save before.
    constexpr std::string_view kTraceHistory = "history.chunk.obs.trace.events";
    EXPECT_TRUE(some_record_is_set(files, kTraceHistory, "rows"));
    bool packed_ring = false;
    auto records = snapshot::read_records(files.back());
    ASSERT_TRUE(records.is_ok()) << records.status().to_string();
    for (const snapshot::SnapshotRecord& record : *records) {
      packed_ring = packed_ring || (record.section == kTraceHistory &&
                                    record.name == "packed" &&
                                    !record.payload.empty());
    }
    EXPECT_TRUE(packed_ring);
    fs::remove_all(policy.dir);  // 287 snapshots a system
  }
}

}  // namespace
}  // namespace dc
