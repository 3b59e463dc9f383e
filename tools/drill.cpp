// drill: the fault drills, one named scenario per ctest (see
// docs/ROBUSTNESS.md).
//
//   drill SCENARIO --workdir DIR [--spec FILE]
//
// Each scenario first makes an uninterrupted golden pass and keeps its
// artifacts. Every drilled pass must then land on those bytes, with no
// *.tmp / *.partial debris left in its artifact tree, or fail the way the
// scenario demands. Crash points are deterministic: a util/faultfs plan or
// a campaign DrillMode names the exact operation to die at, so no scenario
// waits on a wall clock to decide when to kill.
//
// I/O scenarios enumerate every (site, op) pair the golden pass reaches
// and inject one fault class at each. The rule must fire, and then:
//
//   * exit 0           the fault was absorbed: golden bytes, no debris;
//   * typed failure    a Status error reached the top and left no debris,
//                      and a recovery pass (same plan, its `once` marker
//                      already claimed, resume on) lands on golden;
//   * crash (exit 86)  the recovery pass lands on golden.
//
// Composed plans must crash, then recover the same way.
//
//   snapshot-dcs, snapshot-ssp, snapshot-drp, snapshot-dawningcloud
//         a faulted run of that system snapshotting every 12 h, plus an
//         atomically written results CSV. Every snapshot file a pass
//         leaves is an artifact too: a resumed run must re-write the
//         golden pass's snapshots byte for byte. Composed: kill-after-2 dies
//         right after the second snapshot lands, and the recovery must
//         resume from it, so the crashed and recovered passes together
//         rename as many snapshots as golden; trunc-snapshot truncates the
//         second snapshot and dies before the third, so the recovery must
//         fall back to the first and rename one snapshot more.
//   exports
//         the metrics CSV, Chrome trace JSON and trace CSV writers.
//   campaign-io
//         the --spec grid cut to one quantum, on one worker: the probes'
//         nth counts need a serial campaign. Composed: torn-journal tears
//         a mid-campaign journal append.
//
// The campaign self-drills run the full --spec grid on two workers:
//
//   kill-orchestrator   the orchestrator SIGKILLs itself after one cell is
//                       done; a resume verifies that cell by its artifact
//                       digest instead of re-running it, and ends on golden;
//   kill-worker         one worker SIGKILLs itself mid-horizon, once;
//   hang-worker         one worker stops heartbeating, once: supervision
//                       kills and retries it;
//   poison-cell         one cell fails every attempt: it is quarantined and
//                       reported, and every merged row is a golden row;
//   double-orchestrate  a second orchestrator on a live lease is refused.
//
// Exit code 0 = the scenario passed; 1 = a violated invariant or a rule
// that never fired; 2 = usage or setup error.
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "campaign/orchestrator.hpp"
#include "campaign/spec.hpp"
#include "core/system_runner.hpp"
#include "metrics/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rundb/store.hpp"
#include "util/csv.hpp"
#include "util/faultfs.hpp"
#include "util/fsio.hpp"
#include "util/pidlock.hpp"
#include "util/strings.hpp"
#include "workflow/montage.hpp"
#include "workload/models.hpp"

namespace {

using namespace dc;
namespace fs = std::filesystem;

constexpr int kTypedFailure = 3;
constexpr int kSetupFailure = 4;

// --- one fork, one golden compare --------------------------------------------

/// Runs `body` in a forked child, which exits with its return value.
/// Returns that exit code, or -signal when a signal ended the child.
int fork_and_wait(const std::function<int()>& body) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return kSetupFailure;
  }
  if (pid == 0) _exit(body());
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (WIFEXITED(wstatus)) return WEXITSTATUS(wstatus);
  return WIFSIGNALED(wstatus) ? -WTERMSIG(wstatus) : kSetupFailure;
}

/// A pass's artifacts: path relative to its directory -> bytes.
using Artifacts = std::map<std::string, std::string>;

/// The names of the files directly in `dir` that end with `suffix`, or
/// none when the suffix is empty.
std::set<std::string> suffixed_files(const std::string& dir,
                                     std::string_view suffix) {
  std::set<std::string> names;
  if (suffix.empty()) return names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      names.insert(name);
    }
  }
  return names;
}

/// The files `names` of `dir`, and every file there ending with `suffix`.
bool capture(const std::string& dir, const std::vector<std::string>& names,
             std::string_view suffix, Artifacts* out) {
  std::vector<std::string> all = names;
  for (const std::string& name : suffixed_files(dir, suffix)) {
    all.push_back(name);
  }
  for (const std::string& name : all) {
    auto bytes = read_file(dir + "/" + name);
    if (!bytes.is_ok()) return false;
    (*out)[name] = std::move(*bytes);
  }
  return true;
}

/// Fails on the leftovers of an interrupted atomic write under `dir`.
bool no_debris(const std::string& label, const std::string& dir) {
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    for (const std::string_view suffix : {".tmp", ".partial"}) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
        std::fprintf(stderr, "[%s] FAIL: filesystem debris: %s\n",
                     label.c_str(), it->path().c_str());
        return false;
      }
    }
  }
  return true;
}

/// The check every drilled pass ends with: no debris under `dir`, each
/// golden artifact byte-identical there, and no file ending with `suffix`
/// that the golden pass did not leave.
bool matches_golden(const std::string& label, const std::string& dir,
                    const Artifacts& golden, std::string_view suffix = {}) {
  if (!no_debris(label, dir)) return false;
  for (const std::string& name : suffixed_files(dir, suffix)) {
    if (golden.count(name) == 0) {
      std::fprintf(stderr, "[%s] FAIL: %s is not among the golden artifacts\n",
                   label.c_str(), name.c_str());
      return false;
    }
  }
  for (const auto& [name, bytes] : golden) {
    auto actual = read_file(dir + "/" + name);
    if (!actual.is_ok() || *actual != bytes) {
      std::fprintf(stderr, "[%s] FAIL: %s %s\n", label.c_str(), name.c_str(),
                   actual.is_ok() ? "diverges from the golden bytes"
                                  : "is missing");
      return false;
    }
  }
  return true;
}

// --- I/O fault probes --------------------------------------------------------

int pass_exit(const Status& st) {
  if (st.is_ok()) return 0;
  std::fprintf(stderr, "drill pass: %s\n", st.to_string().c_str());
  return kTypedFailure;
}

/// An I/O scenario. `run` makes one pass inside a forked child, writing
/// artifacts under `art` and scratch files under `ctrl`; `resume` is set
/// on a recovery pass. It returns 0, kTypedFailure or kSetupFailure. The
/// artifacts are the files `artifacts` names and every file of the golden
/// pass ending with `artifact_suffix`.
struct IoScenario {
  std::string name;
  std::vector<std::string> artifacts;
  std::function<int(const std::string& art, const std::string& ctrl,
                    bool resume)>
      run;
  std::string artifact_suffix;
};

/// A plan that must crash a pass, after which the recovery must land on
/// golden. With `extra_renames` >= 0, the crashed and recovered passes
/// together make exactly that many snapshot.save renames more than golden.
struct ComposedPlan {
  const char* name;
  const char* plan;
  int extra_renames;
};

/// A probe's artifact directory and its control directory (fault trace,
/// `once` markers, scratch files), both under `base`.
struct ProbeDirs {
  std::string base;
  std::string art;
  std::string ctrl;
};

ProbeDirs fresh_dirs(const std::string& workdir, std::string name) {
  for (char& c : name) {
    if (c == '/' || c == '*' || c == ' ' || c == '=' || c == ':') c = '_';
  }
  const std::string base = workdir + "/" + name;
  fs::remove_all(base);
  fs::create_directories(base + "/art");
  fs::create_directories(base + "/ctrl/markers");
  return {base, base + "/art", base + "/ctrl"};
}

/// One pass of `scenario` in a child that traces every hooked I/O op into
/// ctrl/fault_trace.log, with `plan` installed unless it is empty.
int spawn_pass(const IoScenario& scenario, const ProbeDirs& dirs,
               const std::string& plan, bool resume) {
  return fork_and_wait([&] {
    if (!plan.empty()) {
      auto parsed = faultfs::parse_fault_plan(plan);
      if (!parsed.is_ok()) {
        std::fprintf(stderr, "drill: bad plan: %s\n",
                     parsed.status().to_string().c_str());
        return kSetupFailure;
      }
      faultfs::install_plan(std::move(*parsed));
      faultfs::set_marker_dir(dirs.ctrl + "/markers");
    }
    faultfs::set_trace_path(dirs.ctrl + "/fault_trace.log");
    return scenario.run(dirs.art, dirs.ctrl, resume);
  });
}

/// The fault trace of every pass made in `dirs` so far (the trace file is
/// opened for append, so a recovery pass adds to its crashed pass's lines).
std::string fault_trace(const ProbeDirs& dirs) {
  auto trace = read_file(dirs.ctrl + "/fault_trace.log");
  return trace.is_ok() ? std::move(*trace) : std::string();
}

std::size_t count_lines(const std::string& text, std::string_view prefix) {
  std::size_t count = 0;
  for (const std::string_view line : split_char(text, '\n')) {
    if (starts_with(line, prefix)) ++count;
  }
  return count;
}

constexpr std::string_view kSnapshotRename = "HIT snapshot.save rename ";

/// The fault classes probed per op. Each (site, op) pair gets one class,
/// round-robin across the sites that expose the op, so every class is
/// exercised somewhere without running the full cross product.
const std::vector<std::string>& faults_for(const std::string& op) {
  static const std::map<std::string, std::vector<std::string>> kFaults = {
      {"open", {"fault=eio", "fault=crash"}},
      {"write", {"fault=eio", "fault=short bytes=1", "fault=torn bytes=1"}},
      {"fsync", {"fault=enospc", "fault=crash-after"}},
      {"rename", {"fault=eio", "fault=crash", "fault=crash-after"}},
      {"close", {"fault=eio"}},
  };
  static const std::vector<std::string> kNone;
  const auto it = kFaults.find(op);
  return it == kFaults.end() ? kNone : it->second;
}

/// Runs `plan` against `scenario` and holds the recovery invariant. A
/// composed plan (`must_crash`) must crash the first pass; `want_renames`
/// >= 0 pins the snapshot renames of the crashed and recovered passes.
/// Returns 0 on a pass, 1 on a violation. Only a failed probe keeps its
/// directory: a campaign probe's is tens of MB.
int probe(const IoScenario& scenario, const std::string& workdir,
          const std::string& name, const std::string& plan, bool must_crash,
          long want_renames, const Artifacts& golden) {
  const std::string label = scenario.name + "/" + name;
  const ProbeDirs dirs = fresh_dirs(workdir, name);
  const int code = spawn_pass(scenario, dirs, plan, false);
  if (count_lines(fault_trace(dirs), "FIRED ") == 0) {
    std::fprintf(stderr,
                 "[%s] FAIL: the rule never fired (site unreachable or "
                 "marker setup broken)\n",
                 label.c_str());
    return 1;
  }
  if (code == 0 && !must_crash) {
    if (!matches_golden(label, dirs.art, golden, scenario.artifact_suffix)) {
      return 1;
    }
    std::fprintf(stderr, "[%s] absorbed; golden\n", label.c_str());
    fs::remove_all(dirs.base);
    return 0;
  }
  if (code == kTypedFailure && !must_crash) {
    // A typed error must leave no debris even before any recovery.
    if (!no_debris(label + " typed error", dirs.art)) return 1;
  } else if (code != faultfs::kCrashExitCode) {
    std::fprintf(stderr, "[%s] FAIL: unexpected exit %d\n", label.c_str(),
                 code);
    return 1;
  }
  // Recovery: same plan, same markers (the rule is already claimed), with
  // resume on. It must complete and land on the golden bytes.
  const int recovered = spawn_pass(scenario, dirs, plan, true);
  if (recovered != 0) {
    std::fprintf(stderr, "[%s] FAIL: recovery pass exited %d\n",
                 label.c_str(), recovered);
    return 1;
  }
  if (!matches_golden(label, dirs.art, golden, scenario.artifact_suffix)) {
    return 1;
  }
  if (want_renames >= 0) {
    const std::size_t renames = count_lines(fault_trace(dirs), kSnapshotRename);
    if (renames != static_cast<std::size_t>(want_renames)) {
      std::fprintf(stderr,
                   "[%s] FAIL: the crashed and recovered passes renamed %zu "
                   "snapshot(s), want %ld: the recovery did not resume from "
                   "the snapshot it should have\n",
                   label.c_str(), renames, want_renames);
      return 1;
    }
  }
  std::fprintf(stderr, "[%s] %s; recovered to golden\n", label.c_str(),
               code == kTypedFailure ? "typed error" : "crash");
  fs::remove_all(dirs.base);
  return 0;
}

/// The golden pass, one probe per discovered (site, op) pair, then the
/// composed plans. Returns the number of failed probes.
int drill_io(const IoScenario& scenario,
             const std::vector<ComposedPlan>& composed,
             const std::string& workdir) {
  const ProbeDirs dirs = fresh_dirs(workdir, "golden");
  const int code = spawn_pass(scenario, dirs, "", false);
  Artifacts golden;
  if (code != 0 || !capture(dirs.art, scenario.artifacts,
                            scenario.artifact_suffix, &golden)) {
    std::fprintf(stderr,
                 "[%s/golden] FAIL: the uninterrupted pass exited %d or left "
                 "no artifacts\n",
                 scenario.name.c_str(), code);
    return 1;
  }
  const std::string trace = fault_trace(dirs);
  std::set<std::pair<std::string, std::string>> pairs;
  for (const std::string_view line : split_char(trace, '\n')) {
    const std::vector<std::string_view> words = split_ws(line);
    if (words.size() >= 3 && words[0] == "HIT") {
      pairs.emplace(words[1], words[2]);
    }
  }
  std::fprintf(stderr, "[%s/golden] %zu I/O site/op pair(s) discovered\n",
               scenario.name.c_str(), pairs.size());
  if (pairs.empty()) {
    std::fprintf(stderr,
                 "[%s/golden] FAIL: a pass with no hooked I/O means the "
                 "seams are unplugged\n",
                 scenario.name.c_str());
    return 1;
  }

  int failures = 0;
  std::map<std::string, std::size_t> round_robin;
  for (const auto& [site, op] : pairs) {
    const std::vector<std::string>& classes = faults_for(op);
    if (classes.empty()) continue;
    const std::string& fault = classes[round_robin[op]++ % classes.size()];
    failures += probe(scenario, workdir,
                      site + ":" + op + ":" + fault.substr(fault.find('=') + 1),
                      "site=" + site + " op=" + op + " nth=1 " + fault +
                          " once",
                      false, -1, golden);
  }
  const long golden_renames =
      static_cast<long>(count_lines(trace, kSnapshotRename));
  for (const ComposedPlan& plan : composed) {
    failures += probe(
        scenario, workdir, plan.name, plan.plan, true,
        plan.extra_renames < 0 ? -1 : golden_renames + plan.extra_renames,
        golden);
  }
  if (failures == 0) fs::remove_all(dirs.base);
  return failures;
}

// --- the passes the I/O scenarios make ---------------------------------------

/// The snapshot scenarios' workload: a 2-day synthetic HTC trace and a
/// 20-input Montage workflow.
core::ConsolidationWorkload faulted_workload() {
  workload::SyntheticTraceSpec trace_spec;
  trace_spec.name = "crash";
  trace_spec.capacity_nodes = 32;
  trace_spec.period = 2 * kDay;
  trace_spec.submit_margin = 2 * kHour;
  trace_spec.jobs_per_day = 150;
  trace_spec.width_weights = {
      {1, 0.4}, {2, 0.3}, {4, 0.2}, {8, 0.08}, {32, 0.02}};
  trace_spec.hyper_p = 0.9;
  trace_spec.hyper_mean1 = 500;
  trace_spec.hyper_mean2 = 4000;

  core::HtcWorkloadSpec htc;
  htc.name = "crash";
  htc.trace = workload::generate_trace(trace_spec, /*seed=*/17);
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

/// Node failures every 3 h on average, repaired in 30 min.
core::RunOptions faulted_options() {
  core::RunOptions options;
  core::fault::FaultDomain::Config faults;
  faults.mean_time_between_failures = 3 * kHour;
  faults.mean_time_to_repair = 30 * kMinute;
  faults.seed = 20090814;
  options.faults = faults;
  return options;
}

int snapshot_pass(core::SystemModel model, const std::string& art,
                  const std::string& ctrl, bool resume) {
  core::SnapshotPolicy policy;
  policy.every = 12 * kHour;
  policy.dir = art;
  policy.resume = resume;
  auto result = core::run_system_snapshotted(model, faulted_workload(),
                                             faulted_options(), policy);
  if (!result.is_ok()) return pass_exit(result.status());
  // The raw CSV goes to the control tree; only its atomic copy lands among
  // the artifacts, where the drill looks for debris.
  const std::string scratch = ctrl + "/scratch.csv";
  {
    CsvWriter csv(scratch);
    if (!csv.ok()) return kSetupFailure;
    metrics::write_results_csv(csv, {*result});
  }
  auto bytes = read_file(scratch);
  if (!bytes.is_ok()) return pass_exit(bytes.status());
  return pass_exit(
      atomic_write_file(art + "/result.csv", *bytes, "run.result"));
}

int exports_pass(const std::string& art) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 16; ++i) {
    registry.sample(i * kMinute, "drill.queue_depth", 1.5 * i);
  }
  obs::TraceSink sink;
  for (int i = 0; i < 8; ++i) {
    sink.instant(i * kMinute, obs::TraceCategory::kKernel, "drill.tick",
                 "drill", i);
    sink.span(i * kMinute, 30, obs::TraceCategory::kJob, "drill.window",
              "drill", i, 2 * i);
  }
  if (Status st = registry.export_timeseries_csv(art + "/metrics.csv");
      !st.is_ok()) {
    return pass_exit(st);
  }
  if (Status st = sink.export_chrome_json(art + "/trace.json"); !st.is_ok()) {
    return pass_exit(st);
  }
  return pass_exit(sink.export_csv(art + "/trace.csv"));
}

// --- campaigns ---------------------------------------------------------------

const std::vector<std::string> kCampaignArtifacts = {
    "results.csv", "results.json", rundb::store_data_path("rundb")};

campaign::OrchestratorConfig campaign_config(const std::string& dir,
                                             int workers) {
  campaign::OrchestratorConfig config;
  config.campaign_dir = dir;
  config.workers = workers;
  config.max_attempts = 3;
  config.backoff_base_ms = 10;
  config.backoff_cap_ms = 50;
  // The supervision tick does no hooked I/O (heartbeats are read with
  // ifstream), so a short tick shortens every pass without moving a probe.
  config.poll_interval_ms = 1;
  return config;
}

/// Whether `report` is a campaign that finished with every cell done.
bool completed(const std::string& label,
               const StatusOr<campaign::CampaignReport>& report) {
  if (!report.is_ok()) {
    std::fprintf(stderr, "[%s] campaign errored: %s\n", label.c_str(),
                 report.status().to_string().c_str());
    return false;
  }
  if (report->quarantined != 0 || report->done != report->total_cells) {
    std::fprintf(stderr,
                 "[%s] campaign quarantined %llu of %llu cell(s): a "
                 "transient fault must not exhaust the retry budget\n",
                 label.c_str(),
                 static_cast<unsigned long long>(report->quarantined),
                 static_cast<unsigned long long>(report->total_cells));
    return false;
  }
  return true;
}

int kill_orchestrator(const campaign::SweepSpec& spec, const std::string& dir,
                      const Artifacts& golden) {
  const std::string label = "kill-orchestrator";
  const int code = fork_and_wait([&] {
    campaign::OrchestratorConfig config = campaign_config(dir, 2);
    config.drill = campaign::DrillMode::kKillOrchestrator;
    config.drill_after = 1;
    auto report = campaign::run_campaign(spec, config);
    // The drill raises SIGKILL before run_campaign can return.
    std::fprintf(stderr, "[%s] the orchestrator was not killed (%s)\n",
                 label.c_str(),
                 report.is_ok() ? "completed"
                                : report.status().message().c_str());
    return 7;
  });
  if (code != -SIGKILL) {
    std::fprintf(stderr,
                 "[%s] FAIL: the orchestrator did not die by SIGKILL "
                 "mid-campaign\n",
                 label.c_str());
    return 1;
  }
  if (auto folded = campaign::fold_campaign_journal(dir); !folded.is_ok()) {
    std::fprintf(stderr, "[%s] FAIL: journal unreadable after the kill: %s\n",
                 label.c_str(), folded.status().to_string().c_str());
    return 1;
  }
  campaign::OrchestratorConfig config = campaign_config(dir, 2);
  config.resume = true;
  auto report = campaign::run_campaign(spec, config);
  if (!completed(label, report)) return 1;
  if (report->verified_skipped < 1) {
    std::fprintf(stderr,
                 "[%s] FAIL: the resume re-ran the completed cell instead "
                 "of verifying its artifact digest\n",
                 label.c_str());
    return 1;
  }
  std::fprintf(stderr, "[%s] resumed: %llu cell(s) verified-skipped\n",
               label.c_str(),
               static_cast<unsigned long long>(report->verified_skipped));
  return matches_golden(label, dir, golden) ? 0 : 1;
}

int poison_cell(const campaign::SweepSpec& spec, const std::string& dir,
                const Artifacts& golden) {
  const std::string label = "poison-cell";
  campaign::OrchestratorConfig config = campaign_config(dir, 2);
  config.drill = campaign::DrillMode::kPoisonCell;
  config.drill_cell = 1;
  config.max_attempts = 2;
  auto report = campaign::run_campaign(spec, config);
  if (!report.is_ok() || report->quarantined != 1 ||
      report->done != report->total_cells - 1) {
    std::fprintf(stderr, "[%s] FAIL: expected exactly one quarantined cell\n",
                 label.c_str());
    return 1;
  }
  bool reported = false;
  for (const campaign::CellOutcome& outcome : report->outcomes) {
    if (outcome.cell != config.drill_cell) continue;
    reported = outcome.state == campaign::CellState::kQuarantined &&
               !outcome.reason.empty();
  }
  if (!reported) {
    std::fprintf(stderr,
                 "[%s] FAIL: quarantined cell missing from the report\n",
                 label.c_str());
    return 1;
  }
  // The healthy cells' merged rows are golden rows; the poisoned cell
  // contributes none.
  const std::string& golden_csv = golden.at("results.csv");
  const std::vector<std::string_view> golden_rows =
      split_char(golden_csv, '\n');
  const std::set<std::string_view> known(golden_rows.begin(),
                                         golden_rows.end());
  auto csv = read_file(campaign::campaign_results_csv_path(dir));
  bool rows_ok = csv.is_ok() && *csv != golden_csv;
  if (rows_ok) {
    for (const std::string_view row : split_char(*csv, '\n')) {
      rows_ok = rows_ok && known.count(row) > 0;
    }
  }
  if (!rows_ok || !no_debris(label, dir)) {
    std::fprintf(stderr,
                 "[%s] FAIL: the merged rows are not the healthy cells' "
                 "golden rows\n",
                 label.c_str());
    return 1;
  }
  std::fprintf(stderr, "[%s] cell quarantined and reported; campaign done\n",
               label.c_str());
  return 0;
}

int double_orchestrate(const campaign::SweepSpec& spec,
                       const std::string& dir) {
  const std::string label = "double-orchestrate";
  fs::create_directories(dir);
  // Hold the lease ourselves (our own pid is alive by definition); a
  // second orchestrator must refuse to run.
  auto lease = PidLease::acquire(campaign::campaign_lock_path(dir),
                                 campaign::campaign_lease_wording());
  if (!lease.is_ok()) {
    std::fprintf(stderr, "[%s] setup: %s\n", label.c_str(),
                 lease.status().to_string().c_str());
    return 2;
  }
  auto report = campaign::run_campaign(spec, campaign_config(dir, 2));
  if (report.is_ok() ||
      report.status().message().find("already being orchestrated") ==
          std::string::npos) {
    std::fprintf(stderr,
                 "[%s] FAIL: a second orchestrator was not refused by the "
                 "live lease (%s)\n",
                 label.c_str(),
                 report.is_ok() ? "it ran"
                                : report.status().to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "[%s] second orchestrator refused\n", label.c_str());
  return 0;
}

/// kill-worker or hang-worker: the retried cell must land on golden.
int worker_death(const campaign::SweepSpec& spec, const std::string& label,
                 const std::string& dir, const Artifacts& golden) {
  campaign::OrchestratorConfig config = campaign_config(dir, 2);
  config.drill = label == "kill-worker" ? campaign::DrillMode::kKillWorker
                                        : campaign::DrillMode::kHangWorker;
  config.drill_cell = 1;
  if (config.drill == campaign::DrillMode::kHangWorker) {
    config.heartbeat_timeout_ms = 1500;
  }
  if (!completed(label, campaign::run_campaign(spec, config))) return 1;
  std::fprintf(stderr, "[%s] the campaign absorbed the worker's death\n",
               label.c_str());
  return matches_golden(label, dir, golden) ? 0 : 1;
}

/// Runs one campaign self-drill in `workdir/<scenario>` against a golden
/// campaign in `workdir/golden`.
int drill_campaign(const std::string& scenario, const campaign::SweepSpec& spec,
                   const std::string& workdir) {
  const std::string dir = workdir + "/" + scenario;
  fs::remove_all(dir);
  if (scenario == "double-orchestrate") return double_orchestrate(spec, dir);

  const std::string golden_dir = workdir + "/golden";
  fs::remove_all(golden_dir);
  Artifacts golden;
  if (!completed("golden", campaign::run_campaign(
                               spec, campaign_config(golden_dir, 2))) ||
      !capture(golden_dir, kCampaignArtifacts, {}, &golden)) {
    std::fputs("[golden] FAIL: no golden campaign\n", stderr);
    return 1;
  }
  int failed = 0;
  if (scenario == "kill-orchestrator") {
    failed = kill_orchestrator(spec, dir, golden);
  } else if (scenario == "poison-cell") {
    failed = poison_cell(spec, dir, golden);
  } else {
    failed = worker_death(spec, scenario, dir, golden);
  }
  // A campaign is tens of MB: only a failed drill keeps its directories.
  if (failed == 0) {
    fs::remove_all(dir);
    fs::remove_all(golden_dir);
  }
  return failed;
}

int usage() {
  std::fputs(
      "usage: drill SCENARIO --workdir DIR [--spec FILE]\n"
      "  SCENARIO: snapshot-dcs | snapshot-ssp | snapshot-drp |\n"
      "            snapshot-dawningcloud | exports, or, with --spec:\n"
      "            campaign-io | kill-orchestrator | kill-worker |\n"
      "            hang-worker | poison-cell | double-orchestrate\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string scenario = argv[1];
  std::string workdir;
  std::string spec_path;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 == argc) return usage();
    if (std::strcmp(argv[i], "--workdir") == 0) {
      workdir = argv[i + 1];
    } else if (std::strcmp(argv[i], "--spec") == 0) {
      spec_path = argv[i + 1];
    } else {
      return usage();
    }
  }
  if (workdir.empty()) return usage();
  std::error_code ec;
  fs::create_directories(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "drill: cannot create '%s': %s\n", workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  const std::map<std::string, core::SystemModel> snapshot_scenarios = {
      {"snapshot-dcs", core::SystemModel::kDcs},
      {"snapshot-ssp", core::SystemModel::kSsp},
      {"snapshot-drp", core::SystemModel::kDrp},
      {"snapshot-dawningcloud", core::SystemModel::kDawningCloud},
  };
  const std::set<std::string> campaign_drills = {
      "kill-orchestrator", "kill-worker", "hang-worker", "poison-cell",
      "double-orchestrate"};

  int failures = 0;
  if (const auto it = snapshot_scenarios.find(scenario);
      it != snapshot_scenarios.end()) {
    const core::SystemModel model = it->second;
    failures = drill_io(
        {scenario, {"result.csv"},
         [model](const std::string& art, const std::string& ctrl,
                 bool resume) {
           return snapshot_pass(model, art, ctrl, resume);
         },
         ".dcsnap"},
        {{"kill-after-2",
          "site=snapshot.save op=rename nth=2 fault=crash-after once", 0},
         {"trunc-snapshot",
          "site=snapshot.save op=rename nth=2 fault=trunc bytes=64 once; "
          "site=snapshot.save op=open nth=3 fault=crash once",
          1}},
        workdir);
  } else if (scenario == "exports") {
    failures = drill_io(
        {scenario, {"metrics.csv", "trace.json", "trace.csv"},
         [](const std::string& art, const std::string&, bool) {
           return exports_pass(art);
         },
         ""},
        {}, workdir);
  } else if (scenario == "campaign-io" || campaign_drills.count(scenario)) {
    if (spec_path.empty()) return usage();
    auto spec = campaign::read_sweep_spec(spec_path);
    if (!spec.is_ok()) {
      std::fprintf(stderr, "drill: %s\n", spec.status().to_string().c_str());
      return 2;
    }
    if (scenario != "campaign-io") {
      failures = drill_campaign(scenario, *spec, workdir);
    } else {
      // One quantum: every probe re-runs the whole campaign.
      if (Status st = campaign::apply_spec_overrides(*spec, "quantum=15m");
          !st.is_ok()) {
        std::fprintf(stderr, "drill: %s\n", st.to_string().c_str());
        return 2;
      }
      failures = drill_io(
          {scenario, kCampaignArtifacts,
           [&spec](const std::string& art, const std::string&, bool resume) {
             campaign::OrchestratorConfig config = campaign_config(art, 1);
             config.resume = resume;
             return completed("campaign-io pass",
                              campaign::run_campaign(*spec, config))
                        ? 0
                        : kTypedFailure;
           },
           ""},
          {{"torn-journal",
            "site=campaign.journal.append op=write nth=5 fault=torn bytes=2 "
            "once",
            -1}},
          workdir);
    }
  } else {
    return usage();
  }
  if (failures == 0) {
    std::fprintf(stderr, "drill %s: passed\n", scenario.c_str());
  }
  return failures == 0 ? 0 : 1;
}
