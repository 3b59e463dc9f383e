// dawningcloud: the unified command-line driver.
//
//   dawningcloud run --config FILE [--system all|dcs|ssp|drp|dawningcloud]
//                    [--csv PATH] [--quantum SECONDS]
//                    [--scheduler first-fit|easy-backfill|conservative-backfill|sjf]
//                    [--capacity NODES] [--setup SECONDS]
//                    [--mttf DURATION --mttr DURATION [--fault-seed N]]
//                    [--snapshot-every DURATION --snapshot-dir DIR]
//                    [--resume auto | --resume-from FILE]
//   dawningcloud tune --config FILE --provider NAME [--tolerance FRACTION]
//   dawningcloud describe --config FILE
//   dawningcloud trace-stats --swf FILE
//   dawningcloud snapshot-diff --golden FILE --other FILE
//   dawningcloud trace-summary --trace FILE [--other FILE]
//   dawningcloud sweep run --spec FILE --dir DIR [--workers N] [--resume]
//   dawningcloud sweep report --dir DIR
//
// `sweep` is the crash-resilient campaign orchestrator: it expands a
// declarative parameter grid into cells, runs them under supervised
// worker subprocesses with a journaled state machine, and survives
// SIGKILL of the orchestrator at any instant — a `--resume` invocation
// re-runs only incomplete cells and produces byte-identical merged
// results. See docs/SWEEP.md.
//
// Observability (docs/OBSERVABILITY.md): `run` takes --trace-out FILE
// (Chrome trace JSON, or CSV when FILE ends in .csv), --trace-filter
// CATEGORIES, --metrics-every DURATION with --metrics-out FILE, and
// --profile — all single-system only, since sinks are per run.
//
// Every subcommand refuses a flag it does not accept (exit 2, naming the
// flag), so a typo never silently runs the defaults. The world flags
// (--system ... --fault-seed) are read by core::parse_run_settings, the
// reader a `dc sweep` cell's axes go through.
//
// Experiment config files use the Section 2.2 requirement description
// model; see data/paper_experiment.dcfg. Snapshot/resume semantics are
// documented in docs/SNAPSHOT.md.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/orchestrator.hpp"
#include "campaign/spec.hpp"
#include "core/description.hpp"
#include "core/system_runner.hpp"
#include "core/systems.hpp"
#include "core/tuning.hpp"
#include "metrics/report.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "rundb/replay.hpp"
#include "rundb/report.hpp"
#include "rundb/store.hpp"
#include "snapshot/format.hpp"
#include "util/faultfs.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "workload/swf.hpp"
#include "workload/trace_stats.hpp"

namespace {

using namespace dc;

int usage() {
  std::fputs(
      "usage: dawningcloud <run|tune|describe|trace-stats|snapshot-diff"
      "|trace-summary|sweep|replay|report> [options]\n"
      "  run         --config FILE [--system NAME] [--csv PATH]\n"
      "              [--quantum SECONDS] [--scheduler NAME]\n"
      "              [--capacity NODES] [--setup SECONDS]\n"
      "              [--mttf DURATION --mttr DURATION [--fault-seed N]]\n"
      "              [--snapshot-every DURATION --snapshot-dir DIR]\n"
      "              [--resume auto | --resume-from FILE]\n"
      "              [--trace-out FILE [--trace-filter CATEGORIES]]\n"
      "              [--metrics-every DURATION --metrics-out FILE]\n"
      "              [--profile] [--db DIR]\n"
      "  tune        --config FILE --provider NAME [--tolerance FRACTION]\n"
      "  describe    --config FILE\n"
      "  trace-stats --swf FILE\n"
      "  snapshot-diff --golden FILE --other FILE\n"
      "  trace-summary --trace FILE [--other FILE]\n"
      "  sweep run    --spec FILE --dir DIR [--set KEY=V1,V2;...]\n"
      "               [--workers N] [--max-attempts N] [--resume]\n"
      "               [--heartbeat-timeout-ms N] [--poll-ms N]\n"
      "               [--backoff-ms N] [--backoff-cap-ms N]\n"
      "  sweep report --dir DIR\n"
      "  replay list   --snapshot-dir DIR --system NAME\n"
      "  replay window --config FILE --system NAME\n"
      "                (--snapshot FILE | --snapshot-dir DIR --from T)\n"
      "                [--until T] [--trace-out FILE] [--trace-filter CATS]\n"
      "                [--trace-capacity N] [world flags as for `run`]\n"
      "  replay bisect --golden-dir DIR --other-dir DIR --system NAME\n"
      "                [--golden-trace FILE --other-trace FILE]\n"
      "  report query   --db DIR [--kind K] [--source S] [--label L]\n"
      "                 [--where k=v,k=v] [--select m1,m2]\n"
      "                 [--format table|csv|json]\n"
      "  report compare --db DIR [--db-b DIR] --a SOURCE --b SOURCE\n"
      "                 [query filters as above]\n",
      stderr);
  return 2;
}

/// The flags a `run --db` registration records as params, in the order
/// it records them. That order fixes the records' run ids, so it is not
/// the canonical core::run_setting_keys() order.
constexpr const char* kRecordedFlags[] = {"config", "quantum",  "scheduler",
                                          "capacity", "setup", "mttf",
                                          "mttr",   "fault-seed"};

/// The flags each subcommand accepts, mirroring usage().
const std::map<std::string, std::vector<std::string>>& accepted_flags() {
  static const auto kTable = [] {
    std::map<std::string, std::vector<std::string>> table = {
        {"run",
         {"config", "csv", "snapshot-every", "snapshot-dir", "resume",
          "resume-from", "trace-out", "trace-filter", "metrics-every",
          "metrics-out", "profile", "db"}},
        {"tune", {"config", "provider", "tolerance"}},
        {"describe", {"config"}},
        {"trace-stats", {"swf"}},
        {"snapshot-diff", {"golden", "other"}},
        {"trace-summary", {"trace", "other"}},
        {"sweep run",
         {"spec", "dir", "set", "workers", "max-attempts", "resume",
          "heartbeat-timeout-ms", "poll-ms", "backoff-ms", "backoff-cap-ms"}},
        {"sweep report", {"dir"}},
        {"replay list", {"snapshot-dir", "system"}},
        {"replay window",
         {"config", "snapshot", "snapshot-dir", "from", "until",
          "trace-out", "trace-filter", "trace-capacity"}},
        {"replay bisect",
         {"golden-dir", "other-dir", "system", "golden-trace",
          "other-trace"}},
        {"report query",
         {"db", "kind", "source", "label", "where", "select", "format"}},
        {"report compare",
         {"db", "db-b", "a", "b", "kind", "source", "label", "where",
          "select", "format"}},
    };
    // Both shape a world with the run vocabulary, `--system` included.
    for (const char* command : {"run", "replay window"}) {
      auto& flags = table[command];
      flags.insert(flags.end(), core::run_setting_keys().begin(),
                   core::run_setting_keys().end());
    }
    return table;
  }();
  return kTable;
}

/// "--key value" pairs after the subcommand. A flag followed by another
/// flag (or the end of the argument list) is bare and maps to "" —
/// `--profile` needs no value.
std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               bool& ok, int start = 2) {
  std::map<std::string, std::string> flags;
  ok = true;
  for (int i = start; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      ok = false;
      return flags;
    }
    const char* key = argv[i] + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "";
    }
  }
  return flags;
}

/// Log::Hook that mirrors every emitted log line into the run's trace as
/// a `log.<LEVEL>` instant (the component becomes the actor track).
void route_log_to_trace(void* ctx, LogLevel level, SimTime now,
                        const char* component, const char* /*message*/) {
  auto* sink = static_cast<obs::TraceSink*>(ctx);
  sink->instant(now, obs::TraceCategory::kLog,
                std::string("log.") + Log::level_name(level), component,
                static_cast<std::int64_t>(level));
}

/// The log hook is process-wide while sinks are per run; the guard keeps
/// it installed exactly for the run's duration on every exit path.
struct ScopedLogHook {
  explicit ScopedLogHook(obs::TraceSink* sink) {
    if (sink != nullptr) Log::set_hook(&route_log_to_trace, sink);
  }
  ~ScopedLogHook() { Log::set_hook(nullptr, nullptr); }
  ScopedLogHook(const ScopedLogHook&) = delete;
  ScopedLogHook& operator=(const ScopedLogHook&) = delete;
};

StatusOr<core::ConsolidationWorkload> load_workload(
    const std::map<std::string, std::string>& flags) {
  auto it = flags.find("config");
  if (it == flags.end()) {
    return Status::invalid_argument("missing --config FILE");
  }
  return core::read_experiment_description(it->second);
}

void print_full_report(const std::vector<core::SystemResult>& results,
                       const core::ConsolidationWorkload& workload) {
  for (const auto& spec : workload.htc) {
    std::puts(metrics::format_htc_provider_table(
                  results, spec.name, "HTC provider: " + spec.name)
                  .c_str());
  }
  for (const auto& spec : workload.mtc) {
    std::puts(metrics::format_mtc_provider_table(
                  results, spec.name, "MTC provider: " + spec.name)
                  .c_str());
  }
  std::puts(metrics::format_resource_provider_report(results).c_str());
  std::puts(metrics::format_overhead_report(results).c_str());
}

/// The run-vocabulary flags given (core::run_setting_keys), read by
/// core::parse_run_settings, the reader a `dc sweep` cell goes through: a
/// replay must rebuild the world the original run had, or restore()
/// refuses the snapshot. `--system all` is left out: it names no model.
/// A refusal is printed as "<command>: <why>".
std::optional<core::RunSettings> parse_world(
    const char* command, const std::map<std::string, std::string>& flags) {
  std::vector<std::pair<std::string, std::string>> given;
  for (const std::string& key : core::run_setting_keys()) {
    const auto it = flags.find(key);
    if (it == flags.end() || (key == "system" && it->second == "all")) {
      continue;
    }
    given.emplace_back(key, it->second);
  }
  auto settings = core::parse_run_settings(given);
  if (!settings.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", command,
                 settings.status().message().c_str());
    return std::nullopt;
  }
  return std::move(*settings);
}

/// The world-shaping flags a run was invoked with, in kRecordedFlags
/// order — the parameter axes a `run --db` registration records. Only
/// flags actually given are recorded (the config file pins the defaults).
std::vector<std::pair<std::string, std::string>> world_params(
    const std::map<std::string, std::string>& flags) {
  std::vector<std::pair<std::string, std::string>> params;
  for (const char* axis : kRecordedFlags) {
    if (auto it = flags.find(axis); it != flags.end()) {
      params.emplace_back(axis, it->second);
    }
  }
  return params;
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  // An output flag without its path is refused before anything runs.
  const std::pair<const char*, const char*> kOutputs[] = {
      {"csv", "a file path"},
      {"db", "a directory"},
      {"metrics-out", "a file path"},
      {"trace-out", "a file path"}};
  for (const auto& [key, what] : kOutputs) {
    if (auto it = flags.find(key); it != flags.end() && it->second.empty()) {
      std::fprintf(stderr, "--%s needs %s\n", key, what);
      return 2;
    }
  }
  // A snapshot directory alone would run without writing or reading a
  // snapshot.
  if (flags.count("snapshot-dir") != 0 && flags.count("snapshot-every") == 0 &&
      flags.count("resume") == 0 && flags.count("resume-from") == 0) {
    std::fputs("--snapshot-dir needs --snapshot-every, --resume or "
               "--resume-from\n",
               stderr);
    return 2;
  }
  auto workload = load_workload(flags);
  if (!workload.is_ok()) {
    std::fprintf(stderr, "%s\n", workload.status().to_string().c_str());
    return 1;
  }
  const auto world = parse_world("run", flags);
  if (!world) return 2;
  core::RunOptions options = world->options;
  const std::optional<core::SystemModel> model = world->model;  // none: all

  core::SnapshotPolicy policy;
  if (auto it = flags.find("snapshot-every"); it != flags.end()) {
    auto every = core::parse_duration(it->second);
    if (!every.is_ok() || *every <= 0) {
      std::fprintf(stderr, "bad --snapshot-every\n");
      return 2;
    }
    policy.every = *every;
  }
  if (auto it = flags.find("snapshot-dir"); it != flags.end()) {
    policy.dir = it->second;
  }
  if (auto it = flags.find("resume-from"); it != flags.end()) {
    policy.resume_from = it->second;
    policy.resume = true;
  }
  if (auto it = flags.find("resume"); it != flags.end()) {
    if (it->second != "auto") {
      std::fprintf(stderr, "--resume only accepts 'auto' (or use "
                           "--resume-from FILE)\n");
      return 2;
    }
    policy.resume = true;
  }
  const bool snapshotting =
      policy.every > 0 || policy.resume || !policy.resume_from.empty();
  if (snapshotting && policy.dir.empty() && policy.resume_from.empty()) {
    std::fprintf(stderr, "snapshot flags need --snapshot-dir DIR\n");
    return 2;
  }
  if (snapshotting && !model) {
    std::fprintf(stderr,
                 "snapshot/resume needs a single --system (not 'all')\n");
    return 2;
  }

  // Observability: sinks are per run, so they need a single system — with
  // --system all four worlds would interleave into one ring.
  obs::TraceSink sink;
  obs::MetricsRegistry registry;
  obs::PhaseProfiler profiler;
  std::string trace_out;
  if (auto it = flags.find("trace-out"); it != flags.end()) {
    trace_out = it->second;
    options.trace = &sink;
  }
  if (auto it = flags.find("trace-filter"); it != flags.end()) {
    if (trace_out.empty()) {
      std::fprintf(stderr, "--trace-filter needs --trace-out FILE\n");
      return 2;
    }
    auto mask = obs::parse_trace_filter(it->second);
    if (!mask.is_ok()) {
      std::fprintf(stderr, "%s\n", mask.status().to_string().c_str());
      return 2;
    }
    sink.set_filter(*mask);
  }
  std::string metrics_out;
  if (auto it = flags.find("metrics-out"); it != flags.end()) {
    metrics_out = it->second;
  }
  if (auto it = flags.find("metrics-every"); it != flags.end()) {
    auto every = core::parse_duration(it->second);
    if (!every.is_ok() || *every <= 0) {
      std::fprintf(stderr, "bad --metrics-every\n");
      return 2;
    }
    if (metrics_out.empty()) {
      std::fprintf(stderr, "--metrics-every needs --metrics-out FILE\n");
      return 2;
    }
    options.metrics = &registry;
    options.metrics_every = *every;
  } else if (!metrics_out.empty()) {
    std::fprintf(stderr, "--metrics-out needs --metrics-every DURATION\n");
    return 2;
  }
  if (flags.count("profile") != 0) options.profile = &profiler;
  const bool observing = options.trace != nullptr ||
                         options.metrics != nullptr ||
                         options.profile != nullptr;
  if (observing && !model) {
    std::fprintf(stderr,
                 "--trace-out/--metrics-every/--profile need a single "
                 "--system (not 'all'): sinks are per run\n");
    return 2;
  }
  ScopedLogHook log_hook(options.trace);

  std::vector<core::SystemResult> results;
  if (!model) {
    results = core::run_all_systems(*workload, options);
  } else {
    if (snapshotting) {
      auto result =
          core::run_system_snapshotted(*model, *workload, options, policy);
      if (!result.is_ok()) {
        std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
        return 1;
      }
      results.push_back(std::move(*result));
    } else {
      results.push_back(core::run_system(*model, *workload, options));
    }
  }

  if (!model) {
    print_full_report(results, *workload);
  } else {
    for (const auto& result : results) {
      for (const auto& provider : result.providers) {
        std::printf(
            "%s/%s: completed %lld, %lld node*hours, peak %lld, "
            "mean wait %.0fs\n",
            system_model_name(result.model), provider.provider.c_str(),
            static_cast<long long>(provider.completed_jobs),
            static_cast<long long>(provider.consumption_node_hours),
            static_cast<long long>(provider.peak_nodes),
            provider.mean_wait_seconds);
      }
    }
  }

  if (auto it = flags.find("csv"); it != flags.end()) {
    CsvWriter csv(it->second);
    if (!csv.ok()) {
      std::fprintf(stderr, "cannot write %s\n", it->second.c_str());
      return 1;
    }
    metrics::write_results_csv(csv, results);
    std::printf("wrote %s\n", it->second.c_str());
  }

  if (!trace_out.empty() || !metrics_out.empty()) {
    auto export_scope = profiler.scope(obs::ProfilePhase::kExport);
    if (!trace_out.empty()) {
      const bool as_csv = trace_out.size() >= 4 &&
                          trace_out.compare(trace_out.size() - 4, 4, ".csv") == 0;
      auto st = as_csv ? sink.export_csv(trace_out)
                       : sink.export_chrome_json(trace_out);
      if (!st.is_ok()) {
        std::fprintf(stderr, "%s\n", st.to_string().c_str());
        return 1;
      }
      std::printf("wrote %s (%llu events, %llu dropped)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(sink.emitted()),
                  static_cast<unsigned long long>(sink.dropped()));
    }
    if (!metrics_out.empty()) {
      if (auto st = registry.export_timeseries_csv(metrics_out); !st.is_ok()) {
        std::fprintf(stderr, "%s\n", st.to_string().c_str());
        return 1;
      }
      std::printf("wrote %s (%zu samples)\n", metrics_out.c_str(),
                  registry.sample_count());
    }
  }
  if (options.profile != nullptr) std::fputs(profiler.table().c_str(), stdout);

  // Run-database registration (docs/OBSERVABILITY.md "Time-travel
  // analysis"): one record per provider row, queryable with `dc report`.
  if (auto it = flags.find("db"); it != flags.end()) {
    const auto params = world_params(flags);
    std::uint64_t trace_events = 0, trace_dropped = 0;
    std::string trace_digest;
    if (options.trace != nullptr) {
      trace_events = sink.emitted();
      trace_dropped = sink.dropped();
      trace_digest =
          str_format("%016llx", static_cast<unsigned long long>(
                                    snapshot::fnv1a(sink.chrome_json())));
    }
    std::vector<rundb::RunRecord> records;
    for (const auto& result : results) {
      auto batch =
          rundb::make_run_records(flags.at("config"), result, params,
                                  trace_events, trace_dropped, trace_digest);
      records.insert(records.end(), batch.begin(), batch.end());
    }
    auto appended = rundb::append_records(it->second, records);
    if (!appended.is_ok()) {
      std::fprintf(stderr, "%s\n", appended.status().to_string().c_str());
      return 1;
    }
    std::printf("registered %llu record(s) into %s (%zu already present)\n",
                static_cast<unsigned long long>(*appended), it->second.c_str(),
                records.size() - static_cast<std::size_t>(*appended));
  }
  return 0;
}

int cmd_tune(const std::map<std::string, std::string>& flags) {
  auto workload = load_workload(flags);
  if (!workload.is_ok()) {
    std::fprintf(stderr, "%s\n", workload.status().to_string().c_str());
    return 1;
  }
  auto provider_it = flags.find("provider");
  if (provider_it == flags.end()) {
    std::fprintf(stderr, "missing --provider NAME\n");
    return 2;
  }
  core::TuningObjective objective;
  if (auto it = flags.find("tolerance"); it != flags.end()) {
    auto tolerance = parse_double(it->second);
    if (!tolerance.is_ok() || !(*tolerance >= 0.0 && *tolerance <= 1.0)) {
      std::fprintf(stderr,
                   "tune: --tolerance wants a fraction in [0, 1], got '%s'\n",
                   it->second.c_str());
      return 2;
    }
    objective.quality_tolerance = *tolerance;
  }
  const std::vector<std::int64_t> b_grid = {5, 10, 20, 40, 60, 80, 120};
  for (const auto& spec : workload->htc) {
    if (spec.name != provider_it->second) continue;
    const auto result =
        core::tune_htc_policy(spec, b_grid, {1.0, 1.2, 1.5, 1.8, 2.0}, objective);
    std::fputs(core::format_tuning_report(spec.name, result).c_str(), stdout);
    return 0;
  }
  for (const auto& spec : workload->mtc) {
    if (spec.name != provider_it->second) continue;
    const auto result =
        core::tune_mtc_policy(spec, b_grid, {2, 4, 8, 12, 16}, objective);
    std::fputs(core::format_tuning_report(spec.name, result).c_str(), stdout);
    return 0;
  }
  std::fprintf(stderr, "no provider named '%s' in the config\n",
               provider_it->second.c_str());
  return 1;
}

int cmd_describe(const std::map<std::string, std::string>& flags) {
  auto workload = load_workload(flags);
  if (!workload.is_ok()) {
    std::fprintf(stderr, "%s\n", workload.status().to_string().c_str());
    return 1;
  }
  std::fputs(core::describe_experiment(*workload).c_str(), stdout);
  return 0;
}

// The divergence auditor: compares two snapshot files record-by-record and
// reports the first diverging component/field plus per-section digests, so
// a nondeterministic resume points straight at the guilty component.
int cmd_snapshot_diff(const std::map<std::string, std::string>& flags) {
  auto golden_it = flags.find("golden");
  auto other_it = flags.find("other");
  if (golden_it == flags.end() || other_it == flags.end()) {
    std::fprintf(stderr, "missing --golden FILE / --other FILE\n");
    return 2;
  }
  std::string report;
  auto same = snapshot::diff_snapshots(golden_it->second, other_it->second,
                                       &report);
  if (!same.is_ok()) {
    std::fprintf(stderr, "%s\n", same.status().to_string().c_str());
    return 2;
  }
  if (*same) {
    std::printf("snapshots are identical\n");
    return 0;
  }
  std::printf("%s\n", report.c_str());
  auto golden_digests = snapshot::section_digests(golden_it->second);
  auto other_digests = snapshot::section_digests(other_it->second);
  if (golden_digests.is_ok() && other_digests.is_ok()) {
    std::printf("diverging sections:\n");
    const std::size_t n =
        std::min(golden_digests->size(), other_digests->size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [name, digest] = (*golden_digests)[i];
      if ((*other_digests)[i].first != name ||
          (*other_digests)[i].second != digest) {
        std::printf("  %s\n", name.c_str());
      }
    }
  }
  return 1;
}

// Per-category counts and span percentiles for one exported trace, or —
// with --other — the first-divergence comparison of two traces (the
// tracing twin of snapshot-diff).
int cmd_trace_summary(const std::map<std::string, std::string>& flags) {
  auto trace_it = flags.find("trace");
  if (trace_it == flags.end() || trace_it->second.empty()) {
    std::fprintf(stderr, "missing --trace FILE\n");
    return 2;
  }
  auto events = obs::read_chrome_trace(trace_it->second);
  if (!events.is_ok()) {
    std::fprintf(stderr, "%s\n", events.status().to_string().c_str());
    return 1;
  }
  // An empty export must refuse, not summarize: a zero-row summary (or a
  // diff of two empty traces) is indistinguishable from "no divergence".
  if (Status st = obs::validate_trace_nonempty(*events, trace_it->second);
      !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 2;
  }
  if (auto other_it = flags.find("other"); other_it != flags.end()) {
    auto other = obs::read_chrome_trace(other_it->second);
    if (!other.is_ok()) {
      std::fprintf(stderr, "%s\n", other.status().to_string().c_str());
      return 1;
    }
    if (Status st = obs::validate_trace_nonempty(*other, other_it->second);
        !st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 2;
    }
    std::string report;
    if (obs::diff_traces(*events, *other, &report)) {
      std::printf("traces are identical (%zu events)\n", events->size());
      return 0;
    }
    std::printf("%s\n", report.c_str());
    return 1;
  }
  std::fputs(obs::summarize_trace(*events).c_str(), stdout);
  return 0;
}

int cmd_trace_stats(const std::map<std::string, std::string>& flags) {
  auto it = flags.find("swf");
  if (it == flags.end()) {
    std::fprintf(stderr, "missing --swf FILE\n");
    return 2;
  }
  auto swf = workload::read_swf_file(it->second);
  if (!swf.is_ok()) {
    std::fprintf(stderr, "%s\n", swf.status().to_string().c_str());
    return 1;
  }
  auto trace = workload::Trace::from_swf(*swf, it->second);
  if (!trace.is_ok()) {
    std::fprintf(stderr, "%s\n", trace.status().to_string().c_str());
    return 1;
  }
  std::fputs(
      workload::format_stats(*trace, workload::compute_stats(*trace)).c_str(),
      stdout);
  return 0;
}

}  // namespace

/// Parses an optional integer flag of `command` in [0, max] into `out`;
/// false (with a message naming the command) on a malformed, negative or
/// too large value.
bool flag_int(const char* command,
              const std::map<std::string, std::string>& flags, const char* key,
              std::int64_t& out,
              std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  const auto it = flags.find(key);
  if (it == flags.end()) return true;
  auto parsed = parse_int(it->second);
  std::string why;
  if (!parsed.is_ok()) {
    why = parsed.status().message();
  } else if (*parsed < 0) {
    why = "negative";
  } else if (*parsed > max) {
    why = "above " + std::to_string(max);
  }
  if (!why.empty()) {
    std::fprintf(stderr, "%s: bad --%s '%s': %s\n", command, key,
                 it->second.c_str(), why.c_str());
    return false;
  }
  out = *parsed;
  return true;
}

int cmd_sweep_run(const std::map<std::string, std::string>& flags) {
  const auto spec_it = flags.find("spec");
  if (spec_it == flags.end()) {
    std::fputs("sweep run: missing --spec FILE\n", stderr);
    return 2;
  }
  auto spec = campaign::read_sweep_spec(spec_it->second);
  if (!spec.is_ok()) {
    std::fprintf(stderr, "%s\n", spec.status().to_string().c_str());
    return 1;
  }
  if (const auto set_it = flags.find("set"); set_it != flags.end()) {
    if (Status st = campaign::apply_spec_overrides(*spec, set_it->second);
        !st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
  }

  campaign::OrchestratorConfig config;
  const auto dir_it = flags.find("dir");
  if (dir_it == flags.end()) {
    std::fputs("sweep run: missing --dir DIR\n", stderr);
    return 2;
  }
  config.campaign_dir = dir_it->second;
  config.resume = flags.count("resume") > 0;

  std::int64_t workers = config.workers;
  std::int64_t max_attempts = config.max_attempts;
  const char* command = "sweep run";
  // The orchestrator counts both in int: refuse what would not fit.
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  if (!flag_int(command, flags, "workers", workers, kIntMax) ||
      !flag_int(command, flags, "max-attempts", max_attempts, kIntMax) ||
      !flag_int(command, flags, "heartbeat-timeout-ms",
                config.heartbeat_timeout_ms) ||
      !flag_int(command, flags, "poll-ms", config.poll_interval_ms) ||
      !flag_int(command, flags, "backoff-ms", config.backoff_base_ms) ||
      !flag_int(command, flags, "backoff-cap-ms", config.backoff_cap_ms)) {
    return 2;
  }
  config.workers = static_cast<int>(workers);
  config.max_attempts = static_cast<int>(max_attempts);

  auto report = campaign::run_campaign(*spec, config);
  if (!report.is_ok()) {
    std::fprintf(stderr, "%s\n", report.status().to_string().c_str());
    return 1;
  }
  std::printf(
      "campaign complete: %llu/%llu cells done (%llu verified-skipped on "
      "resume), %llu quarantined\n",
      static_cast<unsigned long long>(report->done),
      static_cast<unsigned long long>(report->total_cells),
      static_cast<unsigned long long>(report->verified_skipped),
      static_cast<unsigned long long>(report->quarantined));
  for (const auto& outcome : report->outcomes) {
    if (outcome.state != campaign::CellState::kQuarantined) continue;
    std::printf("  quarantined cell %llu (%s): %s\n",
                static_cast<unsigned long long>(outcome.cell),
                outcome.key.c_str(), outcome.reason.c_str());
  }
  std::printf("results: %s\n         %s\n", report->results_csv_path.c_str(),
              report->results_json_path.c_str());
  // 0 = every cell done; 3 = completed but with quarantined cells (the
  // campaign itself never aborts on a bad cell).
  return report->quarantined == 0 ? 0 : 3;
}

int cmd_sweep_report(const std::map<std::string, std::string>& flags) {
  const auto dir_it = flags.find("dir");
  if (dir_it == flags.end()) {
    std::fputs("sweep report: missing --dir DIR\n", stderr);
    return 2;
  }
  auto status = campaign::fold_campaign_journal(dir_it->second);
  if (!status.is_ok()) {
    std::fprintf(stderr, "%s\n", status.status().to_string().c_str());
    return 1;
  }
  std::fputs(campaign::format_campaign_status(*status).c_str(), stdout);
  return 0;
}

/// Required --system NAME (single model — replays restore one world).
bool replay_system(const std::map<std::string, std::string>& flags,
                   core::SystemModel& model) {
  const auto it = flags.find("system");
  auto parsed = core::parse_system_model(it == flags.end() ? "" : it->second);
  if (!parsed.is_ok()) {
    std::fputs("replay: need --system dcs|ssp|drp|dawningcloud (a replay "
               "restores exactly one world)\n",
               stderr);
    return false;
  }
  model = *parsed;
  return true;
}

int cmd_replay_list(const std::map<std::string, std::string>& flags) {
  core::SystemModel model;
  if (!replay_system(flags, model)) return 2;
  const auto dir_it = flags.find("snapshot-dir");
  if (dir_it == flags.end()) {
    std::fputs("replay list: missing --snapshot-dir DIR\n", stderr);
    return 2;
  }
  auto boundaries = core::list_snapshot_boundaries(dir_it->second, model);
  if (!boundaries.is_ok()) {
    std::fprintf(stderr, "%s\n", boundaries.status().to_string().c_str());
    return 1;
  }
  for (const auto& boundary : *boundaries) {
    std::printf("t=%lld  %s\n", static_cast<long long>(boundary.time),
                boundary.path.c_str());
  }
  std::printf("%zu snapshot boundar%s\n", boundaries->size(),
              boundaries->size() == 1 ? "y" : "ies");
  return 0;
}

int cmd_replay_window(const std::map<std::string, std::string>& flags) {
  if (auto it = flags.find("trace-out");
      it != flags.end() && it->second.empty()) {
    std::fputs("replay window: --trace-out needs a file path\n", stderr);
    return 2;
  }
  auto workload = load_workload(flags);
  if (!workload.is_ok()) {
    std::fprintf(stderr, "%s\n", workload.status().to_string().c_str());
    return 1;
  }
  core::SystemModel model;
  if (!replay_system(flags, model)) return 2;
  const auto world = parse_world("replay window", flags);
  if (!world) return 2;
  const core::RunOptions& options = world->options;

  std::string snapshot_file;
  if (auto it = flags.find("snapshot"); it != flags.end()) {
    snapshot_file = it->second;
  } else if (auto dir_it = flags.find("snapshot-dir"); dir_it != flags.end()) {
    const auto from_it = flags.find("from");
    if (from_it == flags.end()) {
      std::fputs("replay window: --snapshot-dir needs --from T (a boundary "
                 "instant; see `replay list`)\n",
                 stderr);
      return 2;
    }
    auto from = core::parse_duration(from_it->second);
    if (!from.is_ok() || *from < 0) {
      std::fputs("replay window: bad --from\n", stderr);
      return 2;
    }
    snapshot_file = core::snapshot_path(dir_it->second, model, *from);
  } else {
    std::fputs("replay window: need --snapshot FILE or --snapshot-dir DIR "
               "--from T\n",
               stderr);
    return 2;
  }

  SimTime until = 0;
  if (auto it = flags.find("until"); it != flags.end()) {
    auto parsed = core::parse_duration(it->second);
    if (!parsed.is_ok() || *parsed <= 0) {
      std::fputs("replay window: bad --until\n", stderr);
      return 2;
    }
    until = *parsed;
  }
  std::uint32_t mask = obs::kTraceAll;
  if (auto it = flags.find("trace-filter"); it != flags.end()) {
    auto parsed = obs::parse_trace_filter(it->second);
    if (!parsed.is_ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
      return 2;
    }
    mask = *parsed;
  }
  std::int64_t capacity = 0;
  if (!flag_int("replay window", flags, "trace-capacity", capacity)) return 2;

  auto window = rundb::replay_window(model, *workload, options, snapshot_file,
                                     until, static_cast<std::size_t>(capacity),
                                     mask);
  if (!window.is_ok()) {
    std::fprintf(stderr, "%s\n", window.status().to_string().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "replayed %s window (t=%lld, t=%lld]: %llu events "
               "(%llu dropped)%s\n",
               system_model_name(model),
               static_cast<long long>(window->start),
               static_cast<long long>(window->end),
               static_cast<unsigned long long>(window->events),
               static_cast<unsigned long long>(window->dropped),
               window->sampler_armed
                   ? ", metrics sampler re-armed"
                   : "; note: the original run carried no metrics sampler, "
                     "so none could be re-armed (the timer is part of the "
                     "event sequence)");
  if (auto it = flags.find("trace-out"); it != flags.end()) {
    const std::string& out = it->second;
    const bool as_csv =
        out.size() >= 4 && out.compare(out.size() - 4, 4, ".csv") == 0;
    if (Status st = atomic_write_file(
            out, as_csv ? window->csv : window->chrome_json, "replay.trace");
        !st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("wrote %s\n", out.c_str());
  } else {
    std::fputs(window->csv.c_str(), stdout);
  }
  return 0;
}

int cmd_replay_bisect(const std::map<std::string, std::string>& flags) {
  core::SystemModel model;
  if (!replay_system(flags, model)) return 2;
  const auto golden_it = flags.find("golden-dir");
  const auto other_it = flags.find("other-dir");
  if (golden_it == flags.end() || other_it == flags.end()) {
    std::fputs("replay bisect: missing --golden-dir DIR / --other-dir DIR\n",
               stderr);
    return 2;
  }
  const auto golden_trace_it = flags.find("golden-trace");
  const auto other_trace_it = flags.find("other-trace");
  if ((golden_trace_it == flags.end()) != (other_trace_it == flags.end())) {
    std::fputs("replay bisect: --golden-trace and --other-trace must be "
               "given together\n",
               stderr);
    return 2;
  }
  auto report = rundb::bisect_divergence(
      golden_it->second, other_it->second, model,
      golden_trace_it != flags.end() ? golden_trace_it->second : "",
      other_trace_it != flags.end() ? other_trace_it->second : "");
  if (!report.is_ok()) {
    std::fprintf(stderr, "%s\n", report.status().to_string().c_str());
    return 2;
  }
  std::fputs(report->summary.c_str(), stdout);
  return report->diverged ? 1 : 0;
}

/// Shared query-flag parsing for `report query` / `report compare`.
int parse_report_query(const std::map<std::string, std::string>& flags,
                       rundb::ReportQuery& query) {
  if (auto it = flags.find("kind"); it != flags.end()) query.kind = it->second;
  if (auto it = flags.find("source"); it != flags.end()) {
    query.source = it->second;
  }
  if (auto it = flags.find("label"); it != flags.end()) {
    query.label = it->second;
  }
  if (auto it = flags.find("where"); it != flags.end()) {
    for (std::string_view clause : split_char(it->second, ',')) {
      const std::size_t eq = clause.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        std::fprintf(stderr,
                     "report: bad --where clause '%.*s' (expected key=value)\n",
                     static_cast<int>(clause.size()), clause.data());
        return 2;
      }
      query.filters.emplace_back(std::string(clause.substr(0, eq)),
                                 std::string(clause.substr(eq + 1)));
    }
  }
  if (auto it = flags.find("select"); it != flags.end()) {
    for (std::string_view name : split_char(it->second, ',')) {
      if (!name.empty()) query.select.emplace_back(name);
    }
  }
  if (auto it = flags.find("format"); it != flags.end()) {
    auto format = rundb::parse_report_format(it->second);
    if (!format.is_ok()) {
      std::fprintf(stderr, "%s\n", format.status().to_string().c_str());
      return 2;
    }
    query.format = *format;
  }
  return 0;
}

int cmd_report_query(const std::map<std::string, std::string>& flags) {
  const auto db_it = flags.find("db");
  if (db_it == flags.end()) {
    std::fputs("report query: missing --db DIR\n", stderr);
    return 2;
  }
  rundb::ReportQuery query;
  if (int rc = parse_report_query(flags, query); rc != 0) return rc;
  auto store = rundb::load_store(db_it->second);
  if (!store.is_ok()) {
    std::fprintf(stderr, "%s\n", store.status().to_string().c_str());
    return 1;
  }
  auto rendered =
      rundb::render_report(rundb::filter_records(store->records, query), query);
  if (!rendered.is_ok()) {
    std::fprintf(stderr, "%s\n", rendered.status().to_string().c_str());
    return 1;
  }
  std::fputs(rendered->c_str(), stdout);
  return 0;
}

int cmd_report_compare(const std::map<std::string, std::string>& flags) {
  const auto db_it = flags.find("db");
  if (db_it == flags.end()) {
    std::fputs("report compare: missing --db DIR\n", stderr);
    return 2;
  }
  const std::string db_b =
      flags.count("db-b") != 0 ? flags.at("db-b") : db_it->second;
  const auto a_it = flags.find("a");
  const auto b_it = flags.find("b");
  if (db_b == db_it->second &&
      (a_it == flags.end() || b_it == flags.end())) {
    std::fputs("report compare: within one store, --a SOURCE and --b SOURCE "
               "pick the two sides (or use --db-b DIR for a second store)\n",
               stderr);
    return 2;
  }
  rundb::ReportQuery base;
  if (int rc = parse_report_query(flags, base); rc != 0) return rc;

  auto store_a = rundb::load_store(db_it->second);
  if (!store_a.is_ok()) {
    std::fprintf(stderr, "%s\n", store_a.status().to_string().c_str());
    return 1;
  }
  rundb::StoreContents contents_b;
  if (db_b == db_it->second) {
    contents_b = *store_a;
  } else {
    auto loaded = rundb::load_store(db_b);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().to_string().c_str());
      return 1;
    }
    contents_b = std::move(*loaded);
  }
  // --a/--b select each side: `key=value` filters on a param axis (two
  // runs in one store usually differ only in a param), anything else
  // matches the record source (run config path or campaign id).
  const auto apply_side = [](rundb::ReportQuery& query,
                             const std::string& selector) {
    const std::size_t eq = selector.find('=');
    if (eq != std::string::npos && eq > 0) {
      query.filters.emplace_back(selector.substr(0, eq),
                                 selector.substr(eq + 1));
    } else {
      query.source = selector;
    }
  };
  rundb::ReportQuery qa = base;
  rundb::ReportQuery qb = base;
  if (a_it != flags.end()) apply_side(qa, a_it->second);
  if (b_it != flags.end()) apply_side(qb, b_it->second);
  const std::string name_a =
      a_it != flags.end() ? a_it->second : db_it->second;
  const std::string name_b = b_it != flags.end() ? b_it->second : db_b;
  std::size_t differing = 0;
  auto rendered = rundb::render_comparison(
      rundb::filter_records(store_a->records, qa),
      rundb::filter_records(contents_b.records, qb), base, name_a, name_b,
      &differing);
  if (!rendered.is_ok()) {
    std::fprintf(stderr, "%s\n", rendered.status().to_string().c_str());
    return 1;
  }
  std::fputs(rendered->c_str(), stdout);
  return differing == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  // Chaos hooks (docs/ROBUSTNESS.md): a fault plan from the environment
  // (DC_FAULT_PLAN / DC_FAULT_PLAN_FILE) or the global --fault-plan flag
  // arms the faultfs layer before any subcommand touches the filesystem.
  // --fault-plan is stripped here so subcommand flag parsing never sees it.
  {
    auto env = faultfs::install_from_env();
    if (!env.is_ok()) {
      std::fprintf(stderr, "%s\n", env.to_string().c_str());
      return 2;
    }
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--fault-plan") != 0) continue;
      auto plan = faultfs::parse_fault_plan(argv[i + 1]);
      if (!plan.is_ok()) {
        std::fprintf(stderr, "%s\n", plan.status().to_string().c_str());
        return 2;
      }
      faultfs::install_plan(std::move(*plan));
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  if (argc < 2) return usage();
  // `sweep`, `replay` and `report` take an action word; the table and the
  // dispatch below key on "command action".
  std::string command = argv[1];
  int first_flag = 2;
  if (command == "sweep" || command == "replay" || command == "report") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) return usage();
    command += std::string(" ") + argv[2];
    first_flag = 3;
  }
  const auto accepted = accepted_flags().find(command);
  if (accepted == accepted_flags().end()) return usage();
  bool flags_ok = false;
  const auto flags = parse_flags(argc, argv, flags_ok, first_flag);
  if (!flags_ok) return usage();
  for (const auto& [key, value] : flags) {
    if (std::find(accepted->second.begin(), accepted->second.end(), key) ==
        accepted->second.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", command.c_str(),
                   key.c_str());
      return 2;
    }
  }

  if (command == "run") return cmd_run(flags);
  if (command == "tune") return cmd_tune(flags);
  if (command == "describe") return cmd_describe(flags);
  if (command == "trace-stats") return cmd_trace_stats(flags);
  if (command == "snapshot-diff") return cmd_snapshot_diff(flags);
  if (command == "trace-summary") return cmd_trace_summary(flags);
  if (command == "sweep run") return cmd_sweep_run(flags);
  if (command == "sweep report") return cmd_sweep_report(flags);
  if (command == "replay list") return cmd_replay_list(flags);
  if (command == "replay window") return cmd_replay_window(flags);
  if (command == "replay bisect") return cmd_replay_bisect(flags);
  if (command == "report query") return cmd_report_query(flags);
  if (command == "report compare") return cmd_report_compare(flags);
  return usage();
}
