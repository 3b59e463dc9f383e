// perfbench_driver: times one workload of the simulator end to end.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--git REV] [--dirty FLAG] [--source HEX]
//
// The driver writes the experiment config for the seed, sets up the inputs
// several times (setup_s is the median), runs one untimed warm-up round that
// also fixes the reference outputs, then runs ops in a closed loop for S
// seconds and checks every op. With --trace 0 it reports the end-to-end
// metrics. With --trace 1 it alternates traced and untraced rounds, records
// spans in memory, writes them to DIR/spans/ when it exits, and reports the
// per-layer metrics plus the tracing overhead. The last line of standard
// output is one JSON object; everything before it is for people.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dc::Status;
using dc::str_format;

// Set-up is short, so it runs several times and reports the median.
constexpr int kSetupRuns = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string git = "unknown";
  std::string dirty = "unknown";
  std::string source = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  auto take = [&](const char* key, std::string& out) {
    auto it = flags.find(key);
    if (it == flags.end()) return false;
    out = it->second;
    flags.erase(it);
    return true;
  };
  std::string seed, seconds, trace;
  if (!take("workload", args.workload) || !take("seed", seed) ||
      !take("seconds", seconds) || !take("trace", trace) ||
      !take("work-dir", args.work_dir)) {
    return false;
  }
  take("git", args.git);
  take("dirty", args.dirty);
  take("source", args.source);
  if (!flags.empty()) return false;
  char* end = nullptr;
  args.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0' || seed[0] == '-') return false;
  args.seconds = std::strtod(seconds.c_str(), &end);
  if (seconds.empty() || *end != '\0' || !(args.seconds > 0)) return false;
  if (trace != "0" && trace != "1") return false;
  args.trace = trace == "1";
  return true;
}

std::string provenance(const Args& args) {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
  const char* asserts = "NDEBUG";
#else
  const char* asserts = "asserts-on";
#endif
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) != 0) host[0] = '\0';
  return str_format(
      "workload=%s seed=%llu build=%s(%s) compiler=\"%s\" git=%s dirty=%s "
      "source=%s host=%s nproc=%ld",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      PERFBENCH_BUILD_TYPE, asserts, compiler.c_str(), args.git.c_str(),
      args.dirty.c_str(), args.source.c_str(), host,
      sysconf(_SC_NPROCESSORS_ONLN));
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Linear interpolation between order statistics.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or base, printed for people
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics from the traced rounds' spans and counters.
std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const Counters& counters,
                                  const SetupReport& report, int setup_runs,
                                  double traced_rate, double untraced_rate) {
  const auto& spans = tracer.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> op_ns, setup_ns, self_ns;
  std::vector<double> append_ms, query_ms;
  double ops = 0, op_total_ns = 0, op_child_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    const std::string name = s.name;
    const std::string layer(span_layer(name));
    const auto self = dur - static_cast<double>(child_ns[i]);
    if (s.op < 0) {
      setup_ns[name] += dur;
      if (layer != "setup") self_ns[layer] += self / setup_runs;
      continue;
    }
    if (name == "op") {
      ++ops;
      op_total_ns += dur;
      op_child_ns += static_cast<double>(child_ns[i]);
      self_ns["driver"] += self;
      continue;
    }
    op_ns[name] += dur;
    if (name.rfind("core.run.", 0) == 0) op_ns["core.run"] += dur;
    if (name == "rundb.append") append_ms.push_back(dur / 1e6);
    if (name == "rundb.query") query_ms.push_back(dur / 1e6);
    self_ns[layer] += self;
  }
  const double per_op = ops > 0 ? 1.0 / ops : 0.0;
  auto op_ms = [&](const char* name) { return op_ns[name] * per_op / 1e6; };
  auto set_ms = [&](const char* name) { return setup_ns[name] / setup_runs / 1e6; };
  const char* models[] = {"dcs", "ssp", "drp", "dawningcloud"};
  const std::string per_op_note = str_format("per op, mean of %.0f traced ops", ops);
  const std::string per_setup = str_format("per set-up, mean of %d", setup_runs);

  std::vector<Metric> m;
  m.push_back({"workload.config_ms", set_ms("workload.config"), "ms", per_setup});
  m.push_back({"workload.swf_write_ms", set_ms("workload.swf_write"), "ms", per_setup});
  m.push_back({"workload.swf_read_ms", set_ms("workload.swf_read"), "ms", per_setup});
  m.push_back({"workload.swf_bytes", static_cast<double>(report.swf_bytes), "bytes",
               "both HTC traces"});
  m.push_back({"workload.swf_period_mismatch",
               static_cast<double>(report.period_mismatches), "count",
               "HTC traces whose period changed"});
  m.push_back({"core.build_ms", op_ms("core.build"), "ms", per_op_note});
  m.push_back({"core.run_ms", op_ms("core.run"), "ms", per_op_note});
  for (int k = 0; k < 4; ++k) {
    m.push_back({std::string("core.run_ms.") + models[k],
                 op_ns[std::string("core.run.") + models[k]] * per_op / 1e6, "ms",
                 per_op_note});
  }
  m.push_back({"core.finalize_ms", op_ms("core.finalize"), "ms", per_op_note});
  m.push_back({"core.adjusted_nodes", counters.adjusted_nodes * per_op, "count", "per op"});
  m.push_back({"core.rejected_requests", counters.rejected_requests * per_op, "count", "per op"});
  m.push_back({"sim.events", counters.events * per_op, "count", "per op"});
  m.push_back({"sim.peak_pending", static_cast<double>(counters.peak_pending), "count",
               "max over runs"});
  m.push_back({"sim.ns_per_event", ratio(op_ns["core.run"], counters.events), "ns",
               "core.run time / events"});
  for (int k = 0; k < 4; ++k) {
    m.push_back({std::string("sim.ns_per_event.") + models[k],
                 ratio(op_ns[std::string("core.run.") + models[k]],
                       counters.events_by_model[k]),
                 "ns", "core.run time / events"});
  }
  m.push_back({"metrics.render_ms", op_ms("metrics.render"), "ms", per_op_note});
  m.push_back({"rundb.append_ms_p50", percentile(append_ms, 0.5), "ms",
               str_format("n=%zu calls", append_ms.size())});
  m.push_back({"rundb.append_ms_p90", percentile(append_ms, 0.9), "ms",
               str_format("n=%zu calls", append_ms.size())});
  m.push_back({"rundb.query_ms", percentile(query_ms, 0.5), "ms",
               str_format("median of n=%zu passes", query_ms.size())});
  m.push_back({"rundb.store_bytes", ratio(counters.store_bytes, counters.store_passes),
               "bytes", "store at pass end"});
  m.push_back({"snapshot.save_ms", op_ms("snapshot.save"), "ms", per_op_note});
  m.push_back({"snapshot.saves", counters.snapshot_saves * per_op, "count", "per op"});
  m.push_back({"snapshot.bytes", ratio(counters.snapshot_bytes, counters.snapshot_saves),
               "bytes", "per snapshot"});
  m.push_back({"snapshot.restore_ms", op_ms("snapshot.restore"), "ms", per_op_note});
  m.push_back({"obs.trace_events", counters.trace_events * per_op, "count", "per op"});
  m.push_back({"obs.trace_dropped", counters.trace_dropped * per_op, "count", "per op"});
  m.push_back({"obs.metric_samples", counters.metric_samples * per_op, "count", "per op"});
  m.push_back({"obs.export_ms", op_ms("obs.export"), "ms", per_op_note});
  m.push_back({"obs.export_bytes", counters.export_bytes * per_op, "bytes", "per op"});
  m.push_back({"obs.parse_ms", op_ms("obs.parse"), "ms", per_op_note});
  for (const char* layer : {"workload", "core", "metrics", "rundb", "snapshot", "obs"}) {
    const bool setup = std::string_view(layer) == "workload";
    m.push_back({std::string("trace.self_ms.") + layer,
                 self_ns[layer] * (setup ? 1.0 : per_op) / 1e6, "ms",
                 setup ? per_setup : per_op_note});
  }
  m.push_back({"trace.self_ms.driver", self_ns["driver"] * per_op / 1e6, "ms",
               "op time outside layer spans"});
  m.push_back({"trace.coverage_pct", 100.0 * ratio(op_child_ns, op_total_ns), "%",
               "layer spans / op wall time"});
  m.push_back({"trace.overhead_pct",
               traced_rate > 0 ? 100.0 * (untraced_rate / traced_rate - 1.0) : 0.0,
               "%", str_format("untraced %.4g ops/s vs traced %.4g ops/s",
                               untraced_rate, traced_rate)});
  m.push_back({"trace.ops", ops, "count", "traced ops"});
  return m;
}

Status write_spans(const std::string& path, const std::string& stamp,
                   const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) return Status::internal("cannot write " + path);
  out << "# " << stamp << "\nop\tid\tparent\tname\tstart_ns\tend_ns\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.op << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  out.close();
  return out ? Status::ok() : Status::internal("write failed: " + path);
}

/// This run's scratch directory, removed when the run ends.
std::string io_dir(const Args& args) {
  return str_format("%s/io-%s-%ld", args.work_dir.c_str(),
                    args.workload.c_str(), static_cast<long>(getpid()));
}

std::string json_number(double v) {
  return std::isfinite(v) ? str_format("%.17g", v) : "0";
}

int run(const Args& args, Workload& workload) {
  const std::string stamp = provenance(args);
  std::printf("provenance: %s\n", stamp.c_str());

  const std::string dir = io_dir(args);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{dir};
  {
    std::ofstream config(dir + "/experiment.dcfg");
    config << experiment_config(args.seed);
    if (!config) {
      std::fprintf(stderr, "cannot write the experiment config\n");
      return 1;
    }
  }

  Tracer tracer;
  tracer.set_enabled(args.trace);
  SetupReport report;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRuns; ++r) {
    report = SetupReport{};
    tracer.set_op(-(r + 1));
    const std::int64_t start = now_ns();
    Status status;
    {
      Scope span(tracer, "setup");
      status = workload.set_up(tracer, report);
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    if (!status.is_ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.to_string().c_str());
      return 1;
    }
  }
  std::printf("setup: SWF round trip changes the period of %lld of the HTC "
              "traces (a known defect of Trace::to_swf; the runs use the "
              "traces as generated)\n",
              static_cast<long long>(report.period_mismatches));
  for (const auto& note : report.notes) std::printf("  %s\n", note.c_str());

  std::uint64_t attempted = 0, failed = 0, index = 0;
  // Runs and checks one op; true when its outputs are right.
  auto one_op = [&](bool traced, Counters& counters, std::vector<double>* latency) {
    tracer.set_enabled(traced);
    tracer.set_op(static_cast<std::int64_t>(index) + 1);
    const std::int64_t start = now_ns();
    Status status;
    {
      Scope span(tracer, "op");
      status = workload.run_op(index, tracer, counters);
    }
    const std::int64_t end = now_ns();
    tracer.set_enabled(false);
    const std::string errors =
        status.is_ok() ? workload.check_op(index) : status.to_string();
    ++attempted;
    if (!errors.empty() && ++failed <= 5) {
      std::fprintf(stderr, "op %llu failed: %s\n",
                   static_cast<unsigned long long>(index), errors.c_str());
    }
    if (latency != nullptr) latency->push_back(static_cast<double>(end - start) / 1e6);
    ++index;
    return errors.empty();
  };

  // Warm-up: one round, untimed, which also fixes each input's reference
  // outputs for the checks of later rounds.
  Counters discard;
  for (std::uint64_t i = 0; i < workload.round_ops(); ++i) {
    one_op(false, discard, nullptr);
  }

  Counters counters;
  std::vector<double> latency;
  // Time and op counts: of every untraced round, for ops_per_s; and of
  // whole rounds only, for the tracing overhead, because a sweep pass's
  // later cells cost more than its first ones.
  struct Tally {
    double ns = 0;
    std::uint64_t ops = 0;
    double per_s() const { return ratio(static_cast<double>(ops), ns / 1e9); }
  } untraced, whole_traced, whole_untraced;
  std::uint64_t untraced_ok = 0;
  const auto deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::uint64_t round = 0;; ++round) {
    // With --trace 1, even rounds are traced and odd rounds are not, so the
    // two rates are measured under the same conditions.
    const bool traced = args.trace && round % 2 == 0;
    Tally this_round;
    bool done = false;
    while (this_round.ops < workload.round_ops() && !done) {
      const std::int64_t start = now_ns();
      const bool ok =
          one_op(traced, traced ? counters : discard, traced ? nullptr : &latency);
      const std::int64_t end = now_ns();
      this_round.ns += static_cast<double>(end - start);
      ++this_round.ops;
      if (ok && !traced) ++untraced_ok;
      done = end >= deadline;
    }
    if (!traced) {
      untraced.ns += this_round.ns;
      untraced.ops += this_round.ops;
    }
    if (this_round.ops == workload.round_ops()) {
      Tally& whole = traced ? whole_traced : whole_untraced;
      whole.ns += this_round.ns;
      whole.ops += this_round.ops;
    }
    if (done) break;
  }
  if (const std::string errors = workload.check_end(); !errors.empty()) {
    std::fprintf(stderr, "end check failed: %s\n", errors.c_str());
    failed = std::min(failed + 1, attempted);
  }
  const double rss_mb = peak_rss_mb();

  std::vector<Metric> end_to_end = {
      {"setup_s", percentile(setup_s, 0.5), "s",
       str_format("median of %d set-ups", kSetupRuns)},
      // Correct ops per host second of the untraced rounds, which are the
      // whole loop when the run is untraced.
      {"ops_per_s", ratio(static_cast<double>(untraced_ok), untraced.ns / 1e9), "1/s",
       str_format("%llu correct untraced ops",
                  static_cast<unsigned long long>(untraced_ok))},
      {"op_ms_p50", percentile(latency, 0.5), "ms", str_format("n=%zu", latency.size())},
      {"op_ms_p90", percentile(latency, 0.9), "ms", str_format("n=%zu", latency.size())},
      {"rss_peak_mb", rss_mb, "MB", "VmHWM"},
  };
  const Metric fail_ratio = {"fail_ratio", ratio(failed, attempted), "ratio",
                             str_format("%llu of %llu ops",
                                        static_cast<unsigned long long>(failed),
                                        static_cast<unsigned long long>(attempted))};
  std::vector<Metric> reported = end_to_end;
  if (args.trace) {
    reported = layer_metrics(tracer, counters, report, kSetupRuns,
                             whole_traced.per_s(), whole_untraced.per_s());
    reported.push_back(fail_ratio);
    for (const Metric& m : end_to_end) {
      std::printf("end-to-end (untraced rounds of a traced run) %s = %.6g %s (%s)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
    }
  } else {
    std::printf("metric fail_ratio = %.6g %s (%s)\n", fail_ratio.value,
                fail_ratio.unit.c_str(), fail_ratio.note.c_str());
  }
  for (const Metric& m : reported) {
    std::printf("metric %s = %.6g %s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }

  if (args.trace) {
    const std::string spans_dir = args.work_dir + "/spans";
    std::filesystem::create_directories(spans_dir, ec);
    const std::string path = str_format(
        "%s/%s-seed%llu.tsv", spans_dir.c_str(), args.workload.c_str(),
        static_cast<unsigned long long>(args.seed));
    if (Status st = write_spans(path, stamp, tracer); !st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
    } else {
      std::printf("spans: %zu written to %s\n", tracer.spans().size(), path.c_str());
    }
  }

  std::string json = str_format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < reported.size(); ++i) {
    json += str_format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", reported[i].name.c_str(),
                       json_number(reported[i].value).c_str(),
                       reported[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::unique_ptr<perfbench::Workload> workload;
  if (perfbench::parse_args(argc, argv, args)) {
    workload = perfbench::make_workload(args.workload, args.seed,
                                        perfbench::io_dir(args));
  }
  if (!workload) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload paper|policy_sweep|"
                 "checkpoint_trace --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--git REV] [--dirty FLAG] [--source HEX]\n");
    return 2;
  }
  return perfbench::run(args, *workload);
}
