#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "core/description.hpp"
#include "core/paper.hpp"
#include "core/system_runner.hpp"
#include "metrics/report.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "rundb/report.hpp"
#include "rundb/store.hpp"
#include "util/strings.hpp"
#include "workload/swf.hpp"
#include "workload/trace.hpp"

namespace perfbench {
namespace {

using dc::Status;
using dc::StatusOr;
using dc::str_format;
using dc::core::ConsolidationWorkload;
using dc::core::SystemModel;
using dc::core::SystemResult;
using dc::core::SystemRunner;

constexpr SystemModel kModels[] = {SystemModel::kDcs, SystemModel::kSsp,
                                   SystemModel::kDrp,
                                   SystemModel::kDawningCloud};
// Span names carry the model so core.run_ms splits per model.
constexpr const char* kRunSpan[] = {"core.run.dcs", "core.run.ssp",
                                    "core.run.drp", "core.run.dawningcloud"};

std::size_t model_index(SystemModel model) {
  return static_cast<std::size_t>(model);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// Every field of a result, so two runs compare equal only when they agree
/// on all of them.
std::string describe(const SystemResult& r) {
  std::string out = str_format(
      "%s h=%lld total=%lld peak=%lld adjusted=%lld overhead=%.17g/%.17g "
      "rejected=%lld events=%llu failures=%lld/%lld/%lld jobs=%lld/%lld "
      "goodput=%.17g wasted=%.17g availability=%.17g\n",
      dc::core::system_model_name(r.model), static_cast<long long>(r.horizon),
      static_cast<long long>(r.total_consumption_node_hours),
      static_cast<long long>(r.peak_nodes),
      static_cast<long long>(r.adjusted_nodes), r.overhead_seconds,
      r.overhead_seconds_per_hour, static_cast<long long>(r.rejected_requests),
      static_cast<unsigned long long>(r.simulated_events),
      static_cast<long long>(r.failure_events),
      static_cast<long long>(r.nodes_failed),
      static_cast<long long>(r.nodes_repaired),
      static_cast<long long>(r.jobs_killed),
      static_cast<long long>(r.jobs_failed), r.goodput_node_hours,
      r.wasted_node_hours, r.availability);
  for (const auto& p : r.providers) {
    out += str_format(
        "  %s type=%d jobs=%lld/%lld tps=%.17g nh=%lld exact=%.17g peak=%lld "
        "makespan=%lld wait=%.17g/%lld faults=%lld/%lld/%lld goodput=%.17g "
        "wasted=%.17g availability=%.17g\n",
        p.provider.c_str(), static_cast<int>(p.type),
        static_cast<long long>(p.submitted_jobs),
        static_cast<long long>(p.completed_jobs), p.tasks_per_second,
        static_cast<long long>(p.consumption_node_hours), p.exact_node_hours,
        static_cast<long long>(p.peak_nodes),
        static_cast<long long>(p.makespan), p.mean_wait_seconds,
        static_cast<long long>(p.max_wait_seconds),
        static_cast<long long>(p.jobs_killed),
        static_cast<long long>(p.jobs_failed),
        static_cast<long long>(p.grant_timeouts), p.goodput_node_hours,
        p.wasted_node_hours, p.availability);
  }
  out += "  hourly";
  for (std::int64_t v : r.hourly_peak_series) {
    out += str_format(" %lld", static_cast<long long>(v));
  }
  out += "\n";
  return out;
}

/// Appends "what: want W, got G" to `errors` when the two differ.
template <typename T>
void expect(std::string& errors, const std::string& what, T want, T got) {
  if (want == got) return;
  errors += str_format("%s: want %s, got %s; ", what.c_str(),
                       std::to_string(want).c_str(),
                       std::to_string(got).c_str());
}

/// One runner's build, run to the horizon and finalize, each timed.
SystemResult run_one(SystemModel model, const ConsolidationWorkload& workload,
                     Tracer& tracer, Counters& counters) {
  std::optional<SystemRunner> runner;
  {
    Scope span(tracer, "core.build");
    runner.emplace(model, workload, dc::core::RunOptions{});
  }
  const std::uint64_t before = runner->simulator().events_processed();
  {
    Scope span(tracer, kRunSpan[model_index(model)]);
    runner->run_until(runner->horizon());
  }
  const std::uint64_t events = runner->simulator().events_processed() - before;
  counters.events += events;
  counters.events_by_model[model_index(model)] += events;
  counters.peak_pending = std::max<std::uint64_t>(
      counters.peak_pending, runner->simulator().peak_pending());
  SystemResult result;
  {
    Scope span(tracer, "core.finalize");
    result = runner->finalize();
    runner.reset();
  }
  counters.adjusted_nodes += result.adjusted_nodes;
  counters.rejected_requests += result.rejected_requests;
  return result;
}

/// The set-up every workload shares: the generated config, then an SWF
/// write and read of each HTC trace. The program keeps running on the
/// traces as generated; the round trip is measured and its period changes
/// are reported.
StatusOr<ConsolidationWorkload> load_experiment(const std::string& io_dir,
                                                Tracer& tracer,
                                                SetupReport& report) {
  std::optional<StatusOr<ConsolidationWorkload>> loaded;
  {
    Scope span(tracer, "workload.config");
    loaded.emplace(
        dc::core::read_experiment_description(io_dir + "/experiment.dcfg"));
  }
  if (!loaded->is_ok()) return loaded->status();
  for (const auto& spec : (*loaded)->htc) {
    const std::string path = io_dir + "/" + spec.name + ".swf";
    Status written;
    {
      Scope span(tracer, "workload.swf_write");
      written = dc::workload::write_swf_file(path, spec.trace.to_swf());
    }
    if (!written.is_ok()) return written;
    report.swf_bytes += file_bytes(path);
    std::optional<StatusOr<dc::workload::Trace>> back;
    {
      Scope span(tracer, "workload.swf_read");
      auto file = dc::workload::read_swf_file(path);
      back.emplace(file.is_ok()
                       ? dc::workload::Trace::from_swf(*file, spec.name)
                       : StatusOr<dc::workload::Trace>(file.status()));
    }
    if (!back->is_ok()) return back->status();
    if ((*back)->period() != spec.trace.period()) {
      ++report.period_mismatches;
      report.notes.push_back(str_format(
          "%s: period %lld s as generated, %lld s after the SWF round trip",
          spec.name.c_str(), static_cast<long long>(spec.trace.period()),
          static_cast<long long>((*back)->period())));
    }
  }
  return std::move(*loaded);
}

// --- paper: Tables 2-4 and Figures 12-14 once per op ----------------------

class PaperWorkload : public Workload {
 public:
  PaperWorkload(std::uint64_t seed, std::string io_dir)
      : seed_(seed), io_dir_(std::move(io_dir)) {}

  Status set_up(Tracer& tracer, SetupReport& report) override {
    auto experiment = load_experiment(io_dir_, tracer, report);
    if (!experiment.is_ok()) return experiment.status();
    if (experiment->htc.size() != 2 || experiment->mtc.size() != 1) {
      return Status::invalid_argument("paper needs NASA, BLUE and Montage");
    }
    sets_.clear();
    sets_.push_back(dc::core::single_htc_workload(experiment->htc[0]));
    sets_.push_back(dc::core::single_htc_workload(experiment->htc[1]));
    sets_.push_back(dc::core::single_mtc_workload(experiment->mtc[0]));
    sets_.push_back(std::move(*experiment));
    return Status::ok();
  }

  std::uint64_t round_ops() const override { return 1; }

  Status run_op(std::uint64_t, Tracer& tracer, Counters& counters) override {
    results_.assign(sets_.size(), {});
    for (std::size_t s = 0; s < sets_.size(); ++s) {
      for (SystemModel model : kModels) {
        results_[s].push_back(run_one(model, sets_[s], tracer, counters));
      }
    }
    Scope span(tracer, "metrics.render");
    const auto& nasa = sets_[0].htc[0].name;
    const auto& blue = sets_[1].htc[0].name;
    const auto& montage = sets_[2].mtc[0].name;
    tables_ = dc::metrics::format_htc_provider_table(results_[0], nasa, "Table 2");
    tables_ += dc::metrics::format_htc_provider_table(results_[1], blue, "Table 3");
    tables_ += dc::metrics::format_mtc_provider_table(results_[2], montage, "Table 4");
    tables_ += dc::metrics::format_resource_provider_report(results_[3]);
    tables_ += dc::metrics::format_overhead_report(results_[3]);
    return Status::ok();
  }

  std::string check_op(std::uint64_t index) override {
    std::string outputs = tables_;
    for (const auto& set : results_) {
      for (const auto& result : set) outputs += describe(result);
    }
    if (index == 0) {
      first_ = std::move(outputs);
      if (seed_ == kDefaultSeed) reference_errors_ = check_reference();
      return reference_errors_;
    }
    if (outputs != first_) return "paper: outputs differ from the first op";
    return reference_errors_;
  }

 private:
  /// EXPERIMENTS.md: Tables 2-4 and Figures 12-14 at the default seed.
  std::string check_reference() const {
    std::string errors;
    const char* names[] = {"NASA", "BLUE", "Montage"};
    const std::int64_t node_hours[3][4] = {{43008, 43008, 54659, 31632},
                                           {48384, 48384, 35781, 38130},
                                           {166, 166, 653, 166}};
    const std::int64_t jobs[2][4] = {{2993, 2993, 2993, 2993},
                                     {2737, 2737, 2737, 2736}};
    const double tasks_per_second[4] = {2.63, 2.63, 2.84, 2.61};
    for (int s = 0; s < 3; ++s) {
      for (int m = 0; m < 4; ++m) {
        const auto& p = results_[s][m].providers.front();
        const std::string what =
            str_format("%s %s", names[s], dc::core::system_model_name(kModels[m]));
        expect(errors, what + " node-hours", node_hours[s][m],
               p.consumption_node_hours);
        if (s < 2) {
          expect(errors, what + " completed jobs", jobs[s][m], p.completed_jobs);
        } else {
          expect(errors, what + " tasks/s (x100)",
                 std::llround(tasks_per_second[m] * 100),
                 std::llround(p.tasks_per_second * 100));
        }
      }
    }
    const std::int64_t totals[4] = {91558, 91558, 91093, 69928};
    const std::int64_t peaks[4] = {438, 438, 972, 424};
    const std::int64_t adjusted[4] = {0, 876, 131464, 21604};
    for (int m = 0; m < 4; ++m) {
      const auto& r = results_[3][m];
      const std::string what = dc::core::system_model_name(kModels[m]);
      expect(errors, what + " total node-hours", totals[m],
             r.total_consumption_node_hours);
      expect(errors, what + " peak nodes", peaks[m], r.peak_nodes);
      expect(errors, what + " adjusted nodes", adjusted[m], r.adjusted_nodes);
    }
    return errors;
  }

  std::uint64_t seed_;
  std::string io_dir_;
  std::vector<ConsolidationWorkload> sets_;  // NASA, BLUE, Montage, all three
  std::vector<std::vector<SystemResult>> results_;
  std::string tables_;
  std::string first_;
  std::string reference_errors_;
};

// --- policy_sweep: one (B, R) cell of Figures 9-11 per op -----------------

class PolicySweepWorkload : public Workload {
 public:
  PolicySweepWorkload(std::uint64_t seed, std::string io_dir)
      : seed_(seed), io_dir_(std::move(io_dir)),
        store_dir_(io_dir_ + "/store") {}

  Status set_up(Tracer& tracer, SetupReport& report) override {
    auto experiment = load_experiment(io_dir_, tracer, report);
    if (!experiment.is_ok()) return experiment.status();
    if (experiment->htc.size() != 2 || experiment->mtc.size() != 1) {
      return Status::invalid_argument("policy_sweep needs NASA, BLUE, Montage");
    }
    bases_.clear();
    bases_.push_back(dc::core::single_htc_workload(experiment->htc[0]));
    bases_.push_back(dc::core::single_htc_workload(experiment->htc[1]));
    // Figure 11 submits the workflow at t=0.
    auto montage = experiment->mtc[0];
    montage.submit_time = 0;
    bases_.push_back(dc::core::single_mtc_workload(std::move(montage)));

    // The grids of Figures 10 (NASA), 9 (BLUE) and 11 (Montage).
    const std::int64_t htc_b[] = {10, 20, 30, 40, 50, 60, 70, 80};
    const double htc_r[] = {1.0, 1.2, 1.4, 1.5, 1.6, 1.8, 2.0};
    const std::int64_t mtc_b[] = {10, 20, 40, 80};
    const double mtc_r[] = {2, 3, 4, 6, 8, 12, 16};
    grid_.clear();
    for (std::size_t provider = 0; provider < 2; ++provider) {
      for (auto b : htc_b) {
        for (auto r : htc_r) grid_.push_back({provider, b, r});
      }
    }
    for (auto b : mtc_b) {
      for (auto r : mtc_r) grid_.push_back({2, b, r});
    }
    first_.assign(grid_.size(), {});
    return Status::ok();
  }

  std::uint64_t round_ops() const override { return grid_.size(); }

  Status run_op(std::uint64_t index, Tracer& tracer,
                Counters& counters) override {
    cell_ = index % grid_.size();
    if (cell_ == 0) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir_, ec);
      pass_ids_.clear();
      stored_.reset();
    }
    const Cell& cell = grid_[cell_];
    ConsolidationWorkload& workload = bases_[cell.provider];
    auto& policy = workload.htc.empty() ? workload.mtc[0].policy
                                        : workload.htc[0].policy;
    policy = workload.htc.empty()
                 ? dc::core::ResourceManagementPolicy::mtc(cell.b, cell.r,
                                                           policy.max_nodes)
                 : dc::core::ResourceManagementPolicy::htc(cell.b, cell.r,
                                                           policy.max_nodes);
    result_ = run_one(SystemModel::kDawningCloud, workload, tracer, counters);

    std::optional<StatusOr<std::uint64_t>> appended;
    std::vector<dc::rundb::RunRecord> records;
    {
      Scope span(tracer, "rundb.append");
      records = dc::rundb::make_run_records(
          "perfbench:policy_sweep", result_,
          {{"B", std::to_string(cell.b)}, {"R", str_format("%g", cell.r)}});
      appended.emplace(dc::rundb::append_records(store_dir_, records));
    }
    if (!appended->is_ok()) return appended->status();
    if (**appended != records.size()) {
      return Status::internal(str_format(
          "appended %llu of %zu new records",
          static_cast<unsigned long long>(**appended), records.size()));
    }
    for (const auto& record : records) pass_ids_.push_back(record.run_id());

    if (cell_ + 1 < grid_.size()) return Status::ok();
    {
      Scope span(tracer, "rundb.query");
      auto contents = dc::rundb::load_store(store_dir_);
      if (!contents.is_ok()) return contents.status();
      dc::rundb::ReportQuery query;
      query.format = dc::rundb::ReportFormat::kJson;
      auto report = dc::rundb::render_report(contents->records, query);
      if (!report.is_ok()) return report.status();
      stored_ = std::move(contents->records);
    }
    counters.store_bytes += file_bytes(dc::rundb::store_data_path(store_dir_));
    ++counters.store_passes;
    return Status::ok();
  }

  std::string check_op(std::uint64_t) override {
    std::string errors;
    const auto& provider = result_.providers.front();
    std::string outputs = describe(result_);
    if (first_[cell_].empty()) {
      first_[cell_] = outputs;
    } else if (outputs != first_[cell_]) {
      errors += "cell differs from its first run; ";
    }
    if (seed_ == kDefaultSeed) {
      const Cell& cell = grid_[cell_];
      const std::int64_t b[] = {40, 80, 10};
      const double r[] = {1.2, 1.5, 8};
      const std::int64_t node_hours[] = {31632, 38130, 166};
      if (cell.b == b[cell.provider] && cell.r == r[cell.provider]) {
        expect(errors, provider.provider + " node-hours",
               node_hours[cell.provider], provider.consumption_node_hours);
      }
    }
    if (stored_) errors += check_store(*stored_);
    stored_.reset();
    return errors;
  }

  std::string check_end() override {
    auto contents = dc::rundb::load_store(store_dir_);
    if (!contents.is_ok()) return contents.status().to_string();
    return check_store(contents->records);
  }

 private:
  struct Cell {
    std::size_t provider;  // index into bases_
    std::int64_t b;
    double r;
  };

  /// The store must hold exactly this pass's cells, in append order.
  std::string check_store(const std::vector<dc::rundb::RunRecord>& records) {
    if (records.size() != pass_ids_.size()) {
      return str_format("store holds %zu records, the pass appended %zu; ",
                        records.size(), pass_ids_.size());
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].run_id() != pass_ids_[i]) {
        return str_format("store record %zu is not the one appended; ", i);
      }
    }
    return {};
  }

  std::uint64_t seed_;
  std::string io_dir_;
  std::string store_dir_;
  std::vector<ConsolidationWorkload> bases_;  // NASA, BLUE, Montage alone
  std::vector<Cell> grid_;
  std::vector<std::string> first_;  // per cell
  std::size_t cell_ = 0;
  SystemResult result_;
  std::vector<std::uint64_t> pass_ids_;
  std::optional<std::vector<dc::rundb::RunRecord>> stored_;
};

// --- checkpoint_trace: snapshotted, traced run plus a restore ---------------

class CheckpointTraceWorkload : public Workload {
 public:
  CheckpointTraceWorkload(std::uint64_t seed, std::string io_dir)
      : seed_(seed), io_dir_(std::move(io_dir)),
        snapshot_dir_(io_dir_ + "/snapshots") {}

  Status set_up(Tracer& tracer, SetupReport& report) override {
    auto experiment = load_experiment(io_dir_, tracer, report);
    if (!experiment.is_ok()) return experiment.status();
    workload_ = std::move(*experiment);
    auto filter = dc::obs::parse_trace_filter("job,provision,fault");
    if (!filter.is_ok()) return filter.status();
    filter_ = *filter;
    boundaries_.clear();
    const dc::SimTime horizon = workload_.effective_horizon();
    for (dc::SimTime t = kSnapshotEvery; t < horizon; t += kSnapshotEvery) {
      boundaries_.push_back(t);
    }
    if (boundaries_.empty()) return Status::invalid_argument("no boundaries");
    std::error_code ec;
    std::filesystem::create_directories(snapshot_dir_, ec);
    if (ec) return Status::internal("cannot create " + snapshot_dir_);
    return Status::ok();
  }

  std::uint64_t round_ops() const override { return 1; }

  Status run_op(std::uint64_t index, Tracer& tracer,
                Counters& counters) override {
    constexpr SystemModel kModel = SystemModel::kDawningCloud;
    // --snapshot-every 6h --trace-filter job,provision,fault
    // --metrics-every 1h --profile
    dc::obs::TraceSink sink;
    sink.set_filter(filter_);
    dc::obs::MetricsRegistry registry;
    dc::obs::PhaseProfiler profiler;
    dc::core::RunOptions options;
    options.trace = &sink;
    options.metrics = &registry;
    options.metrics_every = dc::kHour;
    options.profile = &profiler;

    std::optional<SystemRunner> runner;
    {
      Scope span(tracer, "core.build");
      runner.emplace(kModel, workload_, options);
    }
    const dc::SimTime horizon = runner->horizon();
    std::uint64_t events = runner->simulator().events_processed();
    for (dc::SimTime t = 0; t < horizon;) {
      t = std::min(horizon, (t / kSnapshotEvery + 1) * kSnapshotEvery);
      {
        Scope span(tracer, kRunSpan[model_index(kModel)]);
        runner->run_until(t);
      }
      if (t == horizon) break;
      const std::string path = dc::core::snapshot_path(snapshot_dir_, kModel, t);
      Status saved;
      {
        Scope span(tracer, "snapshot.save");
        saved = runner->save_file(path);
      }
      if (!saved.is_ok()) return saved;
      ++counters.snapshot_saves;
      counters.snapshot_bytes += file_bytes(path);
    }
    events = runner->simulator().events_processed() - events;
    counters.peak_pending = std::max<std::uint64_t>(
        counters.peak_pending, runner->simulator().peak_pending());
    {
      Scope span(tracer, "core.finalize");
      uninterrupted_ = runner->finalize();
      runner.reset();
    }

    const std::string trace_path = io_dir_ + "/trace.json";
    const std::string metrics_path = io_dir_ + "/metrics.csv";
    Status exported;
    {
      Scope span(tracer, "obs.export");
      exported = sink.export_chrome_json(trace_path);
      if (exported.is_ok()) {
        exported = registry.export_timeseries_csv(metrics_path);
      }
    }
    if (!exported.is_ok()) return exported;
    exported_events_ = sink.size();
    counters.trace_events += sink.size();
    counters.trace_dropped += sink.dropped();
    counters.metric_samples += registry.sample_count();
    counters.export_bytes += file_bytes(trace_path) + file_bytes(metrics_path);
    {
      Scope span(tracer, "obs.parse");
      auto parsed = dc::obs::read_chrome_trace(trace_path);
      if (!parsed.is_ok()) return parsed.status();
      if (Status st = dc::obs::validate_trace_nonempty(*parsed, trace_path);
          !st.is_ok()) {
        return st;
      }
      parsed_events_ = parsed->size();
      summary_ = dc::obs::summarize_trace(*parsed);
    }

    // Restore from one boundary, rotating across ops, and run to the end
    // with the same observability configuration as the original run.
    boundary_ = boundaries_[index % boundaries_.size()];
    dc::obs::TraceSink resumed_sink;
    resumed_sink.set_filter(filter_);
    dc::obs::MetricsRegistry resumed_registry;
    dc::obs::PhaseProfiler resumed_profiler;
    options.trace = &resumed_sink;
    options.metrics = &resumed_registry;
    options.profile = &resumed_profiler;
    {
      Scope span(tracer, "core.build");
      runner.emplace(kModel, workload_, options, SystemRunner::Mode::kRestore);
    }
    Status restored;
    {
      Scope span(tracer, "snapshot.restore");
      restored = runner->restore_file(
          dc::core::snapshot_path(snapshot_dir_, kModel, boundary_));
    }
    if (!restored.is_ok()) return restored;
    const std::uint64_t resumed_from = runner->simulator().events_processed();
    {
      Scope span(tracer, kRunSpan[model_index(kModel)]);
      runner->run_until(horizon);
    }
    events += runner->simulator().events_processed() - resumed_from;
    counters.events += events;
    counters.events_by_model[model_index(kModel)] += events;
    {
      Scope span(tracer, "core.finalize");
      resumed_ = runner->finalize();
      runner.reset();
    }
    resumed_events_ = resumed_sink.size();
    counters.adjusted_nodes += uninterrupted_.adjusted_nodes;
    counters.rejected_requests += uninterrupted_.rejected_requests;
    return Status::ok();
  }

  std::string check_op(std::uint64_t index) override {
    std::string errors;
    const std::string outputs = describe(uninterrupted_);
    if (describe(resumed_) != outputs) {
      errors += str_format("restored from t=%lld differs from the "
                           "uninterrupted run; ",
                           static_cast<long long>(boundary_));
    }
    if (resumed_events_ != exported_events_) {
      errors += str_format("restored run traced %zu events, uninterrupted %zu; ",
                           resumed_events_, exported_events_);
    }
    if (parsed_events_ != exported_events_) {
      errors += str_format("trace read back %zu of %zu events; ",
                           parsed_events_, exported_events_);
    }
    if (index == 0) {
      first_ = outputs + summary_;
      if (seed_ == kDefaultSeed) {
        expect(reference_errors_, "DawningCloud total node-hours",
               std::int64_t{69928}, uninterrupted_.total_consumption_node_hours);
        expect(reference_errors_, "DawningCloud peak nodes",
               std::int64_t{424}, uninterrupted_.peak_nodes);
        expect(reference_errors_, "DawningCloud adjusted nodes",
               std::int64_t{21604}, uninterrupted_.adjusted_nodes);
      }
    } else if (outputs + summary_ != first_) {
      errors += "outputs differ from the first op; ";
    }
    return errors + reference_errors_;
  }

 private:
  static constexpr dc::SimDuration kSnapshotEvery = 6 * dc::kHour;

  std::uint64_t seed_;
  std::string io_dir_;
  std::string snapshot_dir_;
  ConsolidationWorkload workload_;
  std::uint32_t filter_ = dc::obs::kTraceAll;
  std::vector<dc::SimTime> boundaries_;
  SystemResult uninterrupted_;
  SystemResult resumed_;
  dc::SimTime boundary_ = 0;
  std::size_t exported_events_ = 0;
  std::size_t parsed_events_ = 0;
  std::size_t resumed_events_ = 0;
  std::string summary_;
  std::string first_;
  std::string reference_errors_;
};

}  // namespace

std::string experiment_config(std::uint64_t seed) {
  // Offsets from the paper's seeds, so the default seed is the paper's. The
  // offset is kept below 2^40 so every provider seed stays a valid config
  // integer.
  const dc::core::PaperSeeds paper;
  const std::uint64_t offset = seed % (std::uint64_t{1} << 40);
  return str_format(
      "# perfbench experiment, workload seed %llu\n"
      "provider NASA\n  workload htc\n  initial-nodes 40\n"
      "  threshold-ratio 1.2\n  subscription 128\n  fixed-nodes 128\n"
      "  trace synthetic:nasa\n  seed %llu\nend\n"
      "provider BLUE\n  workload htc\n  initial-nodes 80\n"
      "  threshold-ratio 1.5\n  subscription 144\n  fixed-nodes 144\n"
      "  trace synthetic:blue\n  seed %llu\nend\n"
      "provider Montage\n  workload mtc\n  initial-nodes 10\n"
      "  threshold-ratio 8\n  fixed-nodes 166\n  submit-time 206h\n"
      "  workflow montage:166\n  seed %llu\nend\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(paper.nasa + offset),
      static_cast<unsigned long long>(paper.blue + offset),
      static_cast<unsigned long long>(paper.montage + offset));
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& io_dir) {
  if (name == "paper") return std::make_unique<PaperWorkload>(seed, io_dir);
  if (name == "policy_sweep") {
    return std::make_unique<PolicySweepWorkload>(seed, io_dir);
  }
  if (name == "checkpoint_trace") {
    return std::make_unique<CheckpointTraceWorkload>(seed, io_dir);
  }
  return nullptr;
}

}  // namespace perfbench
