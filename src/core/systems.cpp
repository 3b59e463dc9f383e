#include "core/systems.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/description.hpp"
#include "core/system_runner.hpp"
#include "util/strings.hpp"

namespace dc::core {
namespace {

/// "<key> wants <what>, got '<value>'", with the code of the parse error
/// behind it (out_of_range for a number that does not fit).
Status refuse(std::string_view key, const char* what, std::string_view value,
              StatusCode code = StatusCode::kInvalidArgument) {
  return Status(code, str_format("%.*s wants %s, got '%.*s'",
                                 static_cast<int>(key.size()), key.data(), what,
                                 static_cast<int>(value.size()), value.data()));
}

/// Reads a duration into `out`; `positive` refuses 0 as well.
Status read_duration(std::string_view key, std::string_view value,
                     bool positive, SimDuration& out) {
  const char* what = positive ? "a positive duration" : "a duration";
  auto duration = parse_duration(value);
  if (!duration.is_ok()) {
    return refuse(key, what, value, duration.status().code());
  }
  if (positive && *duration <= 0) return refuse(key, what, value);
  out = *duration;
  return Status::ok();
}

/// Reads an integer of at least `min` into `out`.
Status read_integer(std::string_view key, std::string_view value,
                    const char* what, std::int64_t min, std::int64_t& out) {
  auto number = parse_int(value);
  if (!number.is_ok()) return refuse(key, what, value, number.status().code());
  if (*number < min) return refuse(key, what, value);
  out = *number;
  return Status::ok();
}

}  // namespace

const char* system_model_name(SystemModel model) {
  switch (model) {
    case SystemModel::kDcs: return "DCS";
    case SystemModel::kSsp: return "SSP";
    case SystemModel::kDrp: return "DRP";
    case SystemModel::kDawningCloud: return "DawningCloud";
  }
  return "?";
}

StatusOr<SystemModel> parse_system_model(std::string_view name) {
  if (name == "dcs") return SystemModel::kDcs;
  if (name == "ssp") return SystemModel::kSsp;
  if (name == "drp") return SystemModel::kDrp;
  if (name == "dawningcloud") return SystemModel::kDawningCloud;
  return Status::invalid_argument(
      "unknown system '" + std::string(name) + "' (dcs|ssp|drp|dawningcloud)");
}

const char* htc_scheduler_name(HtcSchedulerKind kind) {
  switch (kind) {
    case HtcSchedulerKind::kFirstFit: return "first-fit";
    case HtcSchedulerKind::kEasyBackfill: return "easy-backfill";
    case HtcSchedulerKind::kConservativeBackfill: return "conservative-backfill";
    case HtcSchedulerKind::kSjf: return "sjf";
  }
  return "?";
}

StatusOr<HtcSchedulerKind> parse_htc_scheduler(std::string_view name) {
  for (HtcSchedulerKind kind :
       {HtcSchedulerKind::kFirstFit, HtcSchedulerKind::kEasyBackfill,
        HtcSchedulerKind::kConservativeBackfill, HtcSchedulerKind::kSjf}) {
    if (name == htc_scheduler_name(kind)) return kind;
  }
  return Status::invalid_argument(
      "unknown scheduler '" + std::string(name) +
      "' (first-fit|easy-backfill|conservative-backfill|sjf)");
}

const std::vector<std::string>& run_setting_keys() {
  static const std::vector<std::string> kKeys = {
      "system", "scheduler", "quantum", "capacity", "setup",
      "mttf",   "mttr",      "fault-seed"};
  return kKeys;
}

StatusOr<RunSettings> parse_run_settings(
    const std::vector<std::pair<std::string, std::string>>& settings) {
  RunSettings run;
  std::optional<SimDuration> mttf;
  std::optional<SimDuration> mttr;
  std::optional<std::int64_t> fault_seed;
  for (const auto& [key, value] : settings) {
    Status st;
    if (key == "system") {
      auto model = parse_system_model(value);
      if (!model.is_ok()) return model.status();
      run.model = *model;
    } else if (key == "scheduler") {
      auto scheduler = parse_htc_scheduler(value);
      if (!scheduler.is_ok()) return scheduler.status();
      run.options.htc_scheduler = *scheduler;
    } else if (key == "quantum") {
      st = read_duration(key, value, /*positive=*/true,
                         run.options.billing_quantum);
    } else if (key == "capacity") {
      st = read_integer(key, value, "a node count (0 = unbounded)", 0,
                        run.options.platform_capacity);
    } else if (key == "setup") {
      st = read_duration(key, value, /*positive=*/false,
                         run.options.setup_latency);
    } else if (key == "mttf") {
      st = read_duration(key, value, /*positive=*/true, mttf.emplace());
    } else if (key == "mttr") {
      st = read_duration(key, value, /*positive=*/true, mttr.emplace());
    } else if (key == "fault-seed") {
      st = read_integer(key, value, "an integer",
                        std::numeric_limits<std::int64_t>::min(),
                        fault_seed.emplace());
    } else {
      return Status::invalid_argument("unknown key '" + key +
                                      "' (known keys: " +
                                      join(run_setting_keys(), ", ") + ")");
    }
    if (!st.is_ok()) return st;
  }
  if (mttf.has_value() != mttr.has_value()) {
    return Status::invalid_argument("mttf and mttr must be given together");
  }
  if (fault_seed.has_value() && !mttf.has_value()) {
    return Status::invalid_argument("fault-seed needs mttf and mttr");
  }
  if (mttf.has_value()) {
    fault::FaultDomain::Config& faults = run.options.faults.emplace();
    faults.mean_time_between_failures = *mttf;
    faults.mean_time_to_repair = *mttr;
    if (fault_seed.has_value()) {
      faults.seed = static_cast<std::uint64_t>(*fault_seed);
    }
  }
  return run;
}

SystemTraits system_traits(SystemModel model) {
  switch (model) {
    case SystemModel::kDcs:
      return {"local", "stereotyped", "fixed"};
    case SystemModel::kSsp:
      return {"leased", "stereotyped", "fixed"};
    case SystemModel::kDrp:
      return {"leased", "no offering", "manual"};
    case SystemModel::kDawningCloud:
      return {"leased", "created on the demand", "flexible"};
  }
  return {"?", "?", "?"};
}

SimTime ConsolidationWorkload::effective_horizon() const {
  if (horizon > 0) return horizon;
  SimTime h = 0;
  for (const HtcWorkloadSpec& spec : htc) {
    h = std::max(h, spec.trace.period());
  }
  for (const MtcWorkloadSpec& spec : mtc) {
    const SimTime bound =
        spec.submit_time +
        std::max<SimDuration>(2 * kHour,
                              ceil_div(spec.dag.critical_path(), kHour) * kHour +
                                  kHour);
    h = std::max(h, bound);
  }
  return h;
}

const ProviderResult& SystemResult::provider(const std::string& name) const {
  for (const ProviderResult& p : providers) {
    if (p.provider == name) return p;
  }
  assert(false && "unknown provider name");
  return providers.front();
}

// The world construction, arming, and result extraction for all four
// systems lives in SystemRunner (system_runner.cpp) so the same code path
// serves uninterrupted runs, periodic-snapshot runs, and crash resumes.
SystemResult run_system(SystemModel model,
                        const ConsolidationWorkload& workload,
                        const RunOptions& options) {
  SystemRunner runner(model, workload, options);
  runner.run_until(runner.horizon());
  return runner.finalize();
}

std::vector<SystemResult> run_all_systems(const ConsolidationWorkload& workload,
                                          const RunOptions& options) {
  return {run_system(SystemModel::kDcs, workload, options),
          run_system(SystemModel::kSsp, workload, options),
          run_system(SystemModel::kDrp, workload, options),
          run_system(SystemModel::kDawningCloud, workload, options)};
}

}  // namespace dc::core
