// The four evaluated systems (Section 4.1, Figures 6-8) and the experiment
// runner that consolidates multiple service providers on one platform.
//
// Emulated configurations:
//  * DCS  — each provider owns a dedicated fixed-size cluster; no resource
//           provider, no setup overhead; consumption = size x period.
//  * SSP  — each provider leases a fixed-size virtual cluster for the whole
//           period (Evangelinos et al.); same mechanics as DCS, but leased:
//           adjustments happen at RE startup/finalization and the TCO model
//           differs (src/cost).
//  * DRP  — end users lease VMs per job (Deelman et al.); no queues.
//  * DawningCloud — the DSP model: TREs created on demand through the
//           lifecycle service, elastic resource management per Section 3.2.
//
// All four consume identical workloads through the same job emulator, so
// differences in the results come only from the usage model — exactly the
// paper's experimental design.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fault/fault_domain.hpp"
#include "core/fault/recovery.hpp"
#include "core/lifecycle.hpp"
#include "core/policies.hpp"
#include "util/status.hpp"
#include "util/time.hpp"
#include "workflow/dag.hpp"
#include "workload/trace.hpp"

namespace dc::obs {
class MetricsRegistry;
class PhaseProfiler;
class TraceSink;
}  // namespace dc::obs

namespace dc::core {

enum class SystemModel { kDcs, kSsp, kDrp, kDawningCloud };

const char* system_model_name(SystemModel model);

/// "dcs" | "ssp" | "drp" | "dawningcloud"; invalid_argument otherwise.
StatusOr<SystemModel> parse_system_model(std::string_view name);

/// Static usage-model traits (Table 1 of the paper).
struct SystemTraits {
  const char* resource_property;    // local / leased
  const char* runtime_environment;  // stereotyped / no offering / on demand
  const char* provisioning;         // fixed / manual / flexible
};
SystemTraits system_traits(SystemModel model);

/// One HTC service provider's workload and configuration.
struct HtcWorkloadSpec {
  std::string name;
  workload::Trace trace;
  /// RE size in the SSP/DCS systems — "the maximal resource requirements"
  /// of the trace (Section 4.4).
  std::int64_t fixed_nodes = 0;
  /// DawningCloud resource-management parameters (B, R).
  ResourceManagementPolicy policy = ResourceManagementPolicy::htc(40, 1.5);
  /// Provision-service priority under queue-by-priority contention.
  int priority = 0;
};

/// One MTC service provider's workload and configuration.
struct MtcWorkloadSpec {
  std::string name;
  workflow::Dag dag;
  SimTime submit_time = 0;
  /// RE size in SSP/DCS — the paper uses 166 nodes, the workflow's
  /// steady-state demand (Section 4.4).
  std::int64_t fixed_nodes = 0;
  ResourceManagementPolicy policy = ResourceManagementPolicy::mtc(10, 8.0);
  /// Provision-service priority under queue-by-priority contention.
  int priority = 0;
};

/// The consolidated workload of one experiment: any number of HTC and MTC
/// service providers sharing one resource provider (the paper's instance is
/// 2 HTC + 1 MTC; the framework supports the generalized m-provider case of
/// the paper's future-work section).
struct ConsolidationWorkload {
  std::vector<HtcWorkloadSpec> htc;
  std::vector<MtcWorkloadSpec> mtc;
  /// Experiment horizon; 0 = computed from the workloads (max trace period,
  /// at least two hours past the last MTC submission).
  SimTime horizon = 0;

  SimTime effective_horizon() const;
};

/// Per-service-provider outcome (the paper's Tables 2-4 rows).
struct ProviderResult {
  std::string provider;
  WorkloadType type = WorkloadType::kHtc;
  std::int64_t submitted_jobs = 0;
  std::int64_t completed_jobs = 0;     // finished within the horizon
  double tasks_per_second = 0.0;       // MTC metric (completed/makespan)
  std::int64_t consumption_node_hours = 0;  // hourly-quantum billed
  double exact_node_hours = 0.0;            // unquantized, for ablations
  std::int64_t peak_nodes = 0;              // provider's own concurrent peak
  SimDuration makespan = 0;                 // MTC: submit..last completion
  /// Queueing delay of the jobs started within the horizon. DRP has zero
  /// wait by construction ("all jobs run immediately without queuing");
  /// the queue-based systems trade wait time for consumption.
  double mean_wait_seconds = 0.0;
  SimDuration max_wait_seconds = 0;

  // Fault-tolerance metrics (all zero/1.0 when fault injection is off).
  std::int64_t jobs_killed = 0;      // attempts killed by node failures
  std::int64_t jobs_failed = 0;      // retry budget exhausted
  std::int64_t grant_timeouts = 0;   // starved waits withdrawn and reissued
  double goodput_node_hours = 0.0;   // useful work delivered (completions)
  double wasted_node_hours = 0.0;    // re-run / abandoned execution
  /// Healthy fraction of the provider's held node*hours. DRP is 1.0 by
  /// construction: a failed VM's lease ends at the failure instant, so the
  /// user never holds broken capacity (they pay in re-runs instead).
  double availability = 1.0;
};

/// Platform-level outcome (the paper's Figures 12-14).
struct SystemResult {
  SystemModel model = SystemModel::kDcs;
  SimTime horizon = 0;
  std::vector<ProviderResult> providers;

  std::int64_t total_consumption_node_hours = 0;
  std::int64_t peak_nodes = 0;           // max concurrent platform usage
  std::int64_t adjusted_nodes = 0;       // Figure 14 accumulated adjustments
  double overhead_seconds = 0.0;         // adjusted * 15.743 s
  double overhead_seconds_per_hour = 0.0;
  std::int64_t rejected_requests = 0;
  std::uint64_t simulated_events = 0;
  /// Max concurrent platform usage per hour — the Figure 13 series.
  std::vector<std::int64_t> hourly_peak_series;

  // Fault-injection outcome (zero/1.0 when RunOptions::faults is unset).
  std::int64_t failure_events = 0;
  std::int64_t nodes_failed = 0;
  std::int64_t nodes_repaired = 0;
  std::int64_t jobs_killed = 0;
  std::int64_t jobs_failed = 0;
  double goodput_node_hours = 0.0;
  double wasted_node_hours = 0.0;
  /// Held-node-hour-weighted availability across providers.
  double availability = 1.0;

  const ProviderResult& provider(const std::string& name) const;
};

/// HTC queue scheduling policy (the paper uses first-fit; the others are
/// extensions for the scheduler ablation).
enum class HtcSchedulerKind {
  kFirstFit,
  kEasyBackfill,
  kConservativeBackfill,
  kSjf,
};

const char* htc_scheduler_name(HtcSchedulerKind kind);

/// The htc_scheduler_name spellings; invalid_argument otherwise.
StatusOr<HtcSchedulerKind> parse_htc_scheduler(std::string_view name);

/// Options beyond the paper's defaults, used by the ablation benches.
struct RunOptions {
  /// Billing quantum (default one hour, Section 4.4).
  SimDuration billing_quantum = kHour;
  /// HTC queue scheduler (paper: first-fit).
  HtcSchedulerKind htc_scheduler = HtcSchedulerKind::kFirstFit;
  /// Bound the platform pool (0 = unbounded). Requests beyond the bound are
  /// rejected, exercising the provision policy's rejection path.
  std::int64_t platform_capacity = 0;
  /// Node setup time applied behaviourally: granted nodes (and fresh DRP
  /// VMs) become usable only after this many seconds, while billing starts
  /// at the grant. 0 (the paper's accounting: setup reported separately in
  /// Figure 14) by default; the ablation_setup bench turns it on.
  SimDuration setup_latency = 0;
  /// Contention handling at the provision service: reject outright (the
  /// Section 3.2.2.3 default) or queue unsatisfied requests by consumer
  /// priority (the Section 3.2.1 "in what priority" knob). Only observable
  /// with a bounded platform_capacity.
  ProvisionPolicy::ContentionMode contention =
      ProvisionPolicy::ContentionMode::kReject;
  /// Fault injection: when set, one seeded failure domain watches every
  /// provider of the system under test (servers in DCS/SSP/DawningCloud,
  /// per-organization runners in DRP) over the whole horizon. The same
  /// config — same seed — drives all four systems, so availability results
  /// are comparable across usage models.
  std::optional<fault::FaultDomain::Config> faults;
  /// Recovery policy (retry budget, backoff, checkpoints, grant timeout)
  /// applied to every provider. Defaults reproduce the legacy semantics:
  /// unlimited immediate retries from scratch.
  fault::FaultRecoveryPolicy recovery;

  // --- Observability (docs/OBSERVABILITY.md). All three hooks are
  // borrowed, per-run, and may be null (the default: zero overhead
  // beyond a pointer test at each emission site). Parallel sweeps must
  // give each lane its own sink/registry/profiler — or none.
  /// Structured trace sink; every daemon of the run emits into it.
  obs::TraceSink* trace = nullptr;
  /// Metrics registry for the periodic timeseries sampler.
  obs::MetricsRegistry* metrics = nullptr;
  /// Sampler period; 0 disables the sampler even when `metrics` is set.
  SimDuration metrics_every = 0;
  /// Wall-clock phase profiler (dispatch, snapshot save/restore).
  obs::PhaseProfiler* profile = nullptr;

  /// Replay-attach mode (docs/OBSERVABILITY.md "Time-travel analysis").
  /// A normal resume must carry the original run's observability
  /// configuration forward (the trace ring is part of the byte-identity
  /// contract); a replay deliberately does not: `dc replay` restores a
  /// snapshot with tracing forced on to watch a window of an *untraced*
  /// run, or with a fresh sink to capture only the window's events. When
  /// set, restore() decodes a snapshot's trace ring into a discarded
  /// scratch sink instead of refusing on a trace/no-trace mismatch, and
  /// any caller-provided sink starts empty at the boundary.
  bool replay = false;
};

/// The run vocabulary, in canonical order: `dawningcloud run` flags and
/// sweep axes alike, both read by parse_run_settings, so a sweep cell runs
/// exactly the world the same flags would.
const std::vector<std::string>& run_setting_keys();

/// A world as parse_run_settings reads it: the model when `system` was
/// given, and the options the other keys set (the rest keep defaults).
struct RunSettings {
  std::optional<SystemModel> model;
  RunOptions options;
};

/// Reads (key, value) pairs of the run vocabulary. quantum, mttf and mttr
/// are positive durations, setup a duration, capacity a node count (0 =
/// unbounded), fault-seed an integer (a negative one wraps). mttf and mttr
/// go together and turn faults on; fault-seed needs them. Errors name the
/// key and the value: invalid_argument, or out_of_range for a number that
/// does not fit.
StatusOr<RunSettings> parse_run_settings(
    const std::vector<std::pair<std::string, std::string>>& settings);

/// Runs one system over the workload. Deterministic.
SystemResult run_system(SystemModel model, const ConsolidationWorkload& workload,
                        const RunOptions& options = {});

/// Runs all four systems (convenience for comparison benches/examples).
std::vector<SystemResult> run_all_systems(const ConsolidationWorkload& workload,
                                          const RunOptions& options = {});

}  // namespace dc::core
