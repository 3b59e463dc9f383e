// Ablation: availability under hardware failures, across all four systems
// (extension — the paper assumes perfect nodes).
//
// One seeded failure domain (same config, same seed) drives DCS, SSP, DRP
// and DawningCloud through the full failure -> repair lifecycle while they
// run the paper's consolidated workload. The MTTF sweep shows how each
// usage model degrades:
//
//  * DCS/SSP/DawningCloud hold broken capacity until the repair lands, so
//    their availability (healthy share of held node*hours) drops with the
//    failure rate, and killed jobs re-run on the surviving nodes.
//  * DRP never holds broken capacity — a failed VM's lease ends at the
//    failure instant — so its availability stays 1.0 and the damage shows
//    up purely as wasted re-run node*hours on fresh VMs.
//
// Each MTTF point runs twice, without and with periodic checkpoints, to
// price the recovery policy: checkpointed work re-runs only the tail past
// the last checkpoint, so its wasted node*hours are strictly lower
// whenever anything was killed mid-run.
#include <cstdio>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/paper.hpp"
#include "core/systems.hpp"
#include "metrics/report.hpp"

int main() {
  using namespace dc;

  struct Point {
    const char* label;
    SimDuration mttf;  // 0 = no failures
  };
  const std::vector<Point> points = {
      {"none", 0},
      {"48h", 48 * kHour},
      {"12h", 12 * kHour},
      {"3h", 3 * kHour},
  };
  struct Policy {
    const char* label;
    SimDuration checkpoint_interval;
  };
  const std::vector<Policy> policies = {
      {"nockpt", 0},
      {"ckpt30m", 30 * kMinute},
  };

  const auto workload = core::paper_consolidation();
  auto csv = bench::open_csv("ablation_availability");
  csv.header({"mttf_hours", "policy", "system", "availability",
              "goodput_node_hours", "wasted_node_hours", "failure_events",
              "nodes_failed", "nodes_repaired", "jobs_killed", "jobs_failed",
              "completed", "consumption_node_hours"});

  for (const Point& point : points) {
    for (const Policy& policy : policies) {
      core::RunOptions options;
      if (point.mttf > 0) {
        // One seeded config — same seed, same MTTF/MTTR process — drives
        // all four systems, so the availability columns are comparable.
        core::fault::FaultDomain::Config faults;
        faults.mean_time_between_failures = point.mttf;
        faults.mean_time_to_repair = 30 * kMinute;
        options.faults = faults;
        options.recovery.max_retries = 5;
        options.recovery.retry_backoff = kMinute;
        options.recovery.checkpoint_interval = policy.checkpoint_interval;
      }
      const std::vector<core::SystemResult> results =
          core::run_all_systems(workload, options);
      for (const core::SystemResult& result : results) {
        std::int64_t completed = 0;
        for (const auto& provider : result.providers) {
          completed += provider.completed_jobs;
        }
        csv.cell(point.mttf / kHour)
            .cell(std::string_view(policy.label))
            .cell(std::string_view(core::system_model_name(result.model)))
            .cell(result.availability, 6)
            .cell(result.goodput_node_hours, 2)
            .cell(result.wasted_node_hours, 2)
            .cell(result.failure_events)
            .cell(result.nodes_failed)
            .cell(result.nodes_repaired)
            .cell(result.jobs_killed)
            .cell(result.jobs_failed)
            .cell(completed)
            .cell(result.total_consumption_node_hours);
        csv.end_row();
      }
      if (policy.checkpoint_interval > 0 || point.mttf == 0) {
        std::printf("MTTF %s, MTTR 30m, policy %s:\n", point.label,
                    policy.label);
        std::puts(metrics::format_availability_report(results).c_str());
      }
    }
  }
  return 0;
}
