// Ablation: hardware reliability (extension — the paper assumes perfect
// nodes).
//
// Injects Poisson node failures into the DawningCloud TREs while they run
// the paper's consolidated workload, sweeping the platform's mean time
// between failures. Failed nodes are swapped transparently by the provider
// (billing unchanged) but running jobs are lost and retried from scratch,
// so the cost of unreliability shows up as retries, longer makespans and
// extra setup adjustments — not node*hours.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/fault/fault_domain.hpp"
#include "core/job_emulator.hpp"
#include "core/mtc_server.hpp"
#include "core/paper.hpp"
#include "sched/fcfs.hpp"
#include "sched/first_fit.hpp"
#include "util/strings.hpp"

int main() {
  using namespace dc;

  struct Row {
    const char* label;
    SimDuration mtbf;  // 0 = no failures
  };
  const std::vector<Row> rows = {
      {"no failures", 0},
      {"MTBF 48h", 48 * kHour},
      {"MTBF 12h", 12 * kHour},
      {"MTBF 3h", 3 * kHour},
  };

  auto csv = bench::open_csv("ablation_failures");
  csv.header({"mtbf_hours", "failure_events", "nodes_failed", "jobs_killed",
              "completed_jobs", "total_node_hours", "adjusted_nodes"});
  TextTable table({"reliability", "events", "nodes failed", "jobs killed",
                   "completed", "node*hours", "adjustments"});

  for (const Row& row : rows) {
    sim::Simulator sim;
    core::ResourceProvisionService provision(cluster::ResourcePool::unbounded());
    core::JobEmulator emulator(sim);
    sched::FirstFitScheduler first_fit;
    sched::FcfsScheduler fcfs;

    const auto workload = core::paper_consolidation();
    std::vector<std::unique_ptr<core::HtcServer>> htc_servers;
    for (const auto& spec : workload.htc) {
      core::HtcServer::Config config;
      config.name = spec.name;
      config.policy = spec.policy;
      config.scheduler = &first_fit;
      htc_servers.push_back(
          std::make_unique<core::HtcServer>(sim, provision, std::move(config)));
      core::HtcServer* server = htc_servers.back().get();
      sim.schedule_at(0, [server] { server->start(); });
      emulator.emulate_trace(spec.trace, [server](const workload::TraceJob& j) {
        server->submit(j.runtime, j.nodes);
      });
    }
    std::vector<std::unique_ptr<core::MtcServer>> mtc_servers;
    for (const auto& spec : workload.mtc) {
      core::MtcServer::MtcConfig config;
      config.name = spec.name;
      config.policy = spec.policy;
      config.scheduler = &fcfs;
      mtc_servers.push_back(
          std::make_unique<core::MtcServer>(sim, provision, std::move(config)));
      core::MtcServer* server = mtc_servers.back().get();
      const workflow::Dag* dag = &spec.dag;
      emulator.emulate_at(spec.submit_time, [server, dag] {
        server->start();
        server->submit_workflow(*dag);
      });
    }

    const SimTime horizon = workload.effective_horizon();
    core::fault::FaultDomain::Config injector_config;
    injector_config.mean_time_between_failures = row.mtbf == 0 ? kHour : row.mtbf;
    core::fault::FaultDomain injector(sim, injector_config);
    for (auto& server : htc_servers) injector.watch(server.get());
    for (auto& server : mtc_servers) injector.watch(server.get());
    if (row.mtbf > 0) {
      sim.schedule_at(1, [&injector, horizon] { injector.start(horizon); });
    }

    sim.run_until(horizon);
    std::int64_t completed = 0, node_hours = 0, retries = 0;
    for (auto& server : htc_servers) {
      server->shutdown();
      completed += server->completed_jobs(horizon);
      node_hours += server->ledger().billed_node_hours(horizon);
      retries += server->job_retries();
    }
    for (auto& server : mtc_servers) {
      server->shutdown();
      completed += server->completed_jobs(horizon);
      node_hours += server->ledger().billed_node_hours(horizon);
      retries += server->job_retries();
    }
    (void)retries;

    table.cell(row.label)
        .cell(injector.failure_events())
        .cell(injector.nodes_failed())
        .cell(injector.jobs_killed())
        .cell(completed)
        .cell(node_hours)
        .cell(provision.adjustments().total_adjusted_nodes());
    table.end_row();
    csv.cell(row.mtbf / kHour)
        .cell(injector.failure_events())
        .cell(injector.nodes_failed())
        .cell(injector.jobs_killed())
        .cell(completed)
        .cell(node_hours)
        .cell(provision.adjustments().total_adjusted_nodes());
    csv.end_row();
  }
  std::puts(table
                .render("Ablation: DawningCloud under node failures "
                        "(transparent hardware swap, jobs retried)")
                .c_str());
  return 0;
}
