// mtc_montage: run a Montage mosaic workflow through the MTC runtime
// environment, watching the DSP policy resize the TRE live.
//
// The example prints the workflow structure, then samples the TRE's owned/
// busy nodes while the workflow executes — showing the B=10 -> 166 node
// expansion at the first 3-second scan and the release after completion.
//
// Usage: mtc_montage [inputs >= 2] [B >= 0] [R > 0]
#include <cstdio>

#include "args.hpp"
#include "core/mtc_server.hpp"
#include "core/provision_service.hpp"
#include "sched/fcfs.hpp"
#include "sim/simulator.hpp"
#include "workflow/montage.hpp"

int main(int argc, char** argv) {
  using namespace dc;
  const char* program = "mtc_montage";
  const auto inputs =
      examples::int_arg(program, argc, argv, 1, "inputs", 2, 166);
  const auto b = examples::int_arg(program, argc, argv, 2, "B", 0, 10);
  const auto r = examples::positive_arg(program, argc, argv, 3, "R", 8.0);
  if (!inputs || !b || !r) return 2;
  workflow::MontageParams params;
  params.inputs = *inputs;

  const workflow::Dag dag = workflow::make_montage(params, /*seed=*/7);
  std::printf("Montage workflow: %zu tasks, %zu edges, mean runtime %.2fs\n",
              dag.size(), dag.edge_count(), dag.mean_runtime());
  std::printf("  critical path %llds, total work %llds, widest level %zu tasks\n\n",
              static_cast<long long>(dag.critical_path()),
              static_cast<long long>(dag.total_work()), dag.max_level_width());

  sim::Simulator sim;
  core::ResourceProvisionService provision(cluster::ResourcePool::unbounded());
  sched::FcfsScheduler fcfs;

  core::MtcServer::MtcConfig config;
  config.name = "montage-tre";
  config.policy = core::ResourceManagementPolicy::mtc(*b, *r);
  config.scheduler = &fcfs;
  core::MtcServer server(sim, provision, std::move(config));

  sim.schedule_at(0, [&] {
    server.start();
    server.submit_workflow(dag);
  });

  // Sample the TRE every 30 simulated seconds while it works.
  std::puts("  time      owned   busy   queued   completed");
  for (SimTime t = 0; t <= 15 * kMinute; t += 30) {
    sim.schedule_at(t, [&, t] {
      if (server.is_shutdown()) return;
      std::printf("  %-8s  %5lld  %5lld  %7zu  %10lld\n",
                  format_time(t).c_str() + 3,  // strip "0d "
                  static_cast<long long>(server.owned()),
                  static_cast<long long>(server.busy()),
                  server.queue_length(),
                  static_cast<long long>(server.completed_tasks()));
    });
  }
  sim.run_until(kDay);

  const SimTime horizon = kDay;
  std::printf("\nresult: %lld tasks in %llds -> %.2f tasks/s, "
              "%lld node*hours billed\n",
              static_cast<long long>(server.completed_tasks(horizon)),
              static_cast<long long>(server.makespan(horizon)),
              server.tasks_per_second(horizon),
              static_cast<long long>(
                  server.ledger().billed_node_hours(horizon)));
  return 0;
}
