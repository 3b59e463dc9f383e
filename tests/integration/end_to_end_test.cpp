// Integration tests: whole-pipeline flows across module boundaries —
// file formats in and out, the emulator's time scaling, invariant sampling
// during live runs, and cross-system metric relations.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/htc_server.hpp"
#include "core/job_emulator.hpp"
#include "core/mtc_server.hpp"
#include "core/paper.hpp"
#include "core/systems.hpp"
#include "sched/fcfs.hpp"
#include "sched/first_fit.hpp"
#include "workflow/montage.hpp"
#include "workflow/wff.hpp"
#include "workload/models.hpp"
#include "workload/swf.hpp"

namespace dc {
namespace {

TEST(EndToEnd, SwfFileRoundTripPreservesSystemResults) {
  // Generate -> write SWF -> read -> run; must equal the in-memory run.
  const workload::Trace original = workload::make_nasa_ipsc(99);
  const std::string path = ::testing::TempDir() + "/e2e.swf";
  ASSERT_TRUE(workload::write_swf_file(path, original.to_swf()).is_ok());
  auto swf = workload::read_swf_file(path);
  ASSERT_TRUE(swf.is_ok());
  auto loaded = workload::Trace::from_swf(*swf, "loaded");
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded->period(), original.period());
  std::remove(path.c_str());

  core::HtcWorkloadSpec mem_spec;
  mem_spec.name = "w";
  mem_spec.trace = original;
  mem_spec.fixed_nodes = 128;
  core::HtcWorkloadSpec file_spec = mem_spec;
  file_spec.trace = *loaded;

  const auto mem = core::run_system(core::SystemModel::kDcs,
                                    core::single_htc_workload(mem_spec));
  const auto file = core::run_system(core::SystemModel::kDcs,
                                     core::single_htc_workload(file_spec));
  EXPECT_EQ(mem.provider("w").completed_jobs, file.provider("w").completed_jobs);
  EXPECT_EQ(mem.provider("w").consumption_node_hours,
            file.provider("w").consumption_node_hours);
  EXPECT_DOUBLE_EQ(mem.provider("w").mean_wait_seconds,
                   file.provider("w").mean_wait_seconds);
}

TEST(EndToEnd, WffFileRoundTripPreservesWorkflowExecution) {
  const workflow::Dag original = workflow::make_paper_montage(11);
  const std::string path = ::testing::TempDir() + "/e2e.wff";
  ASSERT_TRUE(workflow::write_wff_file(path, original).is_ok());
  auto loaded = workflow::read_wff_file(path);
  ASSERT_TRUE(loaded.is_ok());
  std::remove(path.c_str());

  auto run_makespan = [](const workflow::Dag& dag) {
    sim::Simulator sim;
    core::ResourceProvisionService provision(cluster::ResourcePool::unbounded());
    sched::FcfsScheduler fcfs;
    core::MtcServer::MtcConfig config;
    config.name = "wf";
    config.fixed_nodes = 166;
    config.scheduler = &fcfs;
    core::MtcServer server(sim, provision, std::move(config));
    sim.schedule_at(0, [&] {
      server.start();
      server.submit_workflow(dag);
    });
    sim.run_until(kDay);
    return server.makespan(kDay);
  };
  EXPECT_EQ(run_makespan(original), run_makespan(*loaded));
}

TEST(EndToEnd, JobEmulatorTimeScaleCompressesSubmissions) {
  // The paper's 100x emulation speedup: submit times and runtimes divide
  // by the factor.
  workload::Trace trace("t", 8,
                        {workload::TraceJob{1, 1000, 500, 2},
                         workload::TraceJob{2, 2000, 100, 1}});
  sim::Simulator sim;
  core::JobEmulator emulator(sim, /*time_scale=*/100.0);
  std::vector<std::pair<SimTime, SimDuration>> submissions;
  emulator.emulate_trace(trace, [&](const workload::TraceJob& job) {
    submissions.push_back({sim.now(), job.runtime});
  });
  sim.run();
  ASSERT_EQ(submissions.size(), 2u);
  EXPECT_EQ(submissions[0].first, 10);
  EXPECT_EQ(submissions[0].second, 5);
  EXPECT_EQ(submissions[1].first, 20);
  EXPECT_EQ(submissions[1].second, 1);
}

TEST(EndToEnd, ServerInvariantsHoldThroughoutALiveRun) {
  // Sample the elastic server every 10 minutes: busy <= owned, idle >= 0,
  // the provision service's allocation equals the server's holding, and
  // the held-usage recorder agrees.
  core::HtcWorkloadSpec spec = core::paper_nasa_spec(7);
  sim::Simulator sim;
  core::ResourceProvisionService provision(cluster::ResourcePool::unbounded());
  sched::FirstFitScheduler first_fit;
  core::HtcServer::Config config;
  config.name = "inv";
  config.policy = spec.policy;
  config.scheduler = &first_fit;
  core::HtcServer server(sim, provision, std::move(config));
  sim.schedule_at(0, [&] { server.start(); });
  core::JobEmulator emulator(sim);
  emulator.emulate_trace(spec.trace, [&](const workload::TraceJob& job) {
    server.submit(job.runtime, job.nodes);
  });
  const SimTime horizon = spec.trace.period();
  int violations = 0;
  for (SimTime t = 10 * kMinute; t <= horizon; t += 10 * kMinute) {
    sim.schedule_at(t, [&] {
      if (server.busy() > server.owned()) ++violations;
      if (server.idle() < 0) ++violations;
      if (provision.allocated() != server.owned()) ++violations;
      if (server.held_usage().current() != server.owned()) ++violations;
      if (server.dispatchable_idle() < 0) ++violations;
    });
  }
  sim.run_until(horizon);
  EXPECT_EQ(violations, 0);
}

TEST(EndToEnd, WaitTimesOrderAcrossSystems) {
  const auto workload =
      core::single_htc_workload(core::paper_blue_spec());
  const auto results = core::run_all_systems(workload);
  const auto& dcs = results[0].provider("BLUE");
  const auto& drp = results[2].provider("BLUE");
  const auto& dawning = results[3].provider("BLUE");
  EXPECT_DOUBLE_EQ(drp.mean_wait_seconds, 0.0)
      << "DRP runs everything immediately";
  EXPECT_EQ(drp.max_wait_seconds, 0);
  EXPECT_GT(dcs.mean_wait_seconds, 0.0)
      << "the loaded BLUE trace queues in the fixed system";
  EXPECT_GT(dawning.mean_wait_seconds, 0.0);
}

TEST(EndToEnd, ExactNeverExceedsBilledConsumption) {
  for (const auto& result :
       core::run_all_systems(core::paper_consolidation())) {
    for (const auto& provider : result.providers) {
      EXPECT_LE(provider.exact_node_hours,
                static_cast<double>(provider.consumption_node_hours) + 1e-6)
          << system_model_name(result.model) << "/" << provider.provider;
    }
  }
}

TEST(EndToEnd, SetupLatencyDelaysButDoesNotLoseJobs) {
  core::RunOptions options;
  options.setup_latency = 16;
  const auto workload = core::single_htc_workload(core::paper_nasa_spec());
  const auto with_setup =
      core::run_system(core::SystemModel::kDawningCloud, workload, options);
  const auto without =
      core::run_system(core::SystemModel::kDawningCloud, workload);
  EXPECT_EQ(with_setup.provider("NASA").completed_jobs,
            without.provider("NASA").completed_jobs);
  EXPECT_GE(with_setup.provider("NASA").mean_wait_seconds,
            without.provider("NASA").mean_wait_seconds);
}

}  // namespace
}  // namespace dc
