#include "core/fault/fault_domain.hpp"

#include <gtest/gtest.h>

#include "core/mtc_server.hpp"
#include "sched/fcfs.hpp"
#include "sched/first_fit.hpp"
#include "workflow/montage.hpp"

namespace dc::core {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  HtcServer& make_fixed(std::int64_t nodes,
                        fault::FaultRecoveryPolicy recovery = {}) {
    HtcServer::Config config;
    config.name = "f";
    config.fixed_nodes = nodes;
    config.scheduler = &first_fit_;
    config.recovery = recovery;
    server_ = std::make_unique<HtcServer>(sim_, provision_, std::move(config));
    return *server_;
  }

  sim::Simulator sim_;
  ResourceProvisionService provision_{cluster::ResourcePool::unbounded()};
  sched::FirstFitScheduler first_fit_;
  std::unique_ptr<HtcServer> server_;
};

TEST_F(FailureTest, IdleNodesAbsorbFailuresWithoutKillingJobs) {
  HtcServer& server = make_fixed(10);
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(1000, 4);
  });
  sim_.schedule_at(10, [&] {
    EXPECT_EQ(server.fail_nodes(6), 0) << "6 idle nodes absorb the failure";
    EXPECT_EQ(server.down(), 6);
  });
  sim_.schedule_at(500, [&] { server.repair_nodes(6); });
  sim_.run();
  EXPECT_EQ(server.completed_jobs(), 1);
  EXPECT_EQ(server.job_retries(), 0);
  EXPECT_EQ(server.last_finish(), 1000) << "the job was never interrupted";
  EXPECT_EQ(server.owned(), 10) << "the holding never shrinks on failures";
  EXPECT_EQ(server.down(), 0);
}

TEST_F(FailureTest, FailureKillsAndRetriesTheYoungestJob) {
  HtcServer& server = make_fixed(10);
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(1000, 6);  // older job
  });
  sim_.schedule_at(100, [&] { server.submit(1000, 4); });  // younger job
  sim_.schedule_at(200, [&] {
    EXPECT_EQ(server.fail_nodes(2), 1) << "no idle: the younger job dies";
    EXPECT_EQ(server.down(), 2)
        << "capacity stays degraded until the repair lands";
  });
  sim_.schedule_at(300, [&] { server.repair_nodes(2); });
  sim_.run();
  EXPECT_EQ(server.completed_jobs(), 2) << "the retry eventually completes";
  EXPECT_EQ(server.job_retries(), 1);
  // Older job untouched (finishes at 1000). The killed job cannot restart
  // at 200 (only 8 healthy nodes, 6 busy): it redispatches when the repair
  // restores capacity at 300 and runs its full 1000 s again.
  EXPECT_EQ(server.jobs()[0].finish, 1000);
  EXPECT_EQ(server.jobs()[1].finish, 1300);
  // The re-run of 100 s of lost progress (dispatched at 100, killed at 200)
  // is charged as waste: 100 s * 4 nodes = 400 node*seconds.
  EXPECT_NEAR(server.wasted_node_hours(), 400.0 / 3600.0, 1e-9);
  EXPECT_NEAR(server.goodput_node_hours(kDay), (1000.0 * 6 + 1000.0 * 4) / 3600.0,
              1e-9);
  EXPECT_LT(server.availability(kDay), 1.0);
}

TEST_F(FailureTest, FailureBeyondHoldingIsClamped) {
  HtcServer& server = make_fixed(4);
  sim_.schedule_at(0, [&] { server.start(); });
  sim_.schedule_at(1, [&] {
    server.fail_nodes(100);
    EXPECT_EQ(server.down(), 4);
    EXPECT_EQ(server.healthy_nodes(), 0);
    server.fail_nodes(5);
    EXPECT_EQ(server.down(), 4) << "nothing healthy left to fail";
  });
  sim_.run();
  EXPECT_EQ(server.owned(), 4);
  EXPECT_EQ(provision_.allocated(), 4);
}

TEST_F(FailureTest, RepairMetersTheHardwareSwap) {
  HtcServer& server = make_fixed(8);
  sim_.schedule_at(0, [&] { server.start(); });
  sim_.schedule_at(1, [&] {
    server.fail_nodes(3);
    // The failure itself moves no hardware: only the startup grant (8) has
    // been metered so far.
    EXPECT_EQ(provision_.adjustments().total_adjusted_nodes(), 8);
  });
  sim_.schedule_at(100, [&] { server.repair_nodes(3); });
  sim_.run();
  // Repair swaps hardware in: reclaim (3) + re-grant (3) on top of the
  // startup grant.
  EXPECT_EQ(provision_.adjustments().total_adjusted_nodes(), 14);
  ASSERT_FALSE(provision_.adjustments().events().empty());
  EXPECT_EQ(provision_.adjustments().events().back().time, 100)
      << "the meter moves at the repair, not the failure";
}

TEST_F(FailureTest, RetryBudgetExhaustionFailsTheJob) {
  fault::FaultRecoveryPolicy recovery;
  recovery.max_retries = 1;
  HtcServer& server = make_fixed(4, recovery);
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(1000, 4);
  });
  // First kill: retry allowed. Second kill: budget exhausted.
  sim_.schedule_at(100, [&] {
    server.fail_nodes(4);
    server.repair_nodes(4);
  });
  sim_.schedule_at(200, [&] {
    server.fail_nodes(4);
    server.repair_nodes(4);
  });
  sim_.run();
  EXPECT_EQ(server.completed_jobs(), 0);
  EXPECT_EQ(server.jobs_failed(), 1);
  EXPECT_EQ(server.jobs()[0].state, sched::JobState::kFailed);
  EXPECT_EQ(std::string(sched::job_state_name(server.jobs()[0].state)),
            "failed");
  EXPECT_EQ(server.jobs()[0].finish, 200);
  EXPECT_TRUE(server.drained()) << "a failed job does not linger in the queue";
  // Everything the job ever ran (100 s + 100 s on 4 nodes) is waste.
  EXPECT_NEAR(server.wasted_node_hours(), 800.0 / 3600.0, 1e-9);
  EXPECT_DOUBLE_EQ(server.goodput_node_hours(kDay), 0.0);
}

TEST_F(FailureTest, RetryBackoffDelaysTheRequeue) {
  fault::FaultRecoveryPolicy recovery;
  recovery.retry_backoff = 500;
  HtcServer& server = make_fixed(4, recovery);
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(1000, 4);
  });
  sim_.schedule_at(100, [&] {
    server.fail_nodes(4);
    server.repair_nodes(4);
    EXPECT_EQ(server.jobs()[0].state, sched::JobState::kPending)
        << "the job waits out its backoff before re-queueing";
  });
  sim_.run();
  // Killed at 100, requeued at 600, runs 1000 s.
  EXPECT_EQ(server.jobs()[0].finish, 1600);
  EXPECT_EQ(server.completed_jobs(), 1);
}

TEST_F(FailureTest, ExponentialBackoffDoublesPerAttempt) {
  fault::FaultRecoveryPolicy recovery;
  recovery.retry_backoff = 100;
  recovery.max_backoff = 350;
  EXPECT_EQ(fault::retry_backoff_delay(recovery, 1), 100);
  EXPECT_EQ(fault::retry_backoff_delay(recovery, 2), 200);
  EXPECT_EQ(fault::retry_backoff_delay(recovery, 3), 350) << "clamped";
  EXPECT_EQ(fault::retry_backoff_delay(recovery, 10), 350);
  EXPECT_EQ(fault::retry_backoff_delay(fault::FaultRecoveryPolicy{}, 3), 0)
      << "no backoff configured = immediate requeue";
}

TEST_F(FailureTest, CheckpointsSalvageWholeIntervals) {
  fault::FaultRecoveryPolicy recovery;
  recovery.checkpoint_interval = 300;
  HtcServer& server = make_fixed(4, recovery);
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(1000, 4);
  });
  sim_.schedule_at(700, [&] {
    server.fail_nodes(4);
    server.repair_nodes(4);
  });
  sim_.run();
  // 700 s of progress: checkpoints at 300 and 600 salvage 600 s; only the
  // 100 s past the last checkpoint re-runs. Restart at 700 + 400 s left.
  EXPECT_EQ(server.jobs()[0].finish, 1100);
  EXPECT_EQ(server.completed_jobs(), 1);
  EXPECT_NEAR(server.wasted_node_hours(), 100.0 * 4 / 3600.0, 1e-9);
}

TEST_F(FailureTest, MtcTaskRetryKeepsWorkflowConsistent) {
  sched::FcfsScheduler fcfs;
  MtcServer::MtcConfig config;
  config.name = "mtc";
  config.fixed_nodes = 166;
  config.scheduler = &fcfs;
  MtcServer server(sim_, provision_, std::move(config));
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit_workflow(workflow::make_paper_montage());
  });
  // Kill nodes mid-flight, repeatedly; each batch is repaired after 30 s,
  // so capacity dips and recovers while the DAG runs.
  for (SimTime t = 20; t <= 200; t += 60) {
    sim_.schedule_at(t, [&] { server.fail_nodes(30); });
    sim_.schedule_at(t + 30, [&] { server.repair_nodes(30); });
  }
  sim_.run_until(kDay);
  EXPECT_TRUE(server.all_workflows_complete())
      << "retries must not wedge the DAG";
  EXPECT_EQ(server.completed_tasks(), 1000);
  EXPECT_GT(server.job_retries(), 0);
}

TEST_F(FailureTest, InjectorDrivesWeightedFailures) {
  HtcServer& server = make_fixed(64);
  sim_.schedule_at(0, [&] {
    server.start();
    for (int i = 0; i < 50; ++i) server.submit(20 * kHour, 1);
  });
  fault::FaultDomain::Config config;
  config.mean_time_between_failures = 2 * kHour;
  config.min_failed_nodes = 2;
  config.max_failed_nodes = 5;
  fault::FaultDomain injector(sim_, config);
  injector.watch(&server);
  sim_.schedule_at(1, [&] { injector.start(24 * kHour); });
  sim_.run_until(48 * kHour);
  EXPECT_GT(injector.failure_events(), 3);
  EXPECT_GT(injector.nodes_failed(), 0);
  EXPECT_EQ(injector.jobs_killed(), server.job_retries());
  EXPECT_EQ(server.completed_jobs(), 50) << "all jobs finish despite failures";
  EXPECT_EQ(injector.nodes_repaired(), injector.nodes_failed())
      << "MTTR 0 repairs at the failure instant";
  EXPECT_EQ(server.down(), 0);
}

TEST_F(FailureTest, MttrDelaysRepairAndDegradesAvailability) {
  HtcServer& server = make_fixed(64);
  sim_.schedule_at(0, [&] { server.start(); });
  fault::FaultDomain::Config config;
  config.mean_time_between_failures = 2 * kHour;
  config.mean_time_to_repair = kHour;
  fault::FaultDomain domain(sim_, config);
  domain.watch(&server);
  sim_.schedule_at(1, [&] { domain.start(24 * kHour); });
  sim_.run_until(48 * kHour);
  EXPECT_GT(domain.failure_events(), 0);
  EXPECT_EQ(domain.nodes_repaired(), domain.nodes_failed())
      << "every batch is repaired once injection stops";
  EXPECT_EQ(domain.nodes_down(), 0);
  EXPECT_EQ(server.down(), 0);
  EXPECT_LT(server.availability(48 * kHour), 1.0)
      << "time spent down must show in the availability integral";
  EXPECT_GT(server.availability(48 * kHour), 0.5);
}

TEST_F(FailureTest, StartWithElapsedWindowIsNoop) {
  HtcServer& server = make_fixed(8);
  sim_.schedule_at(0, [&] { server.start(); });
  fault::FaultDomain::Config config;
  config.mean_time_between_failures = 10;  // would fire constantly
  fault::FaultDomain domain(sim_, config);
  domain.watch(&server);
  // The injection window [now, until] is already over at start time.
  sim_.schedule_at(kHour, [&] { domain.start(kHour); });
  sim_.schedule_at(2 * kHour, [&] { domain.start(kHour); });
  sim_.run_until(kDay);
  EXPECT_EQ(domain.failure_events(), 0)
      << "an elapsed window must not inject a stray event";
  EXPECT_EQ(server.down(), 0);
}

TEST_F(FailureTest, WatchAfterStartDoesNotChangeVictimSequence) {
  // Runs the same seeded injection twice; the second run adds a late
  // watch() after start(). The victim sequence (and thus every observable
  // on the original server) must be identical, and the late target must
  // never be picked.
  struct Outcome {
    std::int64_t events;
    std::int64_t nodes_failed;
    std::int64_t retries;
    std::int64_t late_down;
    std::int64_t late_retries;
  };
  auto run = [](bool late_watch) -> Outcome {
    sim::Simulator sim;
    ResourceProvisionService provision{cluster::ResourcePool::unbounded()};
    sched::FirstFitScheduler first_fit;
    HtcServer::Config config_a;
    config_a.name = "a";
    config_a.fixed_nodes = 32;
    config_a.scheduler = &first_fit;
    HtcServer a(sim, provision, std::move(config_a));
    HtcServer::Config config_b;
    config_b.name = "b";
    config_b.fixed_nodes = 32;
    config_b.scheduler = &first_fit;
    HtcServer b(sim, provision, std::move(config_b));
    sim.schedule_at(0, [&] {
      a.start();
      b.start();
      for (int i = 0; i < 20; ++i) a.submit(10 * kHour, 1);
      for (int i = 0; i < 20; ++i) b.submit(10 * kHour, 1);
    });
    fault::FaultDomain::Config config;
    config.mean_time_between_failures = kHour;
    fault::FaultDomain domain(sim, config);
    domain.watch(&a);
    sim.schedule_at(1, [&] { domain.start(24 * kHour); });
    if (late_watch) {
      sim.schedule_at(2, [&] { domain.watch(&b); });
    }
    sim.run_until(36 * kHour);
    return Outcome{domain.failure_events(), domain.nodes_failed(),
                   a.job_retries(), b.down(), b.job_retries()};
  };
  const Outcome baseline = run(false);
  const Outcome with_late_watch = run(true);
  EXPECT_GT(baseline.events, 0);
  EXPECT_EQ(with_late_watch.events, baseline.events);
  EXPECT_EQ(with_late_watch.nodes_failed, baseline.nodes_failed);
  EXPECT_EQ(with_late_watch.retries, baseline.retries)
      << "watch() after start() must not perturb the seeded sequence";
  EXPECT_EQ(with_late_watch.late_down, 0);
  EXPECT_EQ(with_late_watch.late_retries, 0)
      << "a target watched after start() never joins the active set";
}

TEST_F(FailureTest, GrantTimeoutReRequestsAStarvedWait) {
  // An elastic TRE queued behind a bigger holder under queue-by-priority
  // contention withdraws and re-issues its dynamic request once it starves
  // past the recovery policy's grant timeout — and still gets its nodes
  // when capacity frees up.
  ProvisionPolicy provider_policy;
  provider_policy.contention =
      ProvisionPolicy::ContentionMode::kQueueByPriority;
  ResourceProvisionService provision{cluster::ResourcePool(20),
                                     provider_policy};
  const auto hog = provision.register_consumer("hog", 0, /*priority=*/5);
  ASSERT_TRUE(provision.request(0, hog, 16));

  HtcServer::Config config;
  config.name = "elastic";
  config.policy = ResourceManagementPolicy::htc(4, 1.5);
  config.scheduler = &first_fit_;
  config.recovery.grant_timeout = 10 * kMinute;
  HtcServer server(sim_, provision, std::move(config));
  sim_.schedule_at(0, [&] {
    server.start();                // owns the initial 4; the pool is full
    server.submit(1000, 10);       // needs a 6-node dynamic grant
  });
  // The DR1 request waits behind the hog; each 10-minute starvation window
  // cancels and re-issues it. After an hour the hog lets go.
  sim_.schedule_at(kHour, [&] { provision.release(kHour, hog, 16); });
  sim_.run_until(2 * kHour);  // the scan timer never stops on its own
  EXPECT_GE(server.grant_timeouts(), 1);
  EXPECT_EQ(server.completed_jobs(), 1)
      << "the re-requested grant must still arrive";
  EXPECT_EQ(server.last_finish(), kHour + 1000);
  EXPECT_EQ(provision.waiting_requests(), 0u);
}

TEST_F(FailureTest, FailNodesOnUnstartedServerIsNoop) {
  HtcServer& server = make_fixed(4);
  EXPECT_EQ(server.fail_nodes(2), 0);
}

}  // namespace
}  // namespace dc::core
