#include "core/htc_server.hpp"

#include <gtest/gtest.h>

#include "sched/first_fit.hpp"
#include "sim/simulator.hpp"

namespace dc::core {
namespace {

class HtcServerTest : public ::testing::Test {
 protected:
  HtcServer& make_fixed(std::int64_t nodes) {
    HtcServer::Config config;
    config.name = "fixed";
    config.fixed_nodes = nodes;
    config.scheduler = &scheduler_;
    server_ = std::make_unique<HtcServer>(sim_, provision_, std::move(config));
    return *server_;
  }

  HtcServer& make_elastic(ResourceManagementPolicy policy) {
    HtcServer::Config config;
    config.name = "elastic";
    config.policy = policy;
    config.scheduler = &scheduler_;
    server_ = std::make_unique<HtcServer>(sim_, provision_, std::move(config));
    return *server_;
  }

  sim::Simulator sim_;
  ResourceProvisionService provision_{cluster::ResourcePool::unbounded()};
  sched::FirstFitScheduler scheduler_;
  std::unique_ptr<HtcServer> server_;
};

TEST_F(HtcServerTest, FixedModeStartsWithConfiguredNodes) {
  HtcServer& server = make_fixed(32);
  sim_.schedule_at(0, [&] { EXPECT_TRUE(server.start()); });
  sim_.run();
  EXPECT_EQ(server.owned(), 32);
  EXPECT_EQ(server.idle(), 32);
  EXPECT_FALSE(server.elastic());
}

TEST_F(HtcServerTest, RunsJobsAndCountsCompletions) {
  HtcServer& server = make_fixed(10);
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(/*runtime=*/100, /*nodes=*/4);
    server.submit(/*runtime=*/50, /*nodes=*/6);
  });
  sim_.run();
  EXPECT_EQ(server.completed_jobs(), 2);
  EXPECT_EQ(server.busy(), 0);
  EXPECT_EQ(server.last_finish(), 100);
  // Both ran immediately (both fit).
  EXPECT_EQ(server.jobs()[0].start, 0);
  EXPECT_EQ(server.jobs()[1].start, 0);
}

TEST_F(HtcServerTest, QueuesWhenFullAndBackfillsOnCompletion) {
  HtcServer& server = make_fixed(10);
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(100, 8);  // runs now
    server.submit(100, 8);  // must wait for the first to finish
    server.submit(100, 2);  // first-fit slips it into the 2 idle nodes
  });
  sim_.run();
  EXPECT_EQ(server.jobs()[0].start, 0);
  EXPECT_EQ(server.jobs()[2].start, 0);
  EXPECT_EQ(server.jobs()[1].start, 100);
  EXPECT_EQ(server.completed_jobs(), 3);
}

TEST_F(HtcServerTest, CompletedJobsRespectsHorizon) {
  HtcServer& server = make_fixed(4);
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(10, 1);
    server.submit(1000, 1);
  });
  sim_.run();
  EXPECT_EQ(server.completed_jobs(10), 1);
  EXPECT_EQ(server.completed_jobs(1000), 2);
}

TEST_F(HtcServerTest, FixedLedgerBillsSizeTimesPeriod) {
  HtcServer& server = make_fixed(16);
  sim_.schedule_at(0, [&] { server.start(); });
  sim_.run_until(10 * kHour);
  server.shutdown();
  EXPECT_EQ(server.ledger().billed_node_hours(10 * kHour), 160);
}

TEST_F(HtcServerTest, ElasticStartsWithInitialResourcesOnly) {
  HtcServer& server = make_elastic(ResourceManagementPolicy::htc(8, 1.5));
  sim_.schedule_at(0, [&] { server.start(); });
  sim_.run_until(1);
  EXPECT_EQ(server.owned(), 8);
  EXPECT_TRUE(server.elastic());
}

TEST_F(HtcServerTest, Dr1ExpansionWhenQueueRatioExceedsThreshold) {
  // B=10, R=1.5: queued demand 20 > 15 at the first scan -> DR1 = 10.
  HtcServer& server = make_elastic(ResourceManagementPolicy::htc(10, 1.5));
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(kHour * 10, 10);  // occupies all initial nodes
    server.submit(kHour * 10, 10);  // queued: demand 10
    server.submit(kHour * 10, 10);  // queued: demand 20 > 1.5 * 10
  });
  sim_.run_until(kMinute);
  // DR1 = queued demand (20) - owned (10) = 10: one queued job starts.
  EXPECT_EQ(server.owned(), 20);
  EXPECT_EQ(server.busy(), 20);
  EXPECT_EQ(server.queue_length(), 1u);
  EXPECT_EQ(server.dynamic_grants(), 1);
}

TEST_F(HtcServerTest, Dr2ExpansionForWideJobBelowThreshold) {
  // B=10, R=3: one 25-node job queued -> ratio 2.5 <= 3, DR2 = 15.
  HtcServer& server = make_elastic(ResourceManagementPolicy::htc(10, 3.0));
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(kHour * 5, 25);
  });
  sim_.run_until(kMinute);
  EXPECT_EQ(server.owned(), 25);
  EXPECT_EQ(server.busy(), 25) << "the wide job starts right after the grant";
}

TEST_F(HtcServerTest, GrantReleasedAtHourlyIdleCheck) {
  HtcServer& server = make_elastic(ResourceManagementPolicy::htc(10, 1.5));
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(30 * kMinute, 10);
    server.submit(30 * kMinute, 10);
    server.submit(30 * kMinute, 10);
  });
  // Jobs finish at 30min + epsilon; grant of 20 released at its first
  // hourly check (~1 minute-scan + 1 hour).
  sim_.run_until(2 * kHour);
  EXPECT_EQ(server.owned(), 10) << "dynamic grant released, initial kept";
  EXPECT_EQ(server.completed_jobs(), 3);
}

TEST_F(HtcServerTest, GrantHeldWhileBusy) {
  HtcServer& server = make_elastic(ResourceManagementPolicy::htc(10, 1.5));
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(10 * kHour, 10);
    server.submit(10 * kHour, 10);
    server.submit(10 * kHour, 10);
  });
  sim_.run_until(5 * kHour);
  EXPECT_EQ(server.owned(), 20) << "idle < grant size: nothing released";
  EXPECT_EQ(server.idle(), 0);
}

TEST_F(HtcServerTest, InitialResourcesNeverReleasedUntilShutdown) {
  HtcServer& server = make_elastic(ResourceManagementPolicy::htc(40, 1.5));
  sim_.schedule_at(0, [&] { server.start(); });
  // No jobs at all: the initial 40 stay for the whole run.
  sim_.run_until(24 * kHour);
  EXPECT_EQ(server.owned(), 40);
  server.shutdown();
  EXPECT_EQ(server.owned(), 0);
  EXPECT_EQ(provision_.allocated(), 0);
  EXPECT_EQ(server.ledger().billed_node_hours(24 * kHour), 40 * 24);
}

TEST_F(HtcServerTest, MaxNodesClampsExpansion) {
  HtcServer& server = make_elastic(ResourceManagementPolicy::htc(10, 1.2, 16));
  sim_.schedule_at(0, [&] {
    server.start();
    for (int i = 0; i < 10; ++i) server.submit(10 * kHour, 5);
  });
  sim_.run_until(kHour);
  EXPECT_LE(server.owned(), 16);
  EXPECT_EQ(server.owned(), 16) << "expands to the subscription, no further";
}

TEST_F(HtcServerTest, RejectedGrantsAreCountedAndRetried) {
  // Bounded pool: 12 nodes total; initial takes 10, DR1 wants 10 more.
  ResourceProvisionService bounded(cluster::ResourcePool(12));
  HtcServer::Config config;
  config.name = "bounded";
  config.policy = ResourceManagementPolicy::htc(10, 1.2);
  config.scheduler = &scheduler_;
  HtcServer server(sim_, bounded, std::move(config));
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(10 * kHour, 10);
    server.submit(10 * kHour, 10);
    server.submit(10 * kHour, 10);
  });
  sim_.run_until(10 * kMinute);
  EXPECT_EQ(server.owned(), 10);
  EXPECT_GE(server.rejected_grants(), 5) << "every minute-scan retries";
  EXPECT_EQ(bounded.rejected_requests(), server.rejected_grants());
}

TEST_F(HtcServerTest, ShutdownIsIdempotentAndStopsTimers) {
  HtcServer& server = make_elastic(ResourceManagementPolicy::htc(10, 1.5));
  sim_.schedule_at(0, [&] { server.start(); });
  sim_.schedule_at(10, [&] {
    server.shutdown();
    server.shutdown();
  });
  sim_.run();
  EXPECT_TRUE(server.is_shutdown());
  EXPECT_EQ(provision_.allocated(), 0);
  // Scan timer was stopped: no stray events remain.
  EXPECT_EQ(sim_.pending_live(), 0u);
}

TEST_F(HtcServerTest, HeldUsageTracksOwnership) {
  HtcServer& server = make_elastic(ResourceManagementPolicy::htc(10, 1.5));
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(30 * kMinute, 10);
    server.submit(30 * kMinute, 20);
  });
  sim_.run_until(3 * kHour);
  EXPECT_EQ(server.held_usage().peak(), 20);
  EXPECT_EQ(server.held_usage().current(), 10);
}

TEST_F(HtcServerTest, QueuedDemandAndBiggestQueued) {
  HtcServer& server = make_fixed(4);
  sim_.schedule_at(0, [&] {
    server.start();
    server.submit(kHour, 4);  // runs
    server.submit(kHour, 3);  // queued
    server.submit(kHour, 2);  // queued
  });
  sim_.run_until(1);
  EXPECT_EQ(server.queued_demand(), 5);
  EXPECT_EQ(server.biggest_queued(), 3);
  EXPECT_EQ(server.queue_length(), 2u);
}

}  // namespace
}  // namespace dc::core
