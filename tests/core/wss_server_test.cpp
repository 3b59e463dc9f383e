#include "core/wss_server.hpp"

#include <gtest/gtest.h>

namespace dc::core {
namespace {

class WssServerTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  ResourceProvisionService provision_{cluster::ResourcePool::unbounded()};
};

workload::DemandProfile step_profile() {
  // 10 nodes for 2h, 40 for 2h, 10 for 2h.
  return workload::DemandProfile({10, 10, 40, 40, 10, 10});
}

TEST_F(WssServerTest, FixedModeHoldsPeakAndNeverViolates) {
  WssServer::Config config;
  config.name = "wss";
  config.fixed_nodes = 40;
  WssServer server(sim_, provision_, std::move(config), step_profile());
  sim_.schedule_at(0, [&] { ASSERT_TRUE(server.start()); });
  sim_.run_until(6 * kHour);
  server.shutdown();
  EXPECT_DOUBLE_EQ(server.violation_node_hours(), 0.0);
  EXPECT_EQ(server.ledger().billed_node_hours(6 * kHour), 240);
}

TEST_F(WssServerTest, UndersizedFixedModeAccumulatesViolations) {
  WssServer::Config config;
  config.name = "wss";
  config.fixed_nodes = 20;
  WssServer server(sim_, provision_, std::move(config), step_profile());
  sim_.schedule_at(0, [&] { server.start(); });
  sim_.run_until(6 * kHour);
  // Hours 2-3 demand 40 vs 20 held: ~20 node*h x 2h unmet.
  EXPECT_NEAR(server.violation_node_hours(), 40.0, 3.0);
  EXPECT_GT(server.violation_seconds(), 0);
}

TEST_F(WssServerTest, ElasticTracksDemandUpAndDown) {
  WssServer::Config config;
  config.name = "wss";
  WssServer::ElasticPolicy policy;
  policy.headroom = 0.0;
  config.policy = policy;
  WssServer server(sim_, provision_, std::move(config), step_profile());
  sim_.schedule_at(0, [&] { server.start(); });

  sim_.run_until(kHour);
  EXPECT_EQ(server.owned(), 10);
  sim_.run_until(3 * kHour);
  EXPECT_EQ(server.owned(), 40) << "scaled up within a scan of the step";
  sim_.run_until(6 * kHour - 1);
  EXPECT_EQ(server.owned(), 10) << "scale-up grant released after the step";
  server.shutdown();
  // Billed well below the fixed-peak 240 (= 40 * 6h).
  EXPECT_LT(server.ledger().billed_node_hours(6 * kHour), 160);
  // Brief violation possible only within one scan interval of the step.
  EXPECT_LE(server.violation_seconds(), 10 * kMinute);
}

TEST_F(WssServerTest, HeadroomOverprovisions) {
  WssServer::Config config;
  config.name = "wss";
  WssServer::ElasticPolicy policy;
  policy.headroom = 0.5;
  config.policy = policy;
  WssServer server(sim_, provision_, std::move(config), step_profile());
  sim_.schedule_at(0, [&] { server.start(); });
  sim_.run_until(kHour);
  EXPECT_EQ(server.owned(), 15);  // ceil(10 * 1.5)
}

TEST_F(WssServerTest, ShutdownReturnsEverything) {
  WssServer::Config config;
  config.name = "wss";
  config.policy = WssServer::ElasticPolicy{};
  WssServer server(sim_, provision_, std::move(config), step_profile());
  sim_.schedule_at(0, [&] { server.start(); });
  sim_.run_until(3 * kHour);
  EXPECT_GT(provision_.allocated(), 0);
  server.shutdown();
  server.shutdown();  // idempotent
  EXPECT_EQ(provision_.allocated(), 0);
  EXPECT_EQ(server.owned(), 0);
}

TEST_F(WssServerTest, ElasticBeatsFixedOnRealisticCurveWithoutViolations) {
  const workload::DemandProfile profile =
      workload::make_web_demand(workload::WebDemandSpec{}, 3);
  const SimTime horizon = profile.period();

  WssServer::Config fixed_config;
  fixed_config.name = "fixed";
  fixed_config.fixed_nodes = profile.peak();
  WssServer fixed(sim_, provision_, std::move(fixed_config), profile);

  WssServer::Config elastic_config;
  elastic_config.name = "elastic";
  elastic_config.policy = WssServer::ElasticPolicy{};
  WssServer elastic(sim_, provision_, std::move(elastic_config), profile);

  sim_.schedule_at(0, [&] {
    fixed.start();
    elastic.start();
  });
  sim_.run_until(horizon);
  fixed.shutdown();
  elastic.shutdown();

  EXPECT_DOUBLE_EQ(fixed.violation_node_hours(), 0.0);
  EXPECT_LT(elastic.ledger().billed_node_hours(horizon),
            fixed.ledger().billed_node_hours(horizon));
  // With 10% headroom the elastic RE only violates transiently on spikes.
  EXPECT_LT(elastic.violation_node_hours(),
            0.01 * static_cast<double>(profile.total_node_hours()));
}

}  // namespace
}  // namespace dc::core
