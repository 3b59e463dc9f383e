#include "core/lifecycle.hpp"

#include <gtest/gtest.h>

namespace dc::core {
namespace {

// The three transitions are three kernel events at the request's instant:
// their seqs are part of every DawningCloud snapshot and trace.
TEST(Lifecycle, ZeroLatencyTreReachesRunningImmediately) {
  sim::Simulator sim;
  LifecycleService lifecycle(sim);
  SimTime running_at = kNever;
  const std::uint32_t first_seq = sim.next_seq();
  auto id = lifecycle.create_tre(
      TreSpec{"prov", WorkloadType::kHtc, 10, "linux"},
      [&](SimTime at) { running_at = at; });
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(lifecycle.state(*id), TreState::kInexistent);
  EXPECT_EQ(sim.next_seq(), first_seq + 1) << "one event until it fires";
  sim.run();
  EXPECT_EQ(sim.next_seq(), first_seq + 3);
  EXPECT_EQ(lifecycle.state(*id), TreState::kRunning);
  EXPECT_EQ(running_at, 0);

  // Audit trail: Planning -> Created -> Running.
  ASSERT_EQ(lifecycle.transitions().size(), 3u);
  EXPECT_EQ(lifecycle.transitions()[0].state, TreState::kPlanning);
  EXPECT_EQ(lifecycle.transitions()[1].state, TreState::kCreated);
  EXPECT_EQ(lifecycle.transitions()[2].state, TreState::kRunning);
}

TEST(Lifecycle, RejectsInvalidSpecs) {
  sim::Simulator sim;
  LifecycleService lifecycle(sim);
  EXPECT_FALSE(lifecycle.create_tre(TreSpec{"", WorkloadType::kHtc, 1, "l"},
                                    nullptr)
                   .is_ok());
  EXPECT_FALSE(lifecycle.create_tre(TreSpec{"p", WorkloadType::kHtc, -1, "l"},
                                    nullptr)
                   .is_ok());
}

TEST(Lifecycle, StateAndTypeNames) {
  EXPECT_STREQ(tre_state_name(TreState::kInexistent), "inexistent");
  EXPECT_STREQ(tre_state_name(TreState::kPlanning), "planning");
  EXPECT_STREQ(tre_state_name(TreState::kCreated), "created");
  EXPECT_STREQ(tre_state_name(TreState::kRunning), "running");
  EXPECT_STREQ(workload_type_name(WorkloadType::kHtc), "HTC");
  EXPECT_STREQ(workload_type_name(WorkloadType::kMtc), "MTC");
}

TEST(Lifecycle, MultipleTresTrackedIndependently) {
  sim::Simulator sim;
  LifecycleService lifecycle(sim);
  auto a = lifecycle.create_tre(TreSpec{"a", WorkloadType::kHtc, 1, "l"}, nullptr);
  sim.run_until(5);
  auto b = lifecycle.create_tre(TreSpec{"b", WorkloadType::kMtc, 1, "l"}, nullptr);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(lifecycle.state(*a), TreState::kRunning);
  EXPECT_EQ(lifecycle.state(*b), TreState::kInexistent);
  sim.run_until(5);
  EXPECT_EQ(lifecycle.state(*b), TreState::kRunning);
  EXPECT_EQ(lifecycle.spec(*b).provider_name, "b");
  EXPECT_EQ(lifecycle.tre_count(), 2u);
}

}  // namespace
}  // namespace dc::core
