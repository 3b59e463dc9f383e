#include <gtest/gtest.h>

#include "sched/conservative_backfill.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "sched/first_fit.hpp"
#include "sched/sjf.hpp"
#include "util/rng.hpp"

namespace dc::sched {
namespace {

std::vector<Job> make_jobs(const std::vector<std::int64_t>& widths,
                           const std::vector<SimDuration>& runtimes) {
  std::vector<Job> jobs(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
    jobs[i].nodes = widths[i];
    jobs[i].runtime = runtimes[i];
  }
  return jobs;
}

std::vector<const Job*> views(const std::vector<Job>& jobs) {
  std::vector<const Job*> out;
  for (const Job& job : jobs) out.push_back(&job);
  return out;
}

// --- SJF ---------------------------------------------------------------------

TEST(Sjf, PicksShortestFirstWhenContended) {
  // 4 idle nodes; jobs (width, runtime): only two can fit.
  const auto jobs = make_jobs({2, 2, 2}, {300, 100, 200});
  SjfScheduler scheduler;
  const auto picks = scheduler.select(views(jobs), {}, 4, 0);
  EXPECT_EQ(picks, (std::vector<std::size_t>{1, 2}))
      << "the two shortest jobs start; the longest waits";
}

TEST(Sjf, StableForEqualRuntimes) {
  const auto jobs = make_jobs({2, 2, 2}, {100, 100, 100});
  SjfScheduler scheduler;
  const auto picks = scheduler.select(views(jobs), {}, 4, 0);
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1}))
      << "ties break by arrival order";
}

TEST(Sjf, SkipsJobsThatDoNotFit) {
  const auto jobs = make_jobs({8, 1}, {10, 1000});
  SjfScheduler scheduler;
  const auto picks = scheduler.select(views(jobs), {}, 4, 0);
  EXPECT_EQ(picks, std::vector<std::size_t>{1});
}

// --- Conservative backfilling ---------------------------------------------------

TEST(ConservativeBackfill, StartsEverythingThatFitsNow) {
  const auto jobs = make_jobs({4, 4}, {100, 100});
  ConservativeBackfillScheduler scheduler;
  EXPECT_EQ(scheduler.select(views(jobs), {}, 8, 0).size(), 2u);
}

TEST(ConservativeBackfill, BackfillsWithoutDelayingAnyReservation) {
  // Machine of 10: running job holds 6 until t=1000. Queue: [8-wide head,
  // short 4-wide]. The short job ends at 600 < 1000 and uses only the 4
  // idle nodes, so it cannot delay the head's reservation at t=1000.
  std::vector<Job> running_jobs = make_jobs({6}, {1000});
  running_jobs[0].start = 0;
  const auto queued = make_jobs({8, 4}, {600, 600});
  ConservativeBackfillScheduler scheduler;
  const auto picks = scheduler.select(views(queued), views(running_jobs), 4, 0);
  EXPECT_EQ(picks, std::vector<std::size_t>{1});
}

TEST(ConservativeBackfill, RefusesBackfillThatDelaysSecondReservation) {
  // Machine of 10: running 6 until t=1000. Queue: [8-wide head (reserved at
  // 1000, runs to 2000), 4-wide long job, 4-wide short job]. The long
  // 4-wide job would overlap the head's reservation window on nodes the
  // head needs (only 2 spare at t=1000), so it must NOT start; under EASY
  // it also wouldn't. Then the short 4-wide (ends at 500) may.
  std::vector<Job> running_jobs = make_jobs({6}, {1000});
  running_jobs[0].start = 0;
  const auto queued = make_jobs({8, 4, 4}, {1000, 5000, 500});
  ConservativeBackfillScheduler scheduler;
  const auto picks = scheduler.select(views(queued), views(running_jobs), 4, 0);
  EXPECT_EQ(picks, std::vector<std::size_t>{2});
}

TEST(ConservativeBackfill, ProtectsThirdJobsReservationToo) {
  // Distinguishing case vs EASY: machine of 10, all idle. Queue:
  //   j0: 10-wide, 100 s  -> starts now, everything busy until t=100
  // (then j1 and j2 get reservations at t=100). A 1-wide job j3 with
  // runtime 1000 would fit EASY's single-reservation check only if it
  // doesn't delay j1 — conservative also checks j2.
  const auto queued = make_jobs({10, 6, 4, 1}, {100, 200, 200, 1000});
  ConservativeBackfillScheduler scheduler;
  const auto picks = scheduler.select(views(queued), {}, 10, 0);
  // j0 starts; j1/j2 reserved at t=100 consuming all 10 nodes until 300;
  // j3 (1 node for 1000 s) would collide with those reservations, so its
  // own reservation lands at t=300 — it must not start now.
  EXPECT_EQ(picks, std::vector<std::size_t>{0});
}

TEST(ConservativeBackfill, IgnoresImpossiblyWideJobs) {
  const auto queued = make_jobs({100, 2}, {50, 50});
  ConservativeBackfillScheduler scheduler;
  const auto picks = scheduler.select(views(queued), {}, 8, 0);
  EXPECT_EQ(picks, std::vector<std::size_t>{1})
      << "a job wider than the machine is skipped, not crashed on";
}

TEST(ConservativeBackfill, JobEndingThisInstantIsNotYetFree) {
  // Regression: a running job whose completion event sits later in the
  // current simulation instant (expected_end == now) must not be treated
  // as released capacity, or the scheduler oversubscribes.
  std::vector<Job> running_jobs = make_jobs({12}, {5});
  running_jobs[0].start = 0;  // ends at t=5 == now
  const auto queued = make_jobs({7, 9, 4, 1}, {14, 82, 79, 9});
  ConservativeBackfillScheduler scheduler;
  const auto picks = scheduler.select(views(queued), views(running_jobs),
                                      /*idle=*/16, /*now=*/5);
  std::int64_t total = 0;
  for (std::size_t pos : picks) total += queued[pos].nodes;
  EXPECT_LE(total, 16);
}

TEST(EasyBackfill, JobEndingThisInstantIsNotYetFree) {
  std::vector<Job> running_jobs = make_jobs({12}, {5});
  running_jobs[0].start = 0;
  const auto queued = make_jobs({20, 4}, {100, 100});
  EasyBackfillScheduler scheduler;
  const auto picks = scheduler.select(views(queued), views(running_jobs),
                                      /*idle=*/16, /*now=*/5);
  std::int64_t total = 0;
  for (std::size_t pos : picks) total += queued[pos].nodes;
  EXPECT_LE(total, 16);
}

// --- Cross-checks ---------------------------------------------------------------

class ExtensionSchedulerProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

// The contract HtcServer::dispatch relies on, for every scheduler: picks
// are ascending queue positions whose widths fit the idle nodes — so with
// no idle node nothing is picked (dispatch returns early then, and counts
// backfill hits on the picks without sorting them).
TEST_P(ExtensionSchedulerProperty, NeverOversubscribeAndAscendingPicks) {
  Rng rng(GetParam());
  FcfsScheduler fcfs;
  FirstFitScheduler first_fit;
  EasyBackfillScheduler easy;
  SjfScheduler sjf;
  ConservativeBackfillScheduler conservative;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::int64_t> widths;
    std::vector<SimDuration> runtimes;
    const std::int64_t count = rng.uniform_int(0, 30);
    for (std::int64_t i = 0; i < count; ++i) {
      widths.push_back(rng.uniform_int(1, 16));
      runtimes.push_back(rng.uniform_int(1, 5000));
    }
    const auto jobs = make_jobs(widths, runtimes);
    std::vector<Job> running_jobs = make_jobs({rng.uniform_int(1, 8)},
                                              {rng.uniform_int(1, 5000)});
    running_jobs[0].start = 0;
    const std::int64_t idle = rng.uniform_int(0, 40);
    for (const Scheduler* scheduler :
         std::initializer_list<const Scheduler*>{&fcfs, &first_fit, &easy,
                                                 &sjf, &conservative}) {
      const auto picks =
          scheduler->select(views(jobs), views(running_jobs), idle, 0);
      std::int64_t total = 0;
      for (std::size_t i = 0; i < picks.size(); ++i) {
        ASSERT_LT(picks[i], jobs.size());
        if (i > 0) {
          EXPECT_LT(picks[i - 1], picks[i]) << scheduler->name();
        }
        total += jobs[picks[i]].nodes;
      }
      EXPECT_LE(total, idle) << scheduler->name();
      if (idle == 0) {
        EXPECT_TRUE(picks.empty()) << scheduler->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionSchedulerProperty,
                         ::testing::Values(5u, 55u, 555u));

}  // namespace
}  // namespace dc::sched
