#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace dc {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(1000);
  parallel_for_index(1000, [&](std::size_t i) { ++visits[i]; }, 8);
  for (const auto& count : visits) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, ZeroAndOneElement) {
  int calls = 0;
  parallel_for_index(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for_index(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  const auto main_thread = std::this_thread::get_id();
  parallel_for_index(
      10, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), main_thread); },
      1);
}

TEST(ParallelMap, PreservesOrder) {
  const auto squares = parallel_map_index<std::size_t>(
      500, [](std::size_t i) { return i * i; }, 4);
  ASSERT_EQ(squares.size(), 500u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ParallelMap, MatchesSequentialResult) {
  auto work = [](std::size_t i) {
    double x = static_cast<double>(i);
    for (int k = 0; k < 100; ++k) x = x * 1.000001 + 0.5;
    return x;
  };
  const auto parallel = parallel_map_index<double>(200, work, 8);
  const auto sequential = parallel_map_index<double>(200, work, 1);
  EXPECT_EQ(parallel, sequential);
}

TEST(DefaultThreadCount, AtLeastOne) {
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ParallelFor, NestedCallRunsInlineWithoutDeadlock) {
  std::atomic<int> inner_calls{0};
  parallel_for_index(
      4,
      [&](std::size_t) {
        // A nested sweep from inside a parallel region must not start
        // helpers of its own (the outer call already keeps every core
        // busy); it degrades to inline execution on the calling thread.
        const auto me = std::this_thread::get_id();
        parallel_for_index(
            8,
            [&](std::size_t) {
              EXPECT_EQ(std::this_thread::get_id(), me);
              ++inner_calls;
            },
            8);
      },
      4);
  EXPECT_EQ(inner_calls.load(), 32);
}

TEST(ParallelFor, PoolIsReusableAcrossManyJobs) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    parallel_for_index(100, [&](std::size_t i) { sum += i; }, 4);
    EXPECT_EQ(sum.load(), 4950u);
  }
}

// A throw on the calling thread or on a helper reaches the caller once the
// helpers have joined, and no index runs twice. The threads that do not
// throw hold their first index until one has thrown, so the throwing side
// is sure to claim one.
TEST(ParallelFor, ThrowIsRethrownAfterTheHelpersJoin) {
  const auto caller = std::this_thread::get_id();
  for (const bool caller_throws : {true, false}) {
    SCOPED_TRACE(caller_throws ? "caller throws" : "helpers throw");
    std::atomic<bool> thrown{false};
    std::vector<std::atomic<int>> visits(1000);
    EXPECT_THROW(parallel_for_index(
                     1000,
                     [&](std::size_t i) {
                       ++visits[i];
                       if ((std::this_thread::get_id() == caller) ==
                           caller_throws) {
                         thrown = true;
                         throw std::runtime_error("fn failed");
                       }
                       while (!thrown) std::this_thread::yield();
                     },
                     4),
                 std::runtime_error);
    for (const auto& count : visits) EXPECT_LE(count.load(), 1);
  }
}

// The determinism contract the figure benches rely on: a sweep writes its
// CSV from results stored by index, so the bytes cannot depend on thread
// count or scheduling order. This drives real Simulator runs through
// parallel_map_index at 1 and 8 threads and compares the full CSV text.
TEST(ParallelMap, SweepCsvIsByteIdenticalAcrossThreadCounts) {
  const auto sweep_csv = [](std::size_t threads) {
    const auto rows = parallel_map_index<std::string>(
        16,
        [](std::size_t i) {
          sim::Simulator sim;
          std::int64_t fires = 0;
          sim.start_periodic(1 + static_cast<SimTime>(i), 30,
                             [&fires](SimTime) { ++fires; });
          std::int64_t extra = 0;
          for (int k = 0; k < 100; ++k) {
            sim.schedule_at(k * 7 + static_cast<SimTime>(i),
                            [&extra] { ++extra; });
          }
          sim.run_until(2 * kHour);
          char row[96];
          std::snprintf(row, sizeof(row), "%zu,%lld,%lld,%llu", i,
                        static_cast<long long>(fires),
                        static_cast<long long>(extra),
                        static_cast<unsigned long long>(sim.events_processed()));
          return std::string(row);
        },
        threads);
    std::string csv = "index,fires,extra,processed\n";
    for (const std::string& row : rows) csv += row + "\n";
    return csv;
  };
  const std::string sequential = sweep_csv(1);
  const std::string parallel = sweep_csv(8);
  EXPECT_EQ(sequential, parallel);
}

}  // namespace
}  // namespace dc
