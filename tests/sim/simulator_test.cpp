#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace dc::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  SimTime observed = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_in(50, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, 150);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id)) << "second cancel reports failure";
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, CancelFromWithinEarlierEvent) {
  Simulator sim;
  bool fired = false;
  const EventId later = sim.schedule_at(20, [&] { fired = true; });
  sim.schedule_at(10, [&] { sim.cancel(later); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilAdvancesClockToHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulator, RunUntilIncludesEventsAtHorizon) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(50, [&] { fired = true; });
  sim.run_until(50);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RequestStopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule_at(2, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(PeriodicTimer, FiresAtRegularIntervals) {
  Simulator sim;
  std::vector<SimTime> fires;
  sim.start_periodic(10, 5, [&](SimTime t) { fires.push_back(t); });
  sim.run_until(31);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 15, 20, 25, 30}));
}

TEST(PeriodicTimer, StopPreventsFutureFires) {
  Simulator sim;
  int fires = 0;
  const TimerId timer = sim.start_periodic(10, 10, [&](SimTime) { ++fires; });
  sim.schedule_at(25, [&] { EXPECT_TRUE(sim.stop_timer(timer)); });
  sim.run_until(100);
  EXPECT_EQ(fires, 2);  // at 10 and 20
  EXPECT_FALSE(sim.stop_timer(timer));
}

TEST(PeriodicTimer, CallbackMayStopItsOwnTimer) {
  Simulator sim;
  int fires = 0;
  TimerId timer = kInvalidTimer;
  timer = sim.start_periodic(5, 5, [&](SimTime) {
    if (++fires == 3) sim.stop_timer(timer);
  });
  sim.run_until(1000);
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTimer, MultipleTimersInterleave) {
  Simulator sim;
  std::vector<std::pair<SimTime, int>> fires;
  sim.start_periodic(2, 4, [&](SimTime t) { fires.push_back({t, 0}); });
  sim.start_periodic(3, 4, [&](SimTime t) { fires.push_back({t, 1}); });
  sim.run_until(12);
  const std::vector<std::pair<SimTime, int>> expected = {
      {2, 0}, {3, 1}, {6, 0}, {7, 1}, {10, 0}, {11, 1}};
  EXPECT_EQ(fires, expected);
}

TEST(Cancellation, CallbackCancelsSameTimestampEvent) {
  // A and B share a timestamp; A is scheduled first, so FIFO order puts B
  // after it. A's callback cancels B while B is at the front of the queue
  // — the cancellation must win even though the clock already reads 10.
  Simulator sim;
  bool b_fired = false;
  bool c_fired = false;
  EventId b = kInvalidEvent;
  sim.schedule_at(10, [&] { EXPECT_TRUE(sim.cancel(b)); });
  b = sim.schedule_at(10, [&] { b_fired = true; });
  sim.schedule_at(10, [&] { c_fired = true; });
  sim.run();
  EXPECT_FALSE(b_fired);
  EXPECT_TRUE(c_fired);  // later same-time events are unaffected
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.pending_live(), 0u);
}

TEST(PeriodicTimer, CallbackStopsItselfAndSibling) {
  // The fixture the HTC/MTC servers rely on at shutdown: one daemon's scan
  // callback tears down both its own timer and a sibling daemon's. The
  // sibling's pending fire event must be cancelled and neither slot may be
  // recycled while the stopping callback is still on the stack.
  Simulator sim;
  int self_fires = 0;
  int sibling_fires = 0;
  TimerId self = kInvalidTimer;
  TimerId sibling = kInvalidTimer;
  sibling = sim.start_periodic(7, 10, [&](SimTime) { ++sibling_fires; });
  self = sim.start_periodic(5, 10, [&](SimTime) {
    if (++self_fires == 2) {
      EXPECT_TRUE(sim.stop_timer(sibling));
      EXPECT_TRUE(sim.stop_timer(self));
      EXPECT_FALSE(sim.stop_timer(self));  // already stopped: stale handle
    }
  });
  sim.run_until(1000);
  EXPECT_EQ(self_fires, 2);    // fires at 5 and 15
  EXPECT_EQ(sibling_fires, 1); // fires at 7; stopped before 17
  EXPECT_EQ(sim.pending_live(), 0u);
}

TEST(Callbacks, LargeCaptureTakesHeapPathAndStillFires) {
  // Captures beyond the inline budget (kInlineCallbackBytes) heap-allocate
  // but must behave identically.
  Simulator sim;
  std::array<std::uint64_t, 16> payload{};  // 128 bytes > 48-byte budget
  static_assert(sizeof(payload) > kInlineCallbackBytes);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  sim.schedule_at(1, [payload, &sum] {
    for (const std::uint64_t v : payload) sum += v;
  });
  sim.run();
  EXPECT_EQ(sum, 376u);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Callbacks, ScheduleFromCallbackAtCurrentTimestamp) {
  // Re-entrant scheduling at the running event's own timestamp must fire
  // in the same run, after everything already queued for that time.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] {
    order.push_back(0);
    sim.schedule_at(5, [&] { order.push_back(2); });
  });
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorRestore, RefusesForgedEventIdentitiesWithTypedErrors) {
  // A snapshot at t=100 whose kernel drew seqs 1..9: a re-armed event must
  // lie at or after t=100 on one of those seqs, a timer's period must be
  // positive, and a re-registered reservation must hold at least one of
  // those seqs and no other. Anything else is an invalid_argument, never
  // an abort.
  Simulator sim;
  sim.begin_restore(100, 10, 0);
  const auto noop = [] {};
  const auto tick = [](SimTime) {};
  const std::pair<const char*, Status> refused[] = {
      {"a time before the snapshot",
       sim.restore_event(99, 3, noop).status()},
      {"seq 0", sim.restore_event(100, 0, noop).status()},
      {"the kernel's next seq", sim.restore_event(100, 10, noop).status()},
      {"a seq past u32", sim.restore_event(100, 0x100000003ull, noop).status()},
      {"a timer firing in the past",
       sim.restore_periodic(50, 3, 60, tick).status()},
      {"a timer period of 0", sim.restore_periodic(200, 3, 0, tick).status()},
      {"a negative timer period",
       sim.restore_periodic(200, 3, -60, tick).status()},
      {"an empty reservation", sim.restore_reservation(3, 0).status()},
      {"a reservation from seq 0", sim.restore_reservation(0, 2).status()},
      {"a reservation past the next seq",
       sim.restore_reservation(9, 2).status()},
      {"a reservation past u32",
       sim.restore_reservation(0xfffffffeu, 4).status()},
  };
  for (const auto& [what, status] : refused) {
    SCOPED_TRACE(what);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.to_string();
  }
  // The bounds themselves are accepted, and only they were re-armed.
  EXPECT_TRUE(sim.restore_event(100, 9, noop).is_ok());
  EXPECT_TRUE(sim.restore_periodic(100, 1, 60, tick).is_ok());
  EXPECT_TRUE(sim.finish_restore(2).is_ok());
  // A reservation may span every seq the kernel drew, [1, next_seq).
  Simulator reserved;
  reserved.begin_restore(100, 10, 0);
  EXPECT_TRUE(reserved.restore_reservation(1, 9).is_ok());
  EXPECT_TRUE(reserved.finish_restore(9).is_ok());
}

class SimulatorOrderingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorOrderingProperty, RandomEventsFireInNondecreasingTime) {
  Simulator sim;
  Rng rng(GetParam());
  std::vector<SimTime> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    const SimTime t = rng.uniform_int(0, 100000);
    ids.push_back(sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); }));
  }
  // Cancel a random 20%.
  std::size_t cancelled = 0;
  for (const EventId id : ids) {
    if (rng.bernoulli(0.2) && sim.cancel(id)) ++cancelled;
  }
  sim.run();
  EXPECT_EQ(fired.size(), 2000u - cancelled);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(sim.events_processed(), 2000u - cancelled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrderingProperty,
                         ::testing::Values(1u, 7u, 99u, 12345u));

}  // namespace
}  // namespace dc::sim
