// Randomized reference-model test of the kernel's dispatch order. A
// std::set of (time, seq) pairs tracks every pending occurrence — each
// scheduled event, each periodic re-arm, each reserved seq — and drops
// each cancelled or stopped one. The seqs are the test's own 64-bit mirror
// of the kernel's draws, so they keep their order when the kernel's
// 32-bit counter wraps and renumbers. Seeded streams of schedules, fan-out
// callbacks, reserved chains (each link queues the next on its reserved
// seq), cancels, periodic timers, timer stops and run_until chunks drive
// one Simulator, and every event that fires must be the reference's
// minimum. A mid-stream kernel-level snapshot/restore must continue
// exactly as the original.
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace dc::sim {
namespace {

// Deterministic 64-bit mix (splitmix64): the same op stream on every
// platform, no <random> distribution variance.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

using Key = std::pair<SimTime, std::uint64_t>;  // (time, mirrored seq)

// The reference order: the kernel must always fire the minimum pending key.
struct Reference {
  std::set<Key> pending;
  std::uint64_t fired = 0;
  std::uint64_t mismatches = 0;

  void add(const Key& key) {
    if (!pending.insert(key).second) {
      ADD_FAILURE() << "seq " << key.second << " scheduled twice";
    }
  }
  void remove(const Key& key) {
    EXPECT_EQ(pending.erase(key), 1u) << "cancelled an unknown occurrence";
  }
  void fire(SimTime now, const Key& key) {
    ++fired;
    const bool is_min = !pending.empty() && *pending.begin() == key;
    if ((!is_min || key.first != now) && ++mismatches == 1) {
      ADD_FAILURE() << "fired (" << key.first << ", " << key.second
                    << ") at t=" << now << "; reference minimum is "
                    << (pending.empty() ? std::string("none")
                                        : std::to_string(pending.begin()->first) +
                                              ", seq " +
                                              std::to_string(pending.begin()->second));
    }
    pending.erase(key);
  }
};

// One kernel plus its reference. Every fire is logged as "tag@time;" so
// two kernels (original and restored) can also be compared exactly.
// std::map keeps victim choice deterministic. `next_seq` mirrors the
// kernel's counter: every schedule, timer start, timer re-arm and reserved
// seq draws from it in the kernel's order.
struct Driver {
  struct Live {
    EventId id;
    Key key;
  };
  struct Timer {
    TimerId id;
    Key key;  // the pending fire
  };
  // A reserved chain: link i fires at times[i] on seq first_seq + i, and
  // queues link i + 1 from its own callback.
  struct Chain {
    std::vector<SimTime> times;  // nondecreasing
    std::uint64_t first_seq = 0;
    std::size_t next = 0;  // the queued link
    SeqReservation reservation = 0;
    EventId event = kInvalidEvent;
  };

  Simulator sim;
  Reference ref;
  std::ostringstream log;
  std::uint64_t next_tag = 1;
  std::uint64_t next_seq = 1;
  std::map<std::uint64_t, Live> live;
  std::map<std::uint64_t, Timer> timers;
  std::map<std::uint64_t, Chain> chains;

  // Records a newly pending one-shot; `tag` identifies it in `live`.
  void track(std::uint64_t tag, EventId id, const Key& key) {
    const auto info = sim.pending_event_info(id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->time, key.first);
    live[tag] = Live{id, key};
    ref.add(key);
  }

  // Called first thing in every one-shot callback.
  void fired(std::uint64_t tag) {
    const auto it = live.find(tag);
    if (it == live.end()) {
      ADD_FAILURE() << "event " << tag << " fired after it was cancelled";
      return;
    }
    ref.fire(sim.now(), it->second.key);
    log << tag << '@' << sim.now() << ';';
    live.erase(it);
  }

  void schedule(SimTime t) {
    const std::uint64_t tag = next_tag++;
    const Key key{t, next_seq++};
    track(tag, sim.schedule_at(t, [this, tag] { fired(tag); }), key);
  }

  void restore(std::uint64_t tag, const Key& key, std::uint32_t seq) {
    track(tag,
          sim.restore_event(key.first, seq, [this, tag] { fired(tag); })
              .value(),
          key);
  }

  // A callback that schedules follow-ups, some at its own timestamp —
  // exercising same-timestamp FIFO for events scheduled mid-dispatch.
  void schedule_fanout(SimTime t, std::uint32_t n) {
    const std::uint64_t tag = next_tag++;
    const Key key{t, next_seq++};
    track(tag, sim.schedule_at(t, [this, tag, n] {
      fired(tag);
      for (std::uint32_t i = 0; i < n; ++i) schedule(sim.now() + (i % 2));
    }), key);
  }

  // Reserves one seq per link up front; only the first link is queued.
  // Gaps of zero put several links at one timestamp.
  void reserve_chain(SimTime first, std::uint32_t links, Rng& rng) {
    const std::uint64_t tag = next_tag++;
    Chain chain;
    SimTime t = first;
    for (std::uint32_t i = 0; i < links; ++i) {
      chain.times.push_back(t);
      if (rng.below(3) != 0) t += static_cast<SimTime>(rng.below(400));
    }
    chain.reservation = sim.reserve_seqs(links);
    chain.first_seq = next_seq;
    next_seq += links;
    for (std::uint32_t i = 0; i < links; ++i) {
      ref.add({chain.times[i], chain.first_seq + i});
    }
    chains[tag] = std::move(chain);
    queue_link(tag);
  }

  void queue_link(std::uint64_t tag) {
    Chain& chain = chains.at(tag);
    chain.event = sim.schedule_reserved(chain.reservation,
                                        chain.times[chain.next],
                                        [this, tag] { link_fired(tag); });
  }

  // Odd links schedule a fresh event at their own timestamp *before*
  // queuing the next link: the fresh seq is later than every reserved
  // one, so the next link must still fire first when the times tie.
  void link_fired(std::uint64_t tag) {
    Chain& chain = chains.at(tag);
    const std::size_t i = chain.next++;
    ref.fire(sim.now(), {chain.times[i], chain.first_seq + i});
    log << 'C' << tag << '.' << i << '@' << sim.now() << ';';
    if (chain.next == chain.times.size()) {
      chains.erase(tag);
      return;
    }
    if (i % 2 == 1) schedule(sim.now());
    queue_link(tag);
  }

  // Re-arms a chain saved from another kernel: its queued link with the
  // saved seq, the links after it as one reservation.
  void restore_chain(std::uint64_t tag, const Chain& saved,
                     std::uint32_t queued_seq) {
    Chain chain = saved;
    chain.event = sim.restore_event(chain.times[chain.next], queued_seq,
                                    [this, tag] { link_fired(tag); })
                      .value();
    const std::size_t rest = chain.times.size() - chain.next - 1;
    if (rest > 0) {
      chain.reservation =
          sim.restore_reservation(queued_seq + 1,
                                  static_cast<std::uint32_t>(rest))
              .value();
    }
    for (std::size_t i = chain.next; i < chain.times.size(); ++i) {
      ref.add({chain.times[i], chain.first_seq + i});
    }
    chains[tag] = std::move(chain);
  }

  void cancel(std::uint64_t tag) {
    const Live victim = live.at(tag);
    EXPECT_TRUE(sim.cancel(victim.id));
    ref.remove(victim.key);
    live.erase(tag);
  }

  // The timer re-arms before its callback runs, drawing the next seq.
  void start_timer(SimTime first, SimDuration period) {
    const std::uint64_t tag = next_tag++;
    const Key key{first, next_seq++};
    const TimerId id =
        sim.start_periodic(first, period, [this, tag, period](SimTime t) {
          Timer& timer = timers.at(tag);
          ref.fire(t, timer.key);
          log << 'T' << tag << '@' << t << ';';
          timer.key = {t + period, next_seq++};
          const auto next = sim.pending_timer_info(timer.id);
          ASSERT_TRUE(next.has_value());
          EXPECT_EQ(next->next_fire, timer.key.first);
          ref.add(timer.key);
        });
    timers[tag] = Timer{id, key};
    ref.add(key);
  }

  void stop_nth_timer(std::uint64_t n) {
    auto it = std::next(timers.begin(), static_cast<std::ptrdiff_t>(n));
    EXPECT_TRUE(sim.stop_timer(it->second.id));
    ref.remove(it->second.key);
    timers.erase(it);
  }

  // After run_until(horizon): nothing due by the horizon is left, and the
  // kernel's pending count matches the reference.
  void check_chunk(SimTime horizon) {
    EXPECT_EQ(ref.mismatches, 0u) << "before t=" << horizon;
    EXPECT_EQ(sim.now(), horizon);
    EXPECT_TRUE(ref.pending.empty() || ref.pending.begin()->first > horizon)
        << "an event due by t=" << horizon << " did not fire";
    EXPECT_EQ(sim.pending_live(), ref.pending.size());
  }

  // Stops every timer so run() terminates, then drains the kernel.
  void drain() {
    while (!timers.empty()) stop_nth_timer(0);
    sim.run();
    EXPECT_EQ(ref.mismatches, 0u);
    EXPECT_TRUE(ref.pending.empty());
    EXPECT_TRUE(live.empty());
    EXPECT_TRUE(chains.empty());
    EXPECT_EQ(sim.pending_live(), 0u);
    EXPECT_EQ(sim.events_processed(), ref.fired);
    sim.audit_invariants();
  }
};

void drive(Driver& d, std::uint64_t seed, std::uint32_t ops) {
  Rng rng(seed);
  SimTime horizon = d.sim.now();
  for (std::uint32_t op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.below(100);
    if (kind < 40) {
      d.schedule(horizon + static_cast<SimTime>(rng.below(5000)));
    } else if (kind < 48) {
      d.reserve_chain(horizon + static_cast<SimTime>(rng.below(2000)),
                      1 + static_cast<std::uint32_t>(rng.below(8)), rng);
    } else if (kind < 56) {
      const SimTime t = horizon + static_cast<SimTime>(rng.below(500));
      d.schedule_fanout(t, 1 + static_cast<std::uint32_t>(rng.below(6)));
    } else if (kind < 70) {
      if (!d.live.empty()) {
        const auto pick = static_cast<std::ptrdiff_t>(rng.below(d.live.size()));
        d.cancel(std::next(d.live.begin(), pick)->first);
      }
    } else if (kind < 80) {
      const SimTime first = horizon + 1 + static_cast<SimTime>(rng.below(50));
      d.start_timer(first, 1 + static_cast<SimDuration>(rng.below(40)));
    } else if (kind < 88) {
      if (!d.timers.empty()) d.stop_nth_timer(rng.below(d.timers.size()));
    } else {
      horizon += static_cast<SimTime>(1 + rng.below(2000));
      d.sim.run_until(horizon);
      d.check_chunk(horizon);
      ASSERT_EQ(d.ref.mismatches, 0u) << "op " << op;
    }
  }
  d.drain();
}

TEST(QueueDifferential, HeapMatchesReferenceOnRandomOpStreams) {
  for (const std::uint64_t seed : {7ull, 1337ull, 0xdecafull}) {
    Driver d;
    drive(d, seed, 4000);
    EXPECT_GT(d.ref.fired, 1000u) << "seed " << seed;
  }
}

TEST(QueueDifferential, CancelHeavyStreamsAgree) {
  // Schedule then cancel in bursts: the heap's eager excision must leave
  // exactly the reference's survivors, popped in (time, seq) order.
  Driver d;
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t first_tag = d.next_tag;
    for (int i = 0; i < 40; ++i) {
      d.schedule(d.sim.now() + static_cast<SimTime>(rng.below(300)));
    }
    for (std::uint64_t tag = first_tag; tag < d.next_tag; ++tag) {
      if (rng.below(100) < 70 && d.live.count(tag) != 0) d.cancel(tag);
    }
    const SimTime horizon = d.sim.now() + static_cast<SimTime>(rng.below(150));
    d.sim.run_until(horizon);
    d.check_chunk(horizon);
    ASSERT_EQ(d.ref.mismatches, 0u) << "round " << round;
  }
  d.drain();
}

// Kernel-level snapshot/restore mid-stream: capture (time, seq) of every
// pending one-shot and every chain's queued link at a quiescent point,
// re-arm them on a virgin kernel in a different push order, re-reserve
// each chain's unqueued links, and check the continuation matches the
// uninterrupted original.
TEST(QueueDifferential, SnapshotRestoreMidStreamHeapToHeap) {
  Driver original;
  Rng rng(4242);
  for (int i = 0; i < 500; ++i) {
    original.schedule(static_cast<SimTime>(rng.below(10000)));
    if (i % 25 == 0) {
      original.reserve_chain(static_cast<SimTime>(rng.below(6000)),
                             2 + static_cast<std::uint32_t>(rng.below(30)), rng);
    }
  }
  original.sim.run_until(3000);
  original.check_chunk(3000);
  ASSERT_FALSE(original.chains.empty());

  Driver resumed;
  resumed.sim.begin_restore(original.sim.now(), original.sim.next_seq(),
                            original.sim.events_processed());
  for (auto it = original.live.rbegin(); it != original.live.rend(); ++it) {
    const auto info = original.sim.pending_event_info(it->second.id);
    ASSERT_TRUE(info.has_value());
    resumed.restore(it->first, it->second.key, info->seq);
  }
  std::size_t outstanding = 0;
  for (auto it = original.chains.rbegin(); it != original.chains.rend(); ++it) {
    const auto info = original.sim.pending_event_info(it->second.event);
    ASSERT_TRUE(info.has_value());
    resumed.restore_chain(it->first, it->second, info->seq);
    outstanding += it->second.times.size() - it->second.next - 1;
  }
  EXPECT_GT(outstanding, 0u) << "no reservation was outstanding at the snapshot";
  ASSERT_TRUE(resumed.sim.finish_restore(original.sim.pending_live()).is_ok());
  EXPECT_EQ(resumed.sim.pending_live(), original.sim.pending_live());
  resumed.next_tag = original.next_tag;
  resumed.next_seq = original.next_seq;
  resumed.ref.fired = original.ref.fired;

  original.log.str("");
  Rng cont_a(777);
  Rng cont_b(777);
  auto continue_on = [](Driver& d, Rng& cont) {
    for (int i = 0; i < 300; ++i) {
      d.schedule(d.sim.now() + static_cast<SimTime>(cont.below(4000)));
      if (i % 50 == 0) {
        d.reserve_chain(d.sim.now() + static_cast<SimTime>(cont.below(4000)),
                        1 + static_cast<std::uint32_t>(cont.below(10)), cont);
      }
    }
    d.drain();
  };
  continue_on(original, cont_a);
  continue_on(resumed, cont_b);
  EXPECT_EQ(original.log.str(), resumed.log.str());
  EXPECT_EQ(original.sim.events_processed(), resumed.sim.events_processed());
}

// The 32-bit counter wraps: a kernel restored just below the top of the
// seq space, with one-shots and chains pending on seqs of their own, runs
// the random op stream until renumber_seqs compacts the queued nodes and
// the outstanding reservations. Firing order must not notice. One case
// wraps on an ordinary schedule, the other on a reservation too large to
// fit below the top.
TEST(QueueDifferential, SeqWrapRenumbersQueuedNodesAndReservations) {
  constexpr std::uint32_t kNearTop = 0xffffff00u;
  for (const std::uint32_t first_chain : {0u, 300u}) {
    SCOPED_TRACE(first_chain == 0 ? "wrap on a schedule"
                                  : "wrap on a reservation");
    Driver d;
    Rng rng(31337 + first_chain);
    d.sim.begin_restore(100, kNearTop, 0);
    // Pending at the restore, all due long after the wrap: a one-shot
    // every 20 seqs from 0xffff0000 and, after every tenth, a chain on the
    // seqs that follow it. They share ten timestamps, so ties are decided
    // by seq: a renumbering that moved a reservation against the queued
    // nodes would change the firing order.
    std::uint64_t expected = 0;
    for (std::uint32_t i = 0; i < 200; ++i) {
      const std::uint32_t seq = 0xffff0000u + 20 * i;
      const SimTime t = 100000 + 100 * static_cast<SimTime>(rng.below(10));
      d.restore(d.next_tag++, {t, seq}, seq);
      ++expected;
      if (i % 10 != 0) continue;
      Driver::Chain chain;
      chain.first_seq = seq + 1;
      SimTime link = 100000 + 100 * static_cast<SimTime>(rng.below(5));
      const std::uint32_t links = 2 + static_cast<std::uint32_t>(rng.below(17));
      for (std::uint32_t k = 0; k < links; ++k) {
        chain.times.push_back(link);
        link += 100 * static_cast<SimTime>(rng.below(2));
      }
      d.restore_chain(d.next_tag++, chain, seq + 1);
      expected += links;
    }
    ASSERT_TRUE(d.sim.finish_restore(expected).is_ok());
    d.next_seq = kNearTop;
    if (first_chain > 0) d.reserve_chain(200, first_chain, rng);
    drive(d, 99 + first_chain, 3000);
    EXPECT_LT(d.sim.next_seq(), kNearTop) << "the counter never wrapped";
    EXPECT_GT(d.ref.fired, 3000u);
  }
}

// request_stop() in the middle of a same-timestamp run: the rest of the
// run stays queued and fires in its original order on resume.
TEST(BatchedDispatch, StopMidBatchResumesInOrder) {
  Simulator sim;
  std::ostringstream log;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&, i] {
      log << i << ';';
      if (i == 3) sim.request_stop();
    });
  }
  sim.run();
  EXPECT_EQ(log.str(), "0;1;2;3;");
  EXPECT_EQ(sim.pending_live(), 6u);
  sim.run();
  EXPECT_EQ(log.str(), "0;1;2;3;4;5;6;7;8;9;");
  EXPECT_EQ(sim.pending_live(), 0u);
}

// An event cancelling a later event at its own timestamp: the victim
// must not fire.
TEST(BatchedDispatch, SiblingCancelWithinBatch) {
  Simulator sim;
  std::ostringstream log;
  EventId victim = kInvalidEvent;
  sim.schedule_at(7, [&] {
    log << "killer;";
    EXPECT_TRUE(sim.cancel(victim));
  });
  victim = sim.schedule_at(7, [&] { log << "victim;"; });
  sim.schedule_at(7, [&] { log << "tail;"; });
  sim.run();
  EXPECT_EQ(log.str(), "killer;tail;");
  EXPECT_EQ(sim.events_processed(), 2u);
  sim.audit_invariants();
}

}  // namespace
}  // namespace dc::sim
