// Discrete-event simulation kernel.
//
// This kernel replaces the paper's 100x-sped-up wall-clock emulation (see
// DESIGN.md, substitution table). All DawningCloud daemons — the HTC/MTC
// servers, the resource provision service, the lifecycle service, and the
// job emulator — are event handlers driven by one Simulator instance.
//
// Guarantees:
//   * Events fire in nondecreasing time order.
//   * Events scheduled for the same time fire in scheduling (FIFO) order,
//     which makes experiments fully deterministic.
//   * cancel()/stop_timer() validate their handle in O(1) via a generation
//     tag; the pending entry is removed from the queue immediately, so
//     cancel-heavy workloads never accumulate stale work.
//
// Hot-path design (see docs/ARCHITECTURE.md, "The simulation kernel"):
//   * Events live in a chunked slab (fixed 1024-slot chunks + free list),
//     so slot addresses are stable: growth never relocates live callbacks
//     and callbacks are invoked in place. A slot stores its callback
//     inline for captures up to kInlineCallbackBytes (48) bytes —
//     scheduling such an event performs zero heap allocations in steady
//     state — and is exactly 80 bytes: the generation tag and the
//     timer/free-list link share one 8-byte tail after the callback.
//   * The pending set is an indexed 4-ary heap held by value (see
//     event_queue.hpp), so push and pop inline into the kernel.
//     Dispatch is one event at a time: pop the head, prefetch the next
//     head's slab slot, run. Eager cancel keeps the head always live.
//   * Periodic timers are their own slab; a timer's fire event carries the
//     timer's slot index, so re-arming is direct indexing — no hash
//     lookups anywhere in the kernel.
//   * A producer that knows a whole ordered stream of future events up
//     front (the job emulator's trace submissions) reserves the stream's
//     sequence numbers in one block and queues only its next event; each
//     event queues the one after it on its reserved seq. Pop order is the
//     same as queuing the whole stream at once, and the heap stays small.
//
// The kernel is single-threaded. Parameter sweeps parallelize by running
// one Simulator per thread (see bench/), which is both simpler and faster
// than a locked shared kernel.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/small_func.hpp"
#include "util/check.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::sim {

/// Identifies a scheduled (one-shot) event; valid until it fires or is
/// cancelled. Handles are generation-tagged: a stale id (already fired,
/// already cancelled, or from a recycled slot) is detected in O(1) and
/// never aliases a live event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Identifies a periodic timer. Generation-tagged like EventId.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Identifies a block of reserved sequence numbers (see reserve_seqs).
using SeqReservation = std::uint32_t;

class Simulator {
 public:
  /// Event callbacks are stored inline in the event slab for captures up
  /// to kInlineCallbackBytes (48) bytes; larger captures heap-allocate
  /// (correct, just slower). Still constructible from any callable,
  /// including std::function, but move-only: callbacks are consumed
  /// exactly once.
  using Callback = SmallFunc<void()>;
  using TimerCallback = SmallFunc<void(SimTime)>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (seconds).
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()). Accepts any
  /// callable; the callable is constructed directly into the event slab.
  template <typename F>
  EventId schedule_at(SimTime t, F&& fn) {
    assert(t >= now_ && "cannot schedule into the past");
    const std::uint32_t slot = alloc_event_slot();
    event(slot).fn = std::forward<F>(fn);
    assert(event(slot).fn && "callback must be callable");
    return push_event(t, slot);
  }

  /// Schedules `fn` after `delay` seconds (delay >= 0).
  template <typename F>
  EventId schedule_in(SimDuration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Draws `count` (>= 1) consecutive sequence numbers now — the seqs
  /// `count` back-to-back schedule_at calls would draw — without queuing
  /// anything. schedule_reserved later queues events on them in order, so
  /// a producer whose events have nondecreasing times can keep just its
  /// next event in the heap and still fire in exactly the order queuing
  /// them all now would give. Reserved seqs count in pending_live() until
  /// they are queued.
  SeqReservation reserve_seqs(std::uint32_t count);

  /// Queues `fn` at `t` (>= now()) with the reservation's next seq.
  /// Precondition: the reservation still holds a seq. Queuing its last
  /// seq ends the reservation.
  template <typename F>
  EventId schedule_reserved(SeqReservation reservation, SimTime t, F&& fn) {
    assert(t >= now_ && "cannot schedule into the past");
    const std::uint32_t seq = take_reserved_seq(reservation);
    const std::uint32_t slot = alloc_event_slot();
    event(slot).fn = std::forward<F>(fn);
    assert(event(slot).fn && "callback must be callable");
    return push_event_with_seq(t, slot, seq);
  }

  /// Cancels a pending event. Returns false if it already fired or was
  /// already cancelled. The handle check is O(1); so is queue removal.
  bool cancel(EventId id);

  /// Starts a periodic timer: first fires at `first_fire`, then every
  /// `period` seconds until stopped. The callback receives the fire time.
  TimerId start_periodic(SimTime first_fire, SimDuration period, TimerCallback fn);

  /// Stops a periodic timer. Returns false if it was not active. Safe to
  /// call from any callback, including the timer's own.
  bool stop_timer(TimerId id);

  /// Runs until the event queue is empty or a stop is requested.
  void run();

  /// Processes all events with time <= horizon, then advances the clock to
  /// exactly `horizon`.
  void run_until(SimTime horizon);

  /// Requests that run()/run_until() return after the current event.
  /// Events still pending keep their (time, seq), so a later resume fires
  /// them exactly as the uninterrupted run would have.
  void request_stop() { stop_requested_ = true; }

  /// Number of events executed so far (excludes cancelled).
  std::uint64_t events_processed() const { return processed_; }

  /// High-water mark of the event queue over the run — the kernel's
  /// memory-pressure figure for the self-profiling report. Reserved seqs
  /// not yet queued take no queue space and are not counted here.
  std::size_t peak_pending() const { return peak_pending_; }

  /// Number of live pending occurrences: one-shot events not yet fired or
  /// cancelled, one pending fire per active periodic timer, and every
  /// reserved seq not yet queued (each stands for an event its producer
  /// will queue). Exact — cancelled events leave no residue.
  std::size_t pending_live() const { return live_events_ + reserved_seqs_; }

  /// Pre-sizes the event slab and queue for `expected_events` concurrently
  /// pending events. Optional — both grow on demand.
  void reserve(std::size_t expected_events);

  // --- Snapshot/restore support (see docs/SNAPSHOT.md) -------------------
  //
  // A snapshot taken at a quiescent point (between run_until chunks, no
  // callback on the stack) records, per pending occurrence, its (time, seq)
  // pair. Restore rebuilds the pending set by re-scheduling semantically
  // identical callbacks with their *original* sequence numbers: since seqs
  // are unique, (time, seq) is a total order and the queue pops the restored
  // events in exactly the order the uninterrupted run would have — push
  // order and slot indices are irrelevant to results. A producer's reserved
  // seqs not yet queued are saved by the producer and come back through
  // restore_reservation.

  /// (time, seq) of a pending one-shot event; nullopt if the handle is
  /// stale (already fired or cancelled). O(1) — safe to call on every entry
  /// of an append-only event registry at save time.
  struct PendingEventInfo {
    SimTime time;
    std::uint32_t seq;
  };
  std::optional<PendingEventInfo> pending_event_info(EventId id) const;

  /// Next fire (time, seq) and period of an active periodic timer; nullopt
  /// if the handle is stale.
  struct PendingTimerInfo {
    SimTime next_fire;
    std::uint32_t seq;
    SimDuration period;
  };
  std::optional<PendingTimerInfo> pending_timer_info(TimerId id) const;

  /// The FIFO tie-break counter; saved so schedules after resume draw the
  /// same sequence numbers the uninterrupted run would have.
  std::uint32_t next_seq() const { return next_seq_; }

  /// Enters restore mode on a *virgin* kernel (nothing scheduled, clock at
  /// zero): sets the clock, the tie-break counter, and the processed-event
  /// count to their snapshot values. Only restore_event, restore_periodic
  /// and restore_reservation may schedule until finish_restore().
  void begin_restore(SimTime now, std::uint32_t next_seq,
                     std::uint64_t processed);

  /// Re-arms one pending one-shot event with its saved (time, seq). A
  /// snapshot may be forged, so the pair is checked, not assumed:
  /// invalid_argument refuses a time before now() and a seq outside
  /// [1, next_seq()).
  template <typename F>
  StatusOr<EventId> restore_event(SimTime t, std::uint64_t seq, F&& fn) {
    assert(restoring_ && "restore_event outside begin_restore/finish_restore");
    if (Status st = check_restored(t, seq); !st.is_ok()) return st;
    const std::uint32_t slot = alloc_event_slot();
    event(slot).fn = std::forward<F>(fn);
    assert(event(slot).fn && "callback must be callable");
    return push_event_with_seq(t, slot, static_cast<std::uint32_t>(seq));
  }

  /// Re-arms one periodic timer whose next fire was pending at the
  /// snapshot, with the fire event's saved (time, seq). Checked as
  /// restore_event is, and a period <= 0 is refused too.
  StatusOr<TimerId> restore_periodic(SimTime next_fire, std::uint64_t seq,
                                     SimDuration period, TimerCallback fn);

  /// Re-registers `count` reserved seqs [first, first + count) that were
  /// not yet queued at the snapshot. The producer then queues them with
  /// schedule_reserved, as before the snapshot. Checked as restore_event
  /// is: invalid_argument refuses a count of 0, a first seq of 0 and a
  /// range that ends past next_seq().
  StatusOr<SeqReservation> restore_reservation(std::uint32_t first,
                                               std::uint32_t count);

  /// Leaves restore mode. Validates that exactly `expected_pending`
  /// occurrences were re-armed or re-reserved, and that their sequence
  /// numbers are unique and below next_seq() — a component that forgot to
  /// re-arm (or re-armed twice) is reported here instead of silently
  /// diverging later.
  Status finish_restore(std::uint64_t expected_pending);

  /// Full structural audit of the kernel (checked builds): heap ordering
  /// and slot-index invariants (delegated to the queue), generation
  /// consistency, event and timer slab free-list integrity, timer/event
  /// cross-links, pending-event accounting, and reservations disjoint from
  /// each other and from the queued seqs. A violation aborts with the failing
  /// invariant. In non-DC_CHECKED builds this is a no-op — tests may call
  /// it unconditionally. Checked builds also run it automatically every
  /// max(1024, pending) kernel operations (amortized O(1) per operation),
  /// so long scenarios self-audit.
  void audit_invariants() const;

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  // `link` sentinel: fits the 31-bit field. A live slot with link ==
  // kLinkNone is a one-shot event; any other live value is the owning
  // timer slot; on a dead slot, link is the next free slot.
  static constexpr std::uint32_t kLinkNone = 0x7fffffffu;

  static std::uint64_t time_key(SimTime t) {
    assert(t >= 0 && "queued times are nonnegative");
    return static_cast<std::uint64_t>(t);
  }
  static SimTime key_time(std::uint64_t bits) {
    return static_cast<SimTime>(bits);
  }

  // Slab slot for a pending event: the dispatch record. Exactly 80 bytes —
  // the 72-byte inline callback plus one 8-byte tail word. `fn` is engaged
  // for one-shot callback events; timer fire events carry the timer slot
  // in `link` instead. `gen` tags handles so recycled slots invalidate old
  // ids. `link` is overloaded by lifetime (live: timer link; dead: slab
  // free list) — the two uses never overlap, and merging them is what
  // keeps the slot at 80 bytes. The slot's queue position, if any, lives
  // in the queue's side array, not here.
  struct EventSlot {
    Callback fn;
    std::uint32_t gen = 1;
    std::uint32_t link : 31 = kLinkNone;
    std::uint32_t live : 1 = 0;
  };
  static_assert(sizeof(EventSlot) == sizeof(Callback) + 8,
                "EventSlot tail grew past one 8-byte word");

  // Slab slot for a periodic timer. `firing` defers slot reuse while the
  // timer's callback is on the stack, so a callback may stop its own
  // timer (or a sibling's) without destroying the callable it runs from.
  struct TimerSlot {
    TimerCallback fn;
    SimDuration period = 0;
    EventId pending = kInvalidEvent;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNpos;
    bool alive = false;
    bool firing = false;
  };

  static constexpr EventId make_event_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(slot) << 32) | gen;
  }
  static constexpr std::uint32_t id_slot(std::uint64_t id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static constexpr std::uint32_t id_gen(std::uint64_t id) {
    return static_cast<std::uint32_t>(id);
  }

  // Chunked slab geometry: fixed 1024-slot chunks keep slot addresses
  // stable across growth (no relocation of live callbacks) and make slot
  // lookup two shifts and an add.
  static constexpr std::uint32_t kSlabShift = 10;
  static constexpr std::uint32_t kSlabChunk = 1u << kSlabShift;
  static constexpr std::uint32_t kSlabMask = kSlabChunk - 1;

  EventSlot& event(std::uint32_t slot) {
    return event_chunks_[slot >> kSlabShift][slot & kSlabMask];
  }
  const EventSlot& event(std::uint32_t slot) const {
    return event_chunks_[slot >> kSlabShift][slot & kSlabMask];
  }
  TimerSlot& timer(std::uint32_t slot) {
    return timer_chunks_[slot >> kSlabShift][slot & kSlabMask];
  }
  const TimerSlot& timer(std::uint32_t slot) const {
    return timer_chunks_[slot >> kSlabShift][slot & kSlabMask];
  }

  // Checked builds: count kernel operations down to the next full audit.
  // The reset interval scales with the pending set so the O(pending) walk
  // stays amortized O(1) per schedule/cancel/dispatch.
  void maybe_audit() {
#if defined(DC_CHECKED)
    if (--audit_countdown_ == 0) {
      audit_invariants();
      audit_countdown_ =
          live_events_ > 1024 ? static_cast<std::uint64_t>(live_events_) : 1024;
    }
#endif
  }

  std::uint32_t alloc_event_slot() {
    if (free_event_ != kLinkNone) {
      const std::uint32_t slot = free_event_;
      EventSlot& ev = event(slot);
      free_event_ = ev.link;
      ev.link = kLinkNone;
      ev.live = 1;
      return slot;
    }
    return grow_event_slab();
  }
  std::uint32_t grow_event_slab();
  void release_event_slot(std::uint32_t slot);

  EventId push_event(SimTime t, std::uint32_t slot) {
    if (next_seq_ == 0xffffffffu) renumber_seqs();
    return push_event_with_seq(t, slot, next_seq_++);
  }

  // Shared push core; restore_event passes a saved seq, push_event the next
  // fresh one.
  EventId push_event_with_seq(SimTime t, std::uint32_t slot,
                              std::uint32_t seq) {
    queue_.push(QueueNode{time_key(t), seq, slot});
    ++live_events_;
    if (live_events_ > peak_pending_) peak_pending_ = live_events_;
    maybe_audit();
    return make_event_id(slot, event(slot).gen);
  }

  // A reservation's seqs not yet queued: [next, end); spent once next ==
  // end. No seq inside it is ever drawn for anything else, so it stays
  // contiguous through renumber_seqs.
  struct SeqRange {
    std::uint32_t next;
    std::uint32_t end;
  };

  std::uint32_t take_reserved_seq(SeqReservation reservation) {
    SeqRange& range = ranges_[reservation];
    assert(range.next < range.end && "reservation has no seq left");
    --reserved_seqs_;
    return range.next++;
  }
  SeqReservation add_range(std::uint32_t first, std::uint32_t count);
  /// restore_event's checks of a saved (time, seq).
  Status check_restored(SimTime t, std::uint64_t seq) const;

  EventId schedule_timer_event(SimTime t, std::uint32_t timer_slot);
  void fire_timer(std::uint32_t timer_slot, SimTime fired_at);
  void release_timer_slot(std::uint32_t slot);

  /// Pops and runs the head event if its time is <= horizon_key. Returns
  /// false when there is none (queue empty or head beyond the horizon).
  bool dispatch_next(std::uint64_t horizon_key);

  void renumber_seqs();

  SimTime now_ = 0;
  std::uint32_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_events_ = 0;  // queued occurrences
  std::size_t reserved_seqs_ = 0;  // reserved, not yet queued
  std::size_t peak_pending_ = 0;
  bool stop_requested_ = false;
  bool restoring_ = false;

  HeapEventQueue queue_;

  std::vector<SeqRange> ranges_;  // indexed by SeqReservation; never shrinks

  std::vector<std::unique_ptr<EventSlot[]>> event_chunks_;
  std::uint32_t event_slots_used_ = 0;  // high-water mark across chunks
  std::uint32_t free_event_ = kLinkNone;
  std::vector<std::unique_ptr<TimerSlot[]>> timer_chunks_;
  std::uint32_t timer_slots_used_ = 0;
  std::uint32_t free_timer_ = kNpos;
  DC_CHECKED_ONLY(std::uint64_t audit_countdown_ = 1024;)
  // The timer whose fire event is being pushed right now (start/re-arm):
  // its `pending` handle is assigned only after push_event returns, so an
  // audit that fires from inside that push must not require it to be set.
  DC_CHECKED_ONLY(std::uint32_t timer_arming_ = kNpos;)
};

}  // namespace dc::sim
