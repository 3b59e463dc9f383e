#include "sim/simulator.hpp"

#include <algorithm>
#include <iterator>

namespace dc::sim {

// ---------------------------------------------------------------------------
// Event slab

std::uint32_t Simulator::grow_event_slab() {
  const std::uint32_t slot = event_slots_used_++;
  if ((slot >> kSlabShift) >= event_chunks_.size()) {
    event_chunks_.push_back(std::make_unique<EventSlot[]>(kSlabChunk));
  }
  queue_.ensure_slots(event_slots_used_);
  event(slot).live = 1;
  return slot;
}

void Simulator::release_event_slot(std::uint32_t slot) {
  EventSlot& ev = event(slot);
  ev.fn.reset();
  ev.live = 0;
  // Bump the generation so any outstanding EventId for this slot goes
  // stale; skip 0 on wrap so make_event_id never produces kInvalidEvent.
  if (++ev.gen == 0) ev.gen = 1;
  ev.link = free_event_;
  free_event_ = slot;
  --live_events_;
}

void Simulator::reserve(std::size_t expected_events) {
  queue_.reserve(expected_events);
  if (expected_events <= event_slots_used_) return;
  // Materialize the new slots onto the free list now (ascending, so a
  // burst of schedules still fills slots in address order): every
  // subsequent alloc_event_slot takes the branch-free free-list path.
  const auto first = static_cast<std::uint32_t>(event_slots_used_);
  const auto last = static_cast<std::uint32_t>(expected_events - 1);
  while (event_chunks_.size() * kSlabChunk < expected_events) {
    event_chunks_.push_back(std::make_unique<EventSlot[]>(kSlabChunk));
  }
  for (std::uint32_t s = first; s < last; ++s) event(s).link = s + 1;
  event(last).link = free_event_;
  free_event_ = first;
  event_slots_used_ = static_cast<std::uint32_t>(expected_events);
  queue_.ensure_slots(event_slots_used_);
}

// The 32-bit FIFO tie-break counter saturated (once per ~4.3 billion
// schedules). Compact the seqs of the queued nodes and of the outstanding
// reservations together, order-preservingly: relative order is all the
// heap compares, so FIFO order is exactly preserved, and a reservation
// stays one contiguous block (no other seq lies inside it). Amortized cost
// is zero.
void Simulator::renumber_seqs() {
  std::vector<QueueNode> nodes;
  queue_.drain_all(&nodes);
  std::sort(nodes.begin(), nodes.end(),
            [](const QueueNode& a, const QueueNode& b) { return a.seq < b.seq; });
  std::vector<SeqReservation> open;
  for (SeqReservation r = 0; r < ranges_.size(); ++r) {
    if (ranges_[r].next < ranges_[r].end) open.push_back(r);
  }
  std::sort(open.begin(), open.end(), [this](SeqReservation a, SeqReservation b) {
    return ranges_[a].next < ranges_[b].next;
  });
  std::uint32_t seq = 1;
  auto open_it = open.begin();
  auto renumber_ranges_below = [&](std::uint64_t bound) {
    for (; open_it != open.end() && ranges_[*open_it].next < bound; ++open_it) {
      SeqRange& range = ranges_[*open_it];
      const std::uint32_t count = range.end - range.next;
      range.next = seq;
      range.end = seq + count;
      seq += count;
    }
  };
  for (QueueNode& node : nodes) {
    renumber_ranges_below(node.seq);
    node.seq = seq++;
  }
  renumber_ranges_below(~std::uint64_t{0});
  next_seq_ = seq;
  for (const QueueNode& node : nodes) queue_.push(node);
}

// ---------------------------------------------------------------------------
// Reserved sequence numbers

SeqReservation Simulator::add_range(std::uint32_t first, std::uint32_t count) {
  reserved_seqs_ += count;
  ranges_.push_back({first, first + count});
  return static_cast<SeqReservation>(ranges_.size() - 1);
}

SeqReservation Simulator::reserve_seqs(std::uint32_t count) {
  assert(count >= 1 && "reserve at least one seq");
  if (count > 0xffffffffu - next_seq_) renumber_seqs();
  assert(count <= 0xffffffffu - next_seq_ &&
         "more seqs outstanding than the 32-bit counter holds");
  const std::uint32_t first = next_seq_;
  next_seq_ += count;
  return add_range(first, count);
}

// ---------------------------------------------------------------------------
// Execution

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = id_slot(id);
  if (slot >= event_slots_used_) return false;
  EventSlot& ev = event(slot);
  if (!ev.live || ev.gen != id_gen(id)) return false;
  // A live event is always queued: dispatch pops an event and marks it
  // dead before its callback can run.
  queue_.erase_slot(slot);
  release_event_slot(slot);
  maybe_audit();
  return true;
}

// Pops the head and runs it. The event is marked dead before its callback
// is invoked: a cancel() of its own id from inside the callback is then a
// clean "already fired" no-op, and pending_live() already excludes it. The
// slot joins the free list only after the callback returns, so re-entrant
// schedules cannot recycle it; chunked slab addresses are stable, so the
// callable is invoked in place.
bool Simulator::dispatch_next(std::uint64_t horizon_key) {
  const QueueNode* head = queue_.min();
  if (head == nullptr || head->time_bits > horizon_key) return false;
  assert(head->time_bits >= time_key(now_));
  DC_INVARIANT(head->time_bits >= time_key(now_),
               "simulation time must be nondecreasing (queue produced an "
               "event before now())");
  maybe_audit();
  now_ = key_time(head->time_bits);
  const std::uint32_t slot = head->slot;
  queue_.pop_min();
  // The queue head is now the *next* event to fire: start pulling its slot
  // in while this event's callback runs, hiding the slab miss.
  if (const QueueNode* next = queue_.min(); next != nullptr) {
    __builtin_prefetch(&event(next->slot));
  }
  ++processed_;
  EventSlot& ev = event(slot);
  ev.live = 0;
  --live_events_;
  if (ev.link == kLinkNone) {
    ev.fn();
    ev.fn.reset();
    if (++ev.gen == 0) ev.gen = 1;
    ev.link = free_event_;
    free_event_ = slot;
  } else {
    // Timer fire events carry no callable: recycle the slot immediately.
    const std::uint32_t timer_slot = ev.link;
    if (++ev.gen == 0) ev.gen = 1;
    ev.link = free_event_;
    free_event_ = slot;
    fire_timer(timer_slot, now_);
  }
  return true;
}

void Simulator::run() {
  stop_requested_ = false;
  while (!stop_requested_ && dispatch_next(~std::uint64_t{0})) {
  }
}

void Simulator::run_until(SimTime horizon) {
  assert(horizon >= now_);
  DC_INVARIANT(horizon >= now_, "run_until horizon is in the past");
  stop_requested_ = false;
  const std::uint64_t horizon_key = time_key(horizon);
  while (!stop_requested_ && dispatch_next(horizon_key)) {
  }
  now_ = horizon;
}

// ---------------------------------------------------------------------------
// Periodic timers

EventId Simulator::schedule_timer_event(SimTime t, std::uint32_t timer_slot) {
  const std::uint32_t slot = alloc_event_slot();
  event(slot).link = timer_slot & kLinkNone;
  DC_CHECKED_ONLY(timer_arming_ = timer_slot;)
  const EventId id = push_event(t, slot);
  DC_CHECKED_ONLY(timer_arming_ = kNpos;)
  return id;
}

void Simulator::fire_timer(std::uint32_t timer_slot, SimTime fired_at) {
  // Chunked slab => `ts` stays valid even if the callback starts new
  // timers; only slot *reuse* is a hazard, and `firing` defers that.
  TimerSlot& ts = timer(timer_slot);
  assert(ts.alive && "a stopped timer's fire event should be cancelled");
  // Re-arm before invoking so the callback may stop the timer. The fire
  // event indexes the timer slab directly — no lookups on this path.
  ts.pending = schedule_timer_event(fired_at + ts.period, timer_slot);
  // Invoke in place: stop_timer() never destroys the callable of a timer
  // whose callback is on the stack (it only clears `alive`; `firing`
  // defers the actual release to us), so self-stop is safe.
  ts.firing = true;
  ts.fn(fired_at);
  ts.firing = false;
  if (!ts.alive) {
    release_timer_slot(timer_slot);  // stopped from within its own callback
  }
}

TimerId Simulator::start_periodic(SimTime first_fire, SimDuration period,
                                  TimerCallback fn) {
  assert(period > 0 && "periodic timer needs a positive period");
  assert(first_fire >= now_);
  std::uint32_t slot;
  if (free_timer_ != kNpos) {
    slot = free_timer_;
    free_timer_ = timer(slot).next_free;
    timer(slot).next_free = kNpos;
  } else {
    slot = timer_slots_used_++;
    if ((slot >> kSlabShift) >= timer_chunks_.size()) {
      timer_chunks_.push_back(std::make_unique<TimerSlot[]>(kSlabChunk));
    }
  }
  TimerSlot& ts = timer(slot);
  ts.period = period;
  ts.fn = std::move(fn);
  ts.alive = true;
  ts.firing = false;
  const TimerId id = make_event_id(slot, ts.gen);
  ts.pending = schedule_timer_event(first_fire, slot);
  return id;
}

bool Simulator::stop_timer(TimerId id) {
  const std::uint32_t slot = id_slot(id);
  if (slot >= timer_slots_used_) return false;
  TimerSlot& ts = timer(slot);
  if (!ts.alive || ts.gen != id_gen(id)) return false;
  if (ts.pending != kInvalidEvent) {
    cancel(ts.pending);
    ts.pending = kInvalidEvent;
  }
  ts.alive = false;
  // If the timer's own callback is on the stack, fire_timer() releases the
  // slot when it returns; releasing now would recycle the slot under it.
  if (!ts.firing) release_timer_slot(slot);
  return true;
}

// ---------------------------------------------------------------------------
// Snapshot/restore support

std::optional<Simulator::PendingEventInfo> Simulator::pending_event_info(
    EventId id) const {
  const std::uint32_t slot = id_slot(id);
  if (slot >= event_slots_used_) return std::nullopt;
  const EventSlot& ev = event(slot);
  if (!ev.live || ev.gen != id_gen(id)) return std::nullopt;
  QueueNode node;
  const bool queued = queue_.find_slot(slot, &node);
  assert(queued && "a live event is always queued");
  if (!queued) return std::nullopt;
  return PendingEventInfo{key_time(node.time_bits), node.seq};
}

std::optional<Simulator::PendingTimerInfo> Simulator::pending_timer_info(
    TimerId id) const {
  const std::uint32_t slot = id_slot(id);
  if (slot >= timer_slots_used_) return std::nullopt;
  const TimerSlot& ts = timer(slot);
  if (!ts.alive || ts.gen != id_gen(id)) return std::nullopt;
  const std::uint32_t ev_slot = id_slot(ts.pending);
  assert(ev_slot < event_slots_used_ && event(ev_slot).live &&
         "alive timer without a pending fire event at a quiescent point");
  QueueNode node;
  const bool queued = queue_.find_slot(ev_slot, &node);
  assert(queued && "a live event is always queued");
  if (!queued) return std::nullopt;
  return PendingTimerInfo{key_time(node.time_bits), node.seq, ts.period};
}

void Simulator::begin_restore(SimTime now, std::uint32_t next_seq,
                              std::uint64_t processed) {
  assert(!restoring_ && "begin_restore called twice");
  assert(now_ == 0 && processed_ == 0 && live_events_ == 0 &&
         queue_.size() == 0 && event_slots_used_ == 0 &&
         timer_slots_used_ == 0 && ranges_.empty() &&
         "restore requires a virgin kernel (build components passively)");
  assert(now >= 0 && next_seq >= 1);
  now_ = now;
  next_seq_ = next_seq;
  processed_ = processed;
  restoring_ = true;
}

Status Simulator::check_restored(SimTime t, std::uint64_t seq) const {
  if (t < now_) {
    return Status::invalid_argument(
        "simulator restore: event at t=" + std::to_string(t) +
        " is before the snapshot's t=" + std::to_string(now_));
  }
  if (seq < 1 || seq >= next_seq_) {
    return Status::invalid_argument(
        "simulator restore: seq " + std::to_string(seq) + " is outside [1, " +
        std::to_string(next_seq_) + ")");
  }
  return Status::ok();
}

StatusOr<TimerId> Simulator::restore_periodic(SimTime next_fire,
                                              std::uint64_t seq,
                                              SimDuration period,
                                              TimerCallback fn) {
  assert(restoring_ && "restore_periodic outside begin/finish_restore");
  if (period <= 0) {
    return Status::invalid_argument("simulator restore: timer period " +
                                    std::to_string(period) +
                                    " is not positive");
  }
  if (Status st = check_restored(next_fire, seq); !st.is_ok()) return st;
  std::uint32_t slot;
  if (free_timer_ != kNpos) {
    slot = free_timer_;
    free_timer_ = timer(slot).next_free;
    timer(slot).next_free = kNpos;
  } else {
    slot = timer_slots_used_++;
    if ((slot >> kSlabShift) >= timer_chunks_.size()) {
      timer_chunks_.push_back(std::make_unique<TimerSlot[]>(kSlabChunk));
    }
  }
  TimerSlot& ts = timer(slot);
  ts.period = period;
  ts.fn = std::move(fn);
  ts.alive = true;
  ts.firing = false;
  const TimerId id = make_event_id(slot, ts.gen);
  const std::uint32_t ev_slot = alloc_event_slot();
  event(ev_slot).link = slot & kLinkNone;
  DC_CHECKED_ONLY(timer_arming_ = slot;)
  ts.pending =
      push_event_with_seq(next_fire, ev_slot, static_cast<std::uint32_t>(seq));
  DC_CHECKED_ONLY(timer_arming_ = kNpos;)
  return id;
}

StatusOr<SeqReservation> Simulator::restore_reservation(std::uint32_t first,
                                                        std::uint32_t count) {
  assert(restoring_ && "restore_reservation outside begin/finish_restore");
  if (count == 0 || first == 0 || std::uint64_t{first} + count > next_seq_) {
    return Status::invalid_argument(
        "simulator restore: reservation of " + std::to_string(count) +
        " seqs from " + std::to_string(first) +
        " is empty or not inside [1, " + std::to_string(next_seq_) + ")");
  }
  return add_range(first, count);
}

Status Simulator::finish_restore(std::uint64_t expected_pending) {
  assert(restoring_ && "finish_restore without begin_restore");
  restoring_ = false;
  if (pending_live() != expected_pending) {
    return Status::failed_precondition(
        "simulator restore: " + std::to_string(pending_live()) +
        " events re-armed or reserved but the snapshot recorded " +
        std::to_string(expected_pending) +
        " pending — a component failed to re-arm (or re-armed twice)");
  }
  // Every queued seq is a one-seq block; every reservation a longer one.
  // Sorted by first seq, the blocks must not overlap and must all end at
  // or below next_seq().
  struct Block {
    std::uint64_t first;
    std::uint64_t end;
  };
  std::vector<Block> blocks;
  blocks.reserve(live_events_ + ranges_.size());
  for (std::uint32_t slot = 0; slot < event_slots_used_; ++slot) {
    QueueNode node;
    if (queue_.find_slot(slot, &node)) {
      blocks.push_back({node.seq, std::uint64_t{node.seq} + 1});
    }
  }
  for (const SeqRange& range : ranges_) {
    if (range.next < range.end) blocks.push_back({range.next, range.end});
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& a, const Block& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    if (blocks[i].first < blocks[i - 1].end) {
      return Status::failed_precondition(
          "simulator restore: duplicate sequence number " +
          std::to_string(blocks[i].first) +
          " — two components re-armed or reserved the same pending event");
    }
  }
  if (!blocks.empty() && blocks.back().end > next_seq_) {
    return Status::failed_precondition(
        "simulator restore: re-armed sequence " +
        std::to_string(blocks.back().end - 1) +
        " is not below the restored tie-break counter " +
        std::to_string(next_seq_));
  }
  audit_invariants();
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Checked-build structural audit. Everything here is O(pending + slots) and
// compiled out of non-DC_CHECKED builds; maybe_audit() amortizes the cost to
// O(1) per kernel operation by spacing audits at least live_events_ apart.

void Simulator::audit_invariants() const {
#if defined(DC_CHECKED)
  // Slab geometry.
  DC_INVARIANT(event_chunks_.size() * kSlabChunk >= event_slots_used_,
               "event slab has fewer chunks than its high-water mark");
  DC_INVARIANT(timer_chunks_.size() * kSlabChunk >= timer_slots_used_,
               "timer slab has fewer chunks than its high-water mark");
  DC_INVARIANT(queue_.size() == live_events_,
               "pending-event count diverged from the queue");

  // Reservations: the open ones are disjoint blocks below the counter that
  // hold exactly reserved_seqs_ seqs and contain no queued seq.
  std::vector<SeqRange> open;
  for (const SeqRange& range : ranges_) {
    if (range.next < range.end) open.push_back(range);
  }
  std::sort(open.begin(), open.end(),
            [](const SeqRange& a, const SeqRange& b) { return a.next < b.next; });
  std::size_t reserved = 0;
  for (std::size_t i = 0; i < open.size(); ++i) {
    DC_INVARIANT(open[i].next >= 1 && open[i].end <= next_seq_,
                 "a reservation escaped the tie-break counter");
    DC_INVARIANT(i == 0 || open[i - 1].end <= open[i].next,
                 "two reservations overlap");
    reserved += open[i].end - open[i].next;
  }
  DC_INVARIANT(reserved == reserved_seqs_,
               "reserved-seq count diverged from the reservations");
  // Heap structure, plus per-node slab linkage and reservation overlap.
  queue_.audit([this, &open](const QueueNode& node) {
    DC_INVARIANT(node.slot < event_slots_used_,
                 "queued node references a slot beyond the slab");
    DC_INVARIANT(node.seq >= 1 && node.seq < next_seq_,
                 "queued node's seq escaped the tie-break counter");
    const EventSlot& ev = event(node.slot);
    DC_INVARIANT(ev.live, "queued node references a dead event slot");
    DC_INVARIANT(static_cast<bool>(ev.fn) != (ev.link != kLinkNone),
                 "event slot must carry exactly one of: callback, timer link");
    const auto after = std::upper_bound(
        open.begin(), open.end(), node.seq,
        [](std::uint32_t seq, const SeqRange& range) { return seq < range.next; });
    DC_INVARIANT(after == open.begin() || std::prev(after)->end <= node.seq,
                 "a queued seq lies inside an open reservation");
  });

  // Event free list: acyclic (bounded walk), every member dead. Every slot
  // is queued, free, or the one event currently executing (its slot joins
  // the free list after its callback returns).
  std::uint32_t free_events = 0;
  for (std::uint32_t s = free_event_; s != kLinkNone; s = event(s).link) {
    DC_INVARIANT(s < event_slots_used_, "event free list left the slab");
    DC_INVARIANT(!event(s).live, "live event slot on the free list");
    DC_INVARIANT(++free_events <= event_slots_used_,
                 "event free list is cyclic");
  }
  DC_INVARIANT(free_events + live_events_ <= event_slots_used_,
               "event slab accounting: free + pending exceeds slots");
  DC_INVARIANT(free_events + live_events_ + 1 >= event_slots_used_,
               "event slab leak: more than one slot neither pending nor free");

  // Timer slab: alive timers always hold a pending fire event. The handle
  // may be transiently stale *during* a re-arm or stop (the audit can fire
  // from inside push_event before ts.pending is reassigned); when the
  // generation does match, the link must be fully consistent.
  std::uint32_t alive_timers = 0;
  for (std::uint32_t t = 0; t < timer_slots_used_; ++t) {
    const TimerSlot& ts = timer(t);
    if (!ts.alive) continue;
    ++alive_timers;
    DC_INVARIANT(ts.period > 0, "alive periodic timer with no period");
    // Mid-arm window: this audit was reached from inside the push of this
    // very timer's fire event, before `pending` is assigned. Skip the
    // handle checks for that one timer.
    if (t == timer_arming_) continue;
    DC_INVARIANT(ts.pending != kInvalidEvent,
                 "alive periodic timer with no pending fire event");
    const std::uint32_t ev_slot = id_slot(ts.pending);
    DC_INVARIANT(ev_slot < event_slots_used_,
                 "timer's pending event is beyond the event slab");
    if (event(ev_slot).gen == id_gen(ts.pending)) {
      DC_INVARIANT(event(ev_slot).live,
                   "timer's pending handle is current but the event is dead");
      DC_INVARIANT(event(ev_slot).link == t,
                   "timer's pending event does not link back to the timer");
    }
  }

  // Timer free list: acyclic, members dead. At most one timer is in limbo
  // (stopped from inside its own callback; released when the fire returns).
  std::uint32_t free_timers = 0;
  for (std::uint32_t s = free_timer_; s != kNpos; s = timer(s).next_free) {
    DC_INVARIANT(s < timer_slots_used_, "timer free list left the slab");
    DC_INVARIANT(!timer(s).alive, "alive timer slot on the free list");
    DC_INVARIANT(++free_timers <= timer_slots_used_,
                 "timer free list is cyclic");
  }
  DC_INVARIANT(free_timers + alive_timers <= timer_slots_used_,
               "timer slab accounting: free + alive exceeds slots");
  DC_INVARIANT(free_timers + alive_timers + 1 >= timer_slots_used_,
               "timer slab leak: more than one slot neither alive nor free");
#endif
}

void Simulator::release_timer_slot(std::uint32_t slot) {
  TimerSlot& ts = timer(slot);
  ts.fn.reset();
  ts.alive = false;
  ts.firing = false;
  ts.pending = kInvalidEvent;
  ts.period = 0;
  if (++ts.gen == 0) ts.gen = 1;
  ts.next_free = free_timer_;
  free_timer_ = slot;
}

}  // namespace dc::sim
