// The simulation kernel's pending-event queue: an indexed 4-ary heap.
//
// The Simulator holds exactly one HeapEventQueue, by value. It pops in
// strictly increasing (time, seq) order — the one order every result,
// trace and snapshot depends on. That order is pinned by the randomized
// reference-model test (tests/sim/queue_differential_test.cpp), which
// checks every fired event against a std::set of (time, seq) pairs.
//
// Layout: 16-byte nodes in a 64-byte-aligned buffer (four children per
// cache line) and a dense slot->position side array, so cancel finds its
// node in O(1) and removes it with one localized sift. Push and pop are
// O(log n) with a small constant. The job emulator queues one submission
// per trace stream, not per trace job (Simulator::reserve_seqs), so the
// paper workloads peak at 687 queued events: five levels below the root.
//
// Snapshots carry the pending set as (time, seq) pairs, never heap
// internals: restore re-pushes them in any order and the heap pops them in
// the same (time, seq) order the uninterrupted run would have.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <vector>

namespace dc::sim {

/// One pending occurrence. Ordered by (time, seq); seq is the kernel's
/// schedule counter, so equal-time events pop FIFO. Kept to 16 bytes —
/// four nodes per cache line.
///
/// `time_bits` is the time as unsigned — order-preserving because the
/// clock starts at 0 and schedule_at rejects the past, so queued times
/// are never negative.
struct QueueNode {
  std::uint64_t time_bits;
  std::uint32_t seq;
  std::uint32_t slot;  // index into the Simulator's event slab
};
static_assert(sizeof(QueueNode) == 16);

inline bool queue_node_less(const QueueNode& a, const QueueNode& b) {
  if (a.time_bits != b.time_bits) return a.time_bits < b.time_bits;
  return a.seq < b.seq;
}

/// Not a general priority queue: slots are unique keys (at most one
/// pending occurrence per slot), which is what makes O(1) cancel-by-slot
/// possible. The buffer has a 3-node front pad, so the four children of
/// logical node L (physical 4L+4..4L+7) share one cache line.
class HeapEventQueue {
 public:
  HeapEventQueue() = default;
  HeapEventQueue(const HeapEventQueue&) = delete;
  HeapEventQueue& operator=(const HeapEventQueue&) = delete;
  ~HeapEventQueue() { std::free(raw_); }

  /// Inserts a node. The slot must not already be queued.
  void push(const QueueNode& node) {
    if (size_ == cap_) grow(cap_ == 0 ? 1024 : cap_ * 2);
    std::size_t pos = size_++;
    // Inline sift-up: random-time inserts rarely climb more than a level
    // or two, so the whole push stays in this frame.
    while (pos > 0) {
      const std::size_t parent = (pos - 1) >> 2;
      if (!queue_node_less(node, at(parent))) break;
      at(pos) = at(parent);
      slot_pos_[at(pos).slot] = static_cast<std::uint32_t>(pos);
      pos = parent;
    }
    at(pos) = node;
    slot_pos_[node.slot] = static_cast<std::uint32_t>(pos);
  }

  /// The minimum node, or nullptr when empty.
  const QueueNode* min() const { return size_ == 0 ? nullptr : &at(0); }

  /// Removes the minimum node. Precondition: not empty.
  ///
  /// The replacement comes from the bottom of the heap, so it nearly
  /// always sinks the full height: walk the min-child path down to a leaf
  /// first, then bubble the replacement up — the early-exit compares
  /// happen near the leaf where they are cheap, and each level's child
  /// scan is one aligned cache line (prefetched one level ahead). In the
  /// header so the Simulator's dispatch path inlines the whole pop.
  void pop_min() {
    slot_pos_[at(0).slot] = kNoPos;
    const QueueNode last = at(--size_);
    const std::size_t n = size_;
    if (n == 0) return;
    std::size_t pos = 0;
    while (true) {
      const std::size_t first = (pos << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      // Whichever child wins, its children are one of these four lines;
      // issuing all four overlaps the next level's miss with this level's
      // compares (the walk's dependent-miss chain is what bounds pop cost).
      __builtin_prefetch(&at((first << 2) + 1));
      __builtin_prefetch(&at(((first + 1) << 2) + 1));
      __builtin_prefetch(&at(((first + 2) << 2) + 1));
      __builtin_prefetch(&at(((first + 3) << 2) + 1));
      for (std::size_t c = first + 1; c < end; ++c) {
        if (queue_node_less(at(c), at(best))) best = c;
      }
      if (!queue_node_less(at(best), last)) break;
      at(pos) = at(best);
      slot_pos_[at(pos).slot] = static_cast<std::uint32_t>(pos);
      pos = best;
    }
    at(pos) = last;
    slot_pos_[last.slot] = static_cast<std::uint32_t>(pos);
  }

  /// Removes the node for `slot`. Precondition: the slot is queued.
  void erase_slot(std::uint32_t slot);

  /// Looks up the queued node for `slot`. Returns false when the slot is
  /// not queued (never scheduled, or already popped).
  bool find_slot(std::uint32_t slot, QueueNode* out) const {
    const std::uint32_t pos = slot_pos_[slot];
    if (pos == kNoPos) return false;
    *out = at(pos);
    return true;
  }

  /// Number of queued nodes.
  std::size_t size() const { return size_; }

  /// Pre-sizes the buffer for `expected` concurrently queued nodes.
  void reserve(std::size_t expected) {
    if (expected > cap_) grow(expected);
  }

  /// Grows the slot->position side array to cover slots [0, slot_count).
  /// Called by the Simulator whenever the event slab grows.
  void ensure_slots(std::size_t slot_count) {
    slot_pos_.resize(slot_count, kNoPos);
  }

  /// Appends every queued node to `out` in unspecified order, then
  /// empties the queue. Used by seq renumbering: collect, renumber,
  /// re-push.
  void drain_all(std::vector<QueueNode>* out);

  /// Full structural audit (checked builds call this): heap order and the
  /// slot<->position bijection, plus `check_node` once per queued node so
  /// the Simulator can validate slab linkage. Aborts on violation.
  void audit(const std::function<void(const QueueNode&)>& check_node) const;

 private:
  static constexpr std::uint32_t kNoPos = 0xffffffffu;

  QueueNode& at(std::size_t logical) { return raw_[logical + 3]; }
  const QueueNode& at(std::size_t logical) const { return raw_[logical + 3]; }

  void grow(std::size_t new_cap);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  QueueNode* raw_ = nullptr;  // aligned_alloc'd; [0..2] is the pad
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  std::vector<std::uint32_t> slot_pos_;  // event slot -> logical heap index
};

}  // namespace dc::sim
