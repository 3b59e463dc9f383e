#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

#include "util/check.hpp"

namespace dc::sim {

// Every node move updates the owning slot's entry in slot_pos_, so
// erase_slot can find and excise a node without scanning.

void HeapEventQueue::grow(std::size_t new_cap) {
  // 3-node front pad + 64-byte alignment puts every 4-child group on one
  // cache line; aligned_alloc wants the byte size rounded to the alignment.
  const std::size_t bytes =
      (((new_cap + 3) * sizeof(QueueNode)) + 63) & ~std::size_t{63};
  auto* grown = static_cast<QueueNode*>(std::aligned_alloc(64, bytes));
  if (raw_ != nullptr) {
    std::memcpy(grown + 3, raw_ + 3, size_ * sizeof(QueueNode));
    std::free(raw_);
  }
  raw_ = grown;
  cap_ = new_cap;
}

void HeapEventQueue::sift_up(std::size_t pos) {
  const QueueNode node = at(pos);
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

void HeapEventQueue::sift_down(std::size_t pos) {
  const std::size_t n = size_;
  const QueueNode node = at(pos);
  while (true) {
    const std::size_t first = (pos << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (queue_node_less(at(c), at(best))) best = c;
    }
    if (!queue_node_less(at(best), node)) break;
    at(pos) = at(best);
    slot_pos_[at(pos).slot] = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  at(pos) = node;
  slot_pos_[node.slot] = static_cast<std::uint32_t>(pos);
}

void HeapEventQueue::erase_slot(std::uint32_t slot) {
  const std::size_t pos = slot_pos_[slot];
  assert(pos != kNoPos && "erase_slot: the slot is not queued");
  slot_pos_[slot] = kNoPos;
  const QueueNode last = at(--size_);
  if (pos < size_) {
    at(pos) = last;
    slot_pos_[last.slot] = static_cast<std::uint32_t>(pos);
    // The replacement came from the bottom; it can only need to move one
    // way, and sift_up is a no-op unless it beats its new parent.
    sift_up(pos);
    sift_down(slot_pos_[last.slot]);
  }
}

void HeapEventQueue::drain_all(std::vector<QueueNode>* out) {
  out->reserve(out->size() + size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out->push_back(at(i));
    slot_pos_[at(i).slot] = kNoPos;
  }
  size_ = 0;
}

void HeapEventQueue::audit(
    const std::function<void(const QueueNode&)>& check_node) const {
  // 4-ary heap: parent <= child, and the slot<->position side array is a
  // bijection onto the heap.
  for (std::size_t i = 0; i < size_; ++i) {
    const QueueNode& node = at(i);
    if (i > 0) {
      DC_INVARIANT(!queue_node_less(node, at((i - 1) >> 2)),
                   "4-ary heap order violated (child sorts before parent)");
    }
    DC_INVARIANT(node.slot < slot_pos_.size(),
                 "heap node references a slot beyond the side array");
    DC_INVARIANT(slot_pos_[node.slot] == i,
                 "slot->position map does not point back at the heap node");
    check_node(node);
  }
  std::size_t mapped = 0;
  for (const std::uint32_t pos : slot_pos_) {
    if (pos != kNoPos) ++mapped;
  }
  DC_INVARIANT(mapped == size_,
               "slot->position map has entries for nodes not in the heap");
}

}  // namespace dc::sim
