// The resource provider's pool of nodes.
//
// The paper's cloud platform is a centralized cluster (Section 1: "when we
// refer to a cloud platform, it indicates a centralized cluster system").
// Nodes are fungible after the Section 4.4 normalization to one CPU per
// node, so the pool tracks counts, not node identities. A pool may be
// bounded (DCS/SSP capacity planning experiments) or effectively unbounded
// (the EC2-like provider in DRP and DawningCloud runs, where capacity
// planning is the *output*, measured as peak consumption).
#pragma once

#include <cstdint>
#include <optional>

#include "snapshot/format.hpp"
#include "util/status.hpp"

namespace dc::cluster {

using NodeCount = std::int64_t;

class ResourcePool {
 public:
  /// A pool with a hard capacity.
  explicit ResourcePool(NodeCount capacity);

  /// An unbounded pool (capacity planning measured after the fact).
  static ResourcePool unbounded();

  bool is_bounded() const { return capacity_.has_value(); }

  /// Total capacity; only valid for bounded pools.
  NodeCount capacity() const;

  NodeCount allocated() const { return allocated_; }

  /// Free nodes; for unbounded pools this is "infinite" and reported as the
  /// largest representable count.
  NodeCount free() const;

  /// True if `count` nodes can be allocated right now.
  bool can_allocate(NodeCount count) const;

  /// Allocates exactly `count` nodes, or fails without side effects.
  /// Mirrors the paper's provision policy: "either assigns enough resources
  /// to the server or rejects if [it] has no enough resources" (§3.2.2.3).
  Status allocate(NodeCount count);

  /// Returns `count` nodes to the pool. It is a logic error to release more
  /// than allocated.
  void release(NodeCount count);

  /// Capacity is construction-time configuration; only the allocation level
  /// is state. Restore verifies the saved capacity against the rebuilt pool.
  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  Status persist(Io& io);

  ResourcePool() = default;

  std::optional<NodeCount> capacity_;
  NodeCount allocated_ = 0;
};

}  // namespace dc::cluster
