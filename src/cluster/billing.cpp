#include "cluster/billing.hpp"

#include <algorithm>
#include <cassert>

namespace dc::cluster {

LeaseId LeaseLedger::open(SimTime start, std::int64_t nodes, std::string tag) {
  assert(nodes >= 0 && start >= 0);
  leases_.push_back(Lease{nodes, start, kNever, std::move(tag)});
  return leases_.size() - 1;
}

void LeaseLedger::close(LeaseId id, SimTime end) {
  assert(id < leases_.size());
  Lease& lease = leases_[id];
  assert(lease.end == kNever && "lease already closed");
  assert(end >= lease.start);
  lease.end = end;
}

void LeaseLedger::amend_end(LeaseId id, SimTime end) {
  assert(id < leases_.size());
  Lease& lease = leases_[id];
  assert(lease.end != kNever && "amend_end is for already-closed leases");
  // Clamp rather than assert: a failure at (or arithmetically before) the
  // lease start amends to a zero-length lease that bills zero hours, and a
  // second amend after a retry's earlier failure must not re-extend the
  // lease. See billing_test "AmendEnd*" for the pinned semantics.
  lease.end = std::clamp(end, lease.start, lease.end);
}

void LeaseLedger::record(SimTime start, SimTime end, std::int64_t nodes,
                         std::string tag) {
  assert(end >= start);
  leases_.push_back(Lease{nodes, start, end, std::move(tag)});
}

std::int64_t LeaseLedger::billed_node_hours(SimTime horizon) const {
  return billed_node_hours_with_quantum(horizon, kHour);
}

std::int64_t LeaseLedger::billed_node_hours_with_quantum(
    SimTime horizon, SimDuration quantum) const {
  assert(quantum > 0);
  std::int64_t total = 0;
  for (const Lease& lease : leases_) {
    const SimTime end = lease.end == kNever ? horizon : lease.end;
    if (end <= lease.start) continue;
    const std::int64_t quanta = ceil_div(end - lease.start, quantum);
    // Billed node*hours = nodes * quanta * (quantum/1h); keep integer math
    // exact for the common case quantum == kHour.
    total += lease.nodes * quanta * quantum / kHour;
  }
  return total;
}

double LeaseLedger::exact_node_hours(SimTime horizon) const {
  double total = 0.0;
  for (const Lease& lease : leases_) {
    const SimTime end = lease.end == kNever ? horizon : lease.end;
    if (end <= lease.start) continue;
    total += static_cast<double>(lease.nodes) * to_hours(end - lease.start);
  }
  return total;
}

void AdjustmentMeter::record(SimTime t, std::int64_t nodes) {
  assert(nodes >= 0);
  if (nodes == 0) return;
  total_ += nodes;
  events_.push_back({t, nodes});
}

double AdjustmentMeter::overhead_seconds_per_hour(SimTime horizon) const {
  if (horizon <= 0) return 0.0;
  return overhead_seconds() / to_hours(horizon);
}

template <class Io>
Status LeaseLedger::persist(Io& io) {
  const auto each_lease = [&](Lease& lease) -> Status {
    if (auto st = io.i64("nodes", lease.nodes); !st.is_ok()) return st;
    if (auto st = io.i64("start", lease.start); !st.is_ok()) return st;
    if (auto st = io.i64("end", lease.end); !st.is_ok()) return st;
    return io.str("tag", lease.tag);
  };
  return snapshot::list(io, "lease_count", leases_, each_lease);
}

Status LeaseLedger::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<LeaseLedger&>(*this).persist(writer);
}

Status LeaseLedger::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

template <class Io>
Status AdjustmentMeter::persist(Io& io) {
  if (auto st = io.i64("total_adjusted_nodes", total_); !st.is_ok()) {
    return st;
  }
  const auto each_event = [&](Adjustment& event) -> Status {
    if (auto st = io.i64("time", event.time); !st.is_ok()) return st;
    return io.i64("nodes", event.nodes);
  };
  return snapshot::list(io, "event_count", events_, each_event);
}

Status AdjustmentMeter::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<AdjustmentMeter&>(*this).persist(writer);
}

Status AdjustmentMeter::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

}  // namespace dc::cluster
