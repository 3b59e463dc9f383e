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

Status LeaseLedger::save(snapshot::SnapshotWriter& writer) const {
  writer.field_u64("lease_count", leases_.size());
  for (const Lease& lease : leases_) {
    writer.field_i64("nodes", lease.nodes);
    writer.field_time("start", lease.start);
    writer.field_time("end", lease.end);
    writer.field_str("tag", lease.tag);
  }
  return Status::ok();
}

Status LeaseLedger::restore(snapshot::SnapshotReader& reader) {
  std::uint64_t count = 0;
  if (auto st = reader.read_count("lease_count", count); !st.is_ok()) return st;
  leases_.clear();
  leases_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Lease lease;
    if (auto st = reader.read_i64("nodes", lease.nodes); !st.is_ok()) return st;
    if (auto st = reader.read_time("start", lease.start); !st.is_ok()) return st;
    if (auto st = reader.read_time("end", lease.end); !st.is_ok()) return st;
    if (auto st = reader.read_str("tag", lease.tag); !st.is_ok()) return st;
    leases_.push_back(std::move(lease));
  }
  return Status::ok();
}

Status AdjustmentMeter::save(snapshot::SnapshotWriter& writer) const {
  writer.field_i64("total_adjusted_nodes", total_);
  writer.field_u64("event_count", events_.size());
  for (const Adjustment& event : events_) {
    writer.field_time("time", event.time);
    writer.field_i64("nodes", event.nodes);
  }
  return Status::ok();
}

Status AdjustmentMeter::restore(snapshot::SnapshotReader& reader) {
  if (auto st = reader.read_i64("total_adjusted_nodes", total_); !st.is_ok()) {
    return st;
  }
  std::uint64_t count = 0;
  if (auto st = reader.read_count("event_count", count); !st.is_ok()) return st;
  events_.clear();
  events_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Adjustment event{};
    if (auto st = reader.read_time("time", event.time); !st.is_ok()) return st;
    if (auto st = reader.read_i64("nodes", event.nodes); !st.is_ok()) return st;
    events_.push_back(event);
  }
  return Status::ok();
}

}  // namespace dc::cluster
