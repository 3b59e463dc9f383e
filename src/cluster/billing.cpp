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
  // Leases up to the first that is open or ends after the save are
  // history: a closed lease changes only while its end is still ahead.
  const auto lease_rows = [&](Io& h, std::uint64_t first,
                              std::uint64_t end) -> Status {
    if constexpr (!Io::kSaving) leases_.resize(end);
    for (std::uint64_t i = first; i < end; ++i) {
      Lease& lease = leases_[i];
      if (auto st = h.i64("nodes", lease.nodes); !st.is_ok()) return st;
      if (auto st = h.i64("start", lease.start); !st.is_ok()) return st;
      if (auto st = h.i64("end", lease.end); !st.is_ok()) return st;
      if (auto st = h.str("tag", lease.tag); !st.is_ok()) return st;
    }
    return Status::ok();
  };
  std::uint64_t lease_count = leases_.size();
  std::uint64_t final_leases = 0;
  if constexpr (Io::kSaving) {
    const SimTime now = io.history_boundary();
    while (final_leases < leases_.size() &&
           leases_[final_leases].end != kNever &&
           leases_[final_leases].end <= now) {
      ++final_leases;
    }
  } else {
    leases_.clear();
  }
  return snapshot::table(io, "lease_count", "leases", lease_count,
                         final_leases, lease_rows);
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
  // Adjustments are only ever appended: every one is history.
  const auto event_rows = [&](Io& h, std::uint64_t first,
                              std::uint64_t end) -> Status {
    if constexpr (!Io::kSaving) events_.resize(end);
    for (std::uint64_t i = first; i < end; ++i) {
      if (auto st = h.i64("time", events_[i].time); !st.is_ok()) return st;
      if (auto st = h.i64("nodes", events_[i].nodes); !st.is_ok()) return st;
    }
    return Status::ok();
  };
  std::uint64_t event_count = events_.size();
  if constexpr (!Io::kSaving) events_.clear();
  return snapshot::table(io, "event_count", "adjustments", event_count,
                         events_.size(), event_rows);
}

Status AdjustmentMeter::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<AdjustmentMeter&>(*this).persist(writer);
}

Status AdjustmentMeter::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

}  // namespace dc::cluster
