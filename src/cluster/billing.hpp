// Lease ledger with hourly billing quantum, and the node-adjustment /
// setup-overhead accounting of Section 4.5.4.
//
// Section 4.4: "The time unit of leasing resources: ... we set a quite long
// time unit: one hour ... In fact, EC2 also charges resources with this time
// unit." Every cloud-style system (SSP, DRP, DawningCloud) therefore bills
// each lease as nodes * ceil(duration / 1h). The DCS system owns its nodes
// and is billed as configured_size * workload_period instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::cluster {

/// One lease of `nodes` nodes over [start, end). An open lease has
/// end == kNever and is closed explicitly or at the billing horizon.
struct Lease {
  std::int64_t nodes = 0;
  SimTime start = 0;
  SimTime end = kNever;
  /// What this lease is for (diagnostics; e.g. "initial", "DR1", "job 42").
  std::string tag;
};

using LeaseId = std::size_t;

/// Records leases for one consumer and computes quantized consumption.
class LeaseLedger {
 public:
  /// Opens a lease at `start`. Returns its id for later closing.
  LeaseId open(SimTime start, std::int64_t nodes, std::string tag = {});

  /// Closes an open lease at `end` (>= its start).
  void close(LeaseId id, SimTime end);

  /// Re-closes lease `id` at an earlier `end`: a killed DRP job's lease
  /// ends at the failure instant instead of its planned completion. The new
  /// end is clamped into [start, current end]: amending to (or before) the
  /// start leaves a zero-length lease that bills zero hours, amending past
  /// the current end never extends the lease, and a double amend is
  /// monotonic (each amend can only shorten the lease further).
  void amend_end(LeaseId id, SimTime end);

  /// Records an already-complete lease (convenience for per-job billing).
  void record(SimTime start, SimTime end, std::int64_t nodes, std::string tag = {});

  /// Node*hours billed with the hourly quantum; open leases are treated as
  /// closing at `horizon`.
  std::int64_t billed_node_hours(SimTime horizon) const;

  /// Exact (unquantized) node*hours, for ablation of the billing quantum.
  double exact_node_hours(SimTime horizon) const;

  /// Node*hours billed with an arbitrary quantum (ablation support).
  std::int64_t billed_node_hours_with_quantum(SimTime horizon,
                                              SimDuration quantum) const;

  std::size_t lease_count() const { return leases_.size(); }
  const std::vector<Lease>& leases() const { return leases_; }

  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  Status persist(Io& io);

  std::vector<Lease> leases_;
};

/// Counts node adjustments (Section 4.5.4): each node assigned to or
/// reclaimed from a runtime environment triggers setup work (stopping /
/// uninstalling the previous RE's packages, installing / starting the new
/// ones) measured at 15.743 seconds per node in the paper's real test.
class AdjustmentMeter {
 public:
  static constexpr double kDefaultSecondsPerNode = 15.743;

  explicit AdjustmentMeter(double seconds_per_node = kDefaultSecondsPerNode)
      : seconds_per_node_(seconds_per_node) {}

  /// Records that `nodes` nodes changed hands at time `t`.
  void record(SimTime t, std::int64_t nodes);

  /// Accumulated number of adjusted nodes ("accumulated times of adjusting
  /// nodes", Figure 14).
  std::int64_t total_adjusted_nodes() const { return total_; }

  /// Total setup overhead in seconds.
  double overhead_seconds() const {
    return seconds_per_node_ * static_cast<double>(total_);
  }

  /// Mean overhead per hour of experiment time (the paper reports ~341
  /// seconds per hour for DawningCloud).
  double overhead_seconds_per_hour(SimTime horizon) const;

  /// Adjustment events as (time, nodes) pairs, for the Figure 14 series.
  struct Adjustment {
    SimTime time;
    std::int64_t nodes;
  };
  const std::vector<Adjustment>& events() const { return events_; }

  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  Status persist(Io& io);

  double seconds_per_node_;  // dc-volatile: fixed by the billing config
  std::int64_t total_ = 0;
  std::vector<Adjustment> events_;
};

}  // namespace dc::cluster
