// Time series of concurrently held nodes.
//
// Records the step function usage(t) for one consumer (a service provider)
// or for the whole platform (the resource provider), and answers the
// paper's Section 4.3 metrics: total resource consumption (node*hour
// integral) and peak resource consumption (max concurrent nodes, reported
// per hour in Figure 13).
#pragma once

#include <cstdint>
#include <vector>

#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::cluster {

class UsageRecorder {
 public:
  /// Applies a usage delta at time `t`. Times must be nondecreasing across
  /// calls. Negative deltas must not drive usage below zero.
  void change(SimTime t, std::int64_t delta);

  /// Current usage level.
  std::int64_t current() const { return current_; }

  /// Highest usage level seen so far.
  std::int64_t peak() const { return peak_; }

  /// Exact integral of usage over [0, horizon], in node*hours.
  /// `horizon` must be >= the last change time.
  double node_hours(SimTime horizon) const;

  /// Max usage within each whole hour of [0, horizon) — the Figure 13
  /// "nodes per hour" series.
  std::vector<std::int64_t> hourly_peak_series(SimTime horizon) const;

  /// Mean usage within each whole hour of [0, horizon).
  std::vector<double> hourly_mean_series(SimTime horizon) const;

  /// The recorded breakpoints as (time, level-after) pairs.
  struct Breakpoint {
    SimTime time;
    std::int64_t level;
  };
  const std::vector<Breakpoint>& breakpoints() const { return breakpoints_; }

  /// All derived metrics (node_hours, hourly series) are computed from the
  /// breakpoints, so the full vector is saved and restored verbatim.
  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  Status persist(Io& io);

  std::int64_t current_ = 0;
  std::int64_t peak_ = 0;
  std::vector<Breakpoint> breakpoints_;
};

}  // namespace dc::cluster
