// Per-run metrics registry (see docs/OBSERVABILITY.md).
//
// A MetricsRegistry records one run's long-format timeseries — never a
// global, so parallel parameter sweeps stay race-free by construction:
// each sweep lane owns (or omits) its own registry, exactly like the
// TraceSink. SystemRunner arms a periodic sim timer that calls
// `sample(now, metric, value)` for queue depths, node states and
// outstanding leases, and the rows flush to CSV (time,metric,value) for
// plotting without re-running the experiment.
//
// Metric names are interned in first-use order (no unordered-container
// iteration, per dc-r2), so every export is deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::obs {

/// One recorded timeseries row.
struct MetricSample {
  SimTime time = 0;
  std::uint32_t metric = 0;  // index into metric_names()
  double value = 0.0;
};

class MetricsRegistry {
 public:
  /// Appends a timeseries row; `metric` is interned on first use.
  void sample(SimTime now, std::string_view metric, double value);

  std::size_t sample_count() const { return samples_.size(); }
  const std::vector<MetricSample>& samples() const { return samples_; }
  const std::vector<std::string>& metric_names() const { return sample_names_; }

  /// Long-format CSV: time,metric,value — one row per sample().
  std::string timeseries_csv() const;
  Status export_timeseries_csv(const std::string& path) const;

 private:
  std::vector<std::string> sample_names_;
  std::map<std::string, std::uint32_t, std::less<>> sample_ids_;
  std::vector<MetricSample> samples_;
};

}  // namespace dc::obs
