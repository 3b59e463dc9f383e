// A simulation-ready HTC workload trace.
//
// Trace is the simulator-facing view of an SWF file: one entry per job with
// submit time, runtime and node width, already normalized to the paper's
// Section 4.4 configuration of one CPU per node ("we scale workload traces
// with different values to the same configuration of which each node owns
// one CPU").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"
#include "util/time.hpp"
#include "workload/swf.hpp"

namespace dc::workload {

struct TraceJob {
  std::int64_t id = 0;
  SimTime submit = 0;       // seconds from trace start
  SimDuration runtime = 0;  // seconds
  std::int64_t nodes = 1;   // width after per-node-CPU normalization
};

class Trace {
 public:
  Trace() = default;
  Trace(std::string name, std::int64_t capacity_nodes,
        std::vector<TraceJob> jobs);

  /// Builds a trace from a parsed SWF file. `cpus_per_node` is the source
  /// machine's CPUs per node; widths are converted from processors to
  /// normalized 1-CPU nodes via ceil(procs / 1) after scaling — i.e. each
  /// processor becomes one node, and the machine capacity scales likewise.
  /// Jobs with nonpositive runtime or width are dropped (archive traces
  /// contain cancelled entries). A `Period` header (written by to_swf)
  /// restores an explicit period and must be a positive number of
  /// seconds; without it the period derives from the last submit.
  static StatusOr<Trace> from_swf(const SwfFile& file, std::string name,
                                  std::int64_t cpus_per_node = 1);

  /// Serializes back to SWF (synthetic models use this to produce archive-
  /// format files). An explicitly set period is written as the `Period`
  /// header, so from_swf gives back the same period().
  SwfFile to_swf() const;

  const std::string& name() const { return name_; }
  std::int64_t capacity_nodes() const { return capacity_nodes_; }
  const std::vector<TraceJob>& jobs() const { return jobs_; }
  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }

  /// Last submit time (0 for empty traces).
  SimTime last_submit() const;

  /// End of the observation period: max(submit) rounded up to a whole hour,
  /// or an explicitly set period.
  SimTime period() const;
  void set_period(SimTime period) { period_ = period; }

  /// Keeps only jobs submitted in [from, to) and rebases submit times to
  /// `from`.
  Trace slice(SimTime from, SimTime to) const;

  /// Multiplies all runtimes by `factor` (used for utilization calibration),
  /// keeping each at least 1 second.
  void scale_runtimes(double factor);

  /// Widest job in the trace.
  std::int64_t max_nodes() const;

 private:
  std::string name_;
  std::int64_t capacity_nodes_ = 0;
  std::vector<TraceJob> jobs_;  // sorted by submit time
  SimTime period_ = kNever;
};

}  // namespace dc::workload
