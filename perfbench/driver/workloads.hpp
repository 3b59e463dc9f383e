// The benchmark's three workloads over the simulator's public API.
//
// Each workload is driven as a closed loop by one client on one thread: the
// next op starts when the last one has finished. Every call the driver makes
// into a layer's public functions is wrapped in a Scope, so a traced round
// records one span per call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"
#include "util/status.hpp"

namespace perfbench {

/// At this workload seed the per-provider seeds are core::PaperSeeds
/// (42/43/7), so EXPERIMENTS.md holds the reference results.
inline constexpr std::uint64_t kDefaultSeed = 0;

/// Per-layer work counts, summed over the ops they were recorded for.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t events_by_model[4] = {};  // indexed by core::SystemModel
  std::uint64_t peak_pending = 0;         // max over runs
  std::int64_t adjusted_nodes = 0;
  std::int64_t rejected_requests = 0;
  std::uint64_t snapshot_saves = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t metric_samples = 0;
  std::uint64_t export_bytes = 0;
  std::uint64_t store_passes = 0;
  std::uint64_t store_bytes = 0;  // summed over passes, read at pass end
};

/// What one set-up found out about its inputs.
struct SetupReport {
  std::uint64_t swf_bytes = 0;
  /// HTC traces whose period changed in the SWF write/read round trip.
  std::int64_t period_mismatches = 0;
  std::vector<std::string> notes;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Reads the generated config (trace generation and the Montage DAG),
  /// writes and reads back each HTC trace as SWF, and builds the workload's
  /// own inputs. Runs once per set-up repetition; the last one's inputs are
  /// the ones the ops use.
  virtual dc::Status set_up(Tracer& tracer, SetupReport& report) = 0;
  /// Ops per round: the unit of warm-up and of traced/untraced alternation.
  virtual std::uint64_t round_ops() const = 0;
  /// Runs op `index`, counted from 0 across the whole run.
  virtual dc::Status run_op(std::uint64_t index, Tracer& tracer,
                            Counters& counters) = 0;
  /// Checks the outputs of the op just run; returns "" when they are right.
  virtual std::string check_op(std::uint64_t index) = 0;
  /// Checks what the loop left behind when it stopped; "" when right.
  virtual std::string check_end() { return {}; }
};

/// The experiment description for `seed`, in the .dcfg format.
std::string experiment_config(std::uint64_t seed);

/// Builds workload `name` over the files in `io_dir`, which must hold the
/// config written from experiment_config(seed) as experiment.dcfg.
/// Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& io_dir);

}  // namespace perfbench
