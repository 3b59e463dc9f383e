// The failure domain: a seeded MTTF/MTTR process over a set of victims.
//
// One domain drives every watched FaultTarget through the full
// failure -> repair lifecycle:
//
//  * failures arrive as a Poisson process (exponential gaps via util/rng,
//    fully deterministic per seed). With `per_node_rates` the configured
//    MTTF is per node and the event rate scales with the fleet's current
//    healthy size — twice the hardware, twice the failures;
//  * each event picks a victim weighted by its current healthy holding
//    (bigger TREs own more hardware, so they fail more often) and takes
//    a uniform number of its nodes down;
//  * each failed batch is repaired after an exponential MTTR delay, so
//    capacity degrades and recovers instead of vanishing. A mean time to
//    repair of zero degenerates to the transparent-swap model (repair at
//    the failure instant: the provider replaces hardware in place, only
//    the killed jobs are observable) — the pre-subsystem behavior.
//
// Repairs already scheduled keep firing past the injection window `until`,
// mirroring real operations: you stop breaking machines, you do not stop
// fixing them. Targets clamp repairs themselves, so a repair landing after
// a TRE shut down is a safe no-op.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fault/fault_target.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::core::fault {

class FaultDomain {
 public:
  struct Config {
    /// Mean time between failure events (exponential). With
    /// `per_node_rates` this is the per-node MTTF and the event gap is
    /// mean / (total healthy nodes).
    SimDuration mean_time_between_failures = 12 * kHour;
    /// Mean time to repair a failed batch (exponential); 0 = repair at the
    /// failure instant (transparent hardware swap).
    SimDuration mean_time_to_repair = 0;
    /// Interpret the MTTF per node instead of per domain.
    bool per_node_rates = false;
    /// Nodes lost per event (uniform range).
    std::int64_t min_failed_nodes = 1;
    std::int64_t max_failed_nodes = 4;
    std::uint64_t seed = 1337;
  };

  FaultDomain(sim::Simulator& simulator, Config config)
      : simulator_(simulator), config_(config), rng_(config.seed) {}

  /// Adds a target to the failure domain (non-owning; must outlive the
  /// domain's scheduled events). Targets watched after start() do not join
  /// the active set: the seeded victim sequence is pinned at start().
  void watch(FaultTarget* target) { watched_.push_back(target); }

  /// Starts injecting from the current simulation time until `until`.
  /// A window that is already over (`until` <= now) is a no-op.
  void start(SimTime until);

  std::int64_t failure_events() const { return events_; }
  std::int64_t nodes_failed() const { return nodes_failed_; }
  std::int64_t nodes_repaired() const { return nodes_repaired_; }
  /// Nodes currently failed and awaiting repair.
  std::int64_t nodes_down() const { return nodes_down_; }
  std::int64_t jobs_killed() const { return jobs_killed_; }

  /// Borrows a per-run trace sink (may be null; see docs/OBSERVABILITY.md).
  /// Injections and repairs are emitted with the victim's name as actor.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Serializes the RNG stream position, counters, and the pending
  /// inject/repair events; restore re-arms them. The watch list must be
  /// rebuilt in the same order before restoring (victims are serialized as
  /// indices into the pinned active set), which preserves the seeded victim
  /// sequence across a resume.
  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  Status persist(Io& io);

  void schedule_next(SimTime until);
  void inject(SimTime until);
  std::int64_t total_healthy() const;
  sim::Simulator::Callback make_repair(std::size_t victim_index,
                                       std::int64_t failed);

  sim::Simulator& simulator_;
  Config config_;  // dc-volatile: reconstructed from the experiment config
  Rng rng_;
  obs::TraceSink* trace_ = nullptr;  // dc-volatile: borrowed, may be null
  std::vector<FaultTarget*> watched_;
  /// Snapshot of `watched_` taken at start(); the victim sequence drawn
  /// from the seed only ever sees this set.
  std::vector<FaultTarget*> active_;
  std::int64_t events_ = 0;
  std::int64_t nodes_failed_ = 0;
  std::int64_t nodes_repaired_ = 0;
  std::int64_t nodes_down_ = 0;
  std::int64_t jobs_killed_ = 0;
  /// The single pending next-injection event (if any) and its window.
  sim::EventId inject_event_ = sim::kInvalidEvent;
  SimTime inject_until_ = 0;
  /// Append-only registry of scheduled repairs; stale entries (already
  /// fired) are filtered through pending_event_info at save time.
  struct RepairEvent {
    sim::EventId event;
    std::size_t victim;  // index into active_
    std::int64_t failed;
  };
  std::vector<RepairEvent> repair_events_;
};

}  // namespace dc::core::fault
