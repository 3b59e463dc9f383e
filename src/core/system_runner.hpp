// Crash-consistent execution of one emulated system (see docs/SNAPSHOT.md).
//
// SystemRunner owns the whole world of a single run_system() invocation —
// kernel, provision service, lifecycle, job emulator, schedulers, servers
// or DRP runners, and the optional fault domain — so that the complete
// simulation state can be saved to (and restored from) a snapshot stream
// at a quiescent point between run_until chunks.
//
// The contract mirrors the component-level one:
//
//  * a *fresh* runner constructs and arms the world exactly the way
//    run_system always has — event sequence numbers, consumer
//    registration order and the seeded victim sequence are identical, so
//    chunked execution with periodic snapshots is observationally
//    equivalent to one uninterrupted run_until(horizon);
//  * a *restore-mode* runner constructs the same world passively (nothing
//    scheduled: the job emulator registers its streams without arming,
//    no TRE creations, no start events — a virgin kernel), then
//    restore() replays the saved kernel counters and lets every component
//    re-arm its own pending events with their saved (time, seq). Resuming
//    and running to the horizon then produces byte-identical results.
//
// Callbacks are never serialized; components rebuild them from their own
// state. The runner only orchestrates ordering: the emulate_* replay
// sequence, the component section order inside the snapshot, and the
// begin_restore/finish_restore bracket with its pending-event count check.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/drp_runner.hpp"
#include "core/fault/fault_domain.hpp"
#include "core/htc_server.hpp"
#include "core/job_emulator.hpp"
#include "core/lifecycle.hpp"
#include "core/mtc_server.hpp"
#include "core/provision_service.hpp"
#include "core/systems.hpp"
#include "sched/conservative_backfill.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "sched/first_fit.hpp"
#include "sched/sjf.hpp"
#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::core {

/// Periodic-snapshot/resume policy for run_system_snapshotted.
struct SnapshotPolicy {
  /// Snapshot every this many simulated seconds (at fixed multiples of the
  /// interval, so a resumed run hits the same boundaries as a continuous
  /// one). 0 disables periodic snapshots.
  SimDuration every = 0;
  /// Directory for auto-snapshots (created if missing). Required when
  /// `every` > 0.
  std::string dir;
  /// Resume from this snapshot file. Empty + `resume` = pick the newest
  /// valid snapshot in `dir` (corrupt files are skipped with a warning;
  /// a fresh run starts only when no snapshot file exists at all).
  std::string resume_from;
  /// Attempt to resume from `dir` before starting fresh.
  bool resume = false;
  /// Called after every chunk, the last one included, with the instant it
  /// ended at and its snapshot on disk. The sweep worker heartbeats here.
  std::function<void(SimTime)> on_boundary;
};

class SystemRunner {
 public:
  enum class Mode {
    kFresh,    // arm everything; ready to run from t=0
    kRestore,  // passive build; call restore() before running
  };

  SystemRunner(SystemModel model, const ConsolidationWorkload& workload,
               const RunOptions& options, Mode mode = Mode::kFresh);
  SystemRunner(const SystemRunner&) = delete;
  SystemRunner& operator=(const SystemRunner&) = delete;

  SystemModel model() const { return model_; }
  SimTime horizon() const { return horizon_; }
  SimTime now() const { return sim_.now(); }
  sim::Simulator& simulator() { return sim_; }
  /// True when the periodic metrics sampler is armed (fresh-armed or
  /// re-armed by restore()). A replay can only "force metrics on" for a
  /// window if the original run carried the sampler timer — the timer is
  /// part of the kernel's pending set, and injecting a new one would
  /// change the event sequence. `dc replay` uses this to warn instead.
  bool sampler_armed() const { return sampler_timer_ != sim::kInvalidTimer; }

  /// Advances the simulation; quiescent snapshot points are exactly the
  /// instants between run_until calls. With RunOptions::profile set, the
  /// dispatch phase is timed (wall clock, observational only) and the
  /// events processed by this call are counted as its work units.
  void run_until(SimTime t);

  /// Serializes the full world state (kernel counters + every component,
  /// one named section each) with an empty history: every row is live.
  /// Must be called at a quiescent point.
  Status save(snapshot::SnapshotWriter& writer) const;
  /// The snapshot of this instant, written with one atomic write: the
  /// run's history (docs/SNAPSHOT.md, "History") with a chunk of the rows
  /// that became final since the last save, then the live sections.
  Status save_file(const std::string& path);

  /// Restores into a passively built (Mode::kRestore) runner: verifies the
  /// snapshot matches this model/workload, replays the kernel counters,
  /// lets each component restore and re-arm, then checks that exactly the
  /// saved number of pending events was re-armed and that every waiting
  /// provision request got its callback back. Later saves continue the
  /// snapshot's history.
  Status restore(snapshot::SnapshotReader& reader);
  Status restore_file(const std::string& path);

  /// Shuts the world down (server-based systems) and extracts the
  /// SystemResult exactly as run_system always has. Call once, after the
  /// horizon has been reached.
  SystemResult finalize();

 private:
  /// The records a walk covers: a whole snapshot; only `meta`, the run
  /// constants a history starts with; or the live sections after it.
  enum class Part { kWhole, kMeta, kLive };
  template <class Io>
  Status persist(Io& io, Part part = Part::kWhole);

  void build();
  /// Fresh mode: schedules server starts / TRE creations, feeds the
  /// emulator, arms the fault domain and the metrics sampler. Restore
  /// mode: replays only the emulate_* calls (the passive emulator records
  /// streams without scheduling) so stream/callback identities line up
  /// for restore().
  void arm();
  const sched::Scheduler* htc_scheduler() const;
  /// One metrics-sampler tick: queue depths, node states, outstanding
  /// leases and platform gauges into RunOptions::metrics.
  void sample_metrics(SimTime now);
  sim::Simulator::TimerCallback make_sampler();

  SystemModel model_;
  /// Deep copies: servers keep pointers into the specs (DAGs, traces), so
  /// the runner owns its workload for its whole lifetime.
  ConsolidationWorkload workload_;
  RunOptions options_;
  SimTime horizon_ = 0;
  Mode mode_;
  bool finalized_ = false;  // dc-volatile: snapshots are taken mid-run, never after finalize()

  sim::Simulator sim_;
  std::unique_ptr<ResourceProvisionService> provision_;
  std::unique_ptr<LifecycleService> lifecycle_;  // server-based models only
  std::unique_ptr<JobEmulator> emulator_;

  sched::FirstFitScheduler first_fit_;              // dc-volatile: stateless
  sched::EasyBackfillScheduler easy_;               // dc-volatile: stateless
  sched::ConservativeBackfillScheduler conservative_;  // dc-volatile: stateless
  sched::SjfScheduler sjf_;                         // dc-volatile: stateless
  sched::FcfsScheduler fcfs_;                       // dc-volatile: stateless

  std::vector<std::unique_ptr<HtcServer>> htc_servers_;
  std::vector<std::unique_ptr<MtcServer>> mtc_servers_;
  std::vector<std::unique_ptr<DrpRunner>> runners_;  // DRP only
  std::vector<WorkloadType> runner_types_;  // dc-volatile: derived from workload_
  std::optional<fault::FaultDomain> injector_;
  /// Periodic metrics-sampler timer (RunOptions::metrics_every > 0). Part
  /// of the kernel's pending set, so its (next fire, seq) is serialized
  /// and re-armed like any component event.
  sim::TimerId sampler_timer_ = sim::kInvalidTimer;
  /// The history save_file's snapshots share, continued from the snapshot
  /// a restore read.
  snapshot::HistoryCache history_;  // dc-volatile: derived from the saved files
};

/// The canonical auto-snapshot filename for `model` at simulated time `t`
/// inside `dir` (zero-padded so lexical order is chronological order).
std::string snapshot_path(const std::string& dir, SystemModel model, SimTime t);

/// One auto-snapshot of a run directory: the simulated instant its name
/// encodes and the file that freezes it.
struct SnapshotBoundary {
  SimTime time = 0;
  std::string path;
};

/// The auto-snapshots of `model` under `dir`, oldest first: the regular
/// files named as snapshot_path names them, with an all-digit time. Only
/// names are checked; verification happens on restore. kNotFound when
/// `dir` cannot be listed.
StatusOr<std::vector<SnapshotBoundary>> list_snapshot_boundaries(
    const std::string& dir, SystemModel model);

/// run_system with crash consistency: optionally resumes from the newest
/// valid snapshot (policy.resume / policy.resume_from), runs in
/// `policy.every`-sized chunks, and writes a snapshot at every chunk
/// boundary. With a default policy this is exactly run_system.
StatusOr<SystemResult> run_system_snapshotted(SystemModel model,
                                              const ConsolidationWorkload& workload,
                                              const RunOptions& options,
                                              const SnapshotPolicy& policy);

}  // namespace dc::core
