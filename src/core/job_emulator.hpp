// The job emulator (Figures 6-8).
//
// "For all emulated systems, the job emulator is used to emulate the
// process of submitting jobs. For HTC workload, the job emulator generates
// jobs by reading the trace file, and then submits jobs. For MTC workload,
// the job emulator reads the workflow file, generates each job ... and then
// submits jobs according to the dependency constraints." (Section 4.1.)
//
// Here the emulator schedules submission callbacks on the simulator; the
// dependency-constrained release of MTC jobs is performed by the receiving
// server's trigger monitor (DawningCloud/SSP/DCS) or by the DRP runner.
//
// A trace is one submission *stream*. Registering it reserves one kernel
// sequence number per job, the block that queuing every submission at once
// would draw, but only the stream's next submission sits in the event
// queue: each submission queues the one after it on its reserved seq.
// Trace jobs are sorted by submit time, so the submissions fire in exactly
// the order queuing them all up front would give, while the queue holds
// one entry per stream instead of one per trace job.
//
// The paper speeds up submission and completion by a factor of 100 to make
// wall-clock emulation feasible; a discrete-event simulation does not need
// that, but the same `time_scale` knob is provided (submit times and
// runtimes divided by the factor) so tests can exercise the paper's scaled
// mode and its interaction with the fixed one-hour billing quantum.
//
// Snapshot support: every emulate_trace/emulate_at call registers a stream
// or one-shot in call order. The submissions a stream has not yet fired
// are always a suffix of its jobs, on consecutive seqs, each at its job's
// submit time, so a snapshot records per stream only their count, the
// first one's seq and its time. A passive emulator (constructed with
// passive=true) records the same streams without scheduling anything, and
// restore() re-queues each stream's next submission and re-reserves the
// seqs of the rest. Registration order is the identity of a stream across
// save/restore, so the driver must replay the same emulate_* call sequence
// when rebuilding the world.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "workload/trace.hpp"

namespace dc::core {

/// Queued submissions call back into the emulator, so it must outlive the
/// simulator's run and is not copyable.
class JobEmulator {
 public:
  explicit JobEmulator(sim::Simulator& simulator, double time_scale = 1.0,
                       bool passive = false)
      : simulator_(&simulator), time_scale_(time_scale), passive_(passive) {}
  JobEmulator(const JobEmulator&) = delete;
  JobEmulator& operator=(const JobEmulator&) = delete;

  /// Registers the trace as a submission stream and, unless passive,
  /// reserves its seqs and queues its first submission. The callback
  /// receives the (possibly time-scaled) job.
  void emulate_trace(const workload::Trace& trace,
                     std::function<void(const workload::TraceJob&)> submit);

  /// Schedules a one-shot submission (e.g. a workflow) at `at`.
  void emulate_at(SimTime at, std::function<void()> submit);

  double time_scale() const { return time_scale_; }
  bool passive() const { return passive_; }

  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  Status persist(Io& io);

  struct TraceStream {
    std::function<void(const workload::TraceJob&)> submit;
    std::vector<workload::TraceJob> scaled_jobs;  // nondecreasing submit
    std::size_t next = 0;  // first job not yet submitted
    /// Seqs of jobs next+1 .. end, not yet queued.
    sim::SeqReservation reservation = 0;
    sim::EventId event = sim::kInvalidEvent;  // job `next`'s submission
  };
  struct OneShot {
    std::function<void()> submit;
    SimTime at = 0;  // scaled
    sim::EventId event = sim::kInvalidEvent;
  };

  /// Queues the submission of stream `index`'s job `next`.
  void queue_next(std::size_t index);
  /// Submits stream `index`'s job `next`, queuing the one after it first.
  void submit_next(std::size_t index);

  sim::Simulator* simulator_;
  double time_scale_;  // dc-volatile: fixed by config
  bool passive_;       // dc-volatile: fixed by config
  // A deque: a submit callback that registers another stream must not
  // move the stream whose callback is running.
  std::deque<TraceStream> streams_;
  std::vector<OneShot> oneshots_;
};

}  // namespace dc::core
