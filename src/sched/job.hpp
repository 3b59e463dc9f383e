// Job model shared by the HTC and MTC runtime environments.
//
// An HTC job comes from a trace record; an MTC job is one task of a
// workflow (carrying its DAG task id). Jobs are owned by the server that
// manages them; schedulers see const views.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace dc::sched {

using JobId = std::int64_t;

enum class JobState {
  kPending,    // known but not yet released (MTC: dependencies unmet,
               // or a killed job waiting out its retry backoff)
  kQueued,     // in the scheduler queue
  kRunning,
  kCompleted,
  kFailed,     // killed by a node failure with its retry budget exhausted
};

const char* job_state_name(JobState state);

struct Job {
  JobId id = 0;
  SimTime submit = 0;        // release into the queue
  SimDuration runtime = 1;   // execution time once started
  std::int64_t nodes = 1;    // node width
  /// For MTC jobs: the workflow task this job executes; -1 for HTC jobs.
  std::int64_t task_id = -1;

  JobState state = JobState::kPending;
  SimTime start = kNever;
  SimTime finish = kNever;
  /// Times this job was killed by a node failure and retried.
  std::int32_t retries = 0;
  /// Work salvaged by the checkpoint model: when the job next runs it
  /// executes only `runtime - completed_work` (zero without checkpointing —
  /// a killed job restarts from scratch).
  SimDuration completed_work = 0;

  SimTime expected_end() const {
    return start == kNever ? kNever : start + runtime - completed_work;
  }
  SimDuration wait_time() const { return start == kNever ? 0 : start - submit; }
};

/// Arrival-ordered queue of job ids with O(1) membership bookkeeping left
/// to the owner; removal preserves relative order of the remainder.
class JobQueue {
 public:
  void push(JobId id) { items_.push_back(id); }

  const std::vector<JobId>& items() const { return items_; }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  /// Removes the entries at the given ascending positions, in place.
  void remove_positions(const std::vector<std::size_t>& positions);

  void clear() { items_.clear(); }

 private:
  std::vector<JobId> items_;
};

}  // namespace dc::sched
