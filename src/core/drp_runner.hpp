// The DRP (direct resource provision) system's per-organization runner.
//
// In DRP "each end user directly leases virtual machine resources from EC2
// in a specified period for running applications" (Deelman et al., Section
// 1). There is no service provider, no queue and no scheduling policy:
// "all jobs run immediately without queuing" (Section 4.4). Two end-user
// behaviours are modeled:
//
//  * HTC: every batch job is an independent user request; the user leases
//    exactly the job's width at submission and releases at completion. With
//    the one-hour billing quantum, short jobs pay for a full hour — the
//    effect that puts DRP 25.8% *above* DCS on the NASA trace (Table 2).
//  * MTC: one user runs the whole workflow and manually manages a pool of
//    leased VMs, reusing idle VMs across tasks and growing the pool only
//    when no idle VM exists; all VMs are returned when the campaign ends.
//    The pool therefore peaks at the workflow's widest concurrency (662 for
//    the paper's Montage), each VM billed one hour — Table 4's 662
//    node*hours and Figure 13's DRP peak.
//
// Fault model: a failed VM is gone — its lease ends at the failure instant
// and there is no provider-side repair (repair_nodes is a no-op; EC2 does
// not hand a crashed instance back). The work it ran is killed and retried
// per the recovery policy by leasing *fresh* VMs, paying the boot latency
// again. Idle pool VMs absorb failures first; then the most recently
// started work dies.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cluster/billing.hpp"
#include "cluster/usage_recorder.hpp"
#include "core/fault/fault_target.hpp"
#include "core/fault/recovery.hpp"
#include "core/provision_service.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "util/time.hpp"
#include "workflow/dag.hpp"

namespace dc::core {

class DrpRunner : public fault::FaultTarget {
 public:
  DrpRunner(sim::Simulator& simulator, ResourceProvisionService& provision,
            std::string name);

  /// Boot/setup time for a freshly leased VM. HTC jobs always pay it; MTC
  /// workflow tasks pay it only when the pool has to grow (reused idle VMs
  /// are already set up). Billing includes the setup time (EC2 charges
  /// from launch).
  void set_setup_latency(SimDuration latency) { setup_latency_ = latency; }

  /// Recovery policy for work killed by VM failures (retry budget,
  /// backoff, checkpoints). Grant timeouts do not apply: DRP never waits
  /// for grants.
  void set_recovery(fault::FaultRecoveryPolicy recovery) {
    recovery_ = recovery;
  }

  /// Borrows a per-run trace sink (may be null; see docs/OBSERVABILITY.md).
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// HTC job: lease `nodes` now, run for `runtime`, release at completion.
  void submit_job(SimDuration runtime, std::int64_t nodes);

  /// MTC workflow: run with the reusable VM pool. Tasks start the moment
  /// their dependencies complete.
  void submit_workflow(const workflow::Dag& dag);

  // --- FaultTarget ---------------------------------------------------------
  const std::string& fault_name() const override { return name_; }
  /// Every currently leased VM can fail.
  std::int64_t healthy_nodes() const override { return held_.current(); }
  std::int64_t fail_nodes(std::int64_t count) override;
  /// No-op: failed VM leases already ended; retries lease fresh VMs.
  void repair_nodes(std::int64_t count) override;

  const std::string& name() const { return name_; }
  std::int64_t submitted_jobs() const { return submitted_; }
  std::int64_t completed_jobs(
      SimTime horizon = std::numeric_limits<SimTime>::max()) const;
  SimTime first_submit() const { return first_submit_; }
  SimTime last_finish() const { return last_finish_; }

  const cluster::LeaseLedger& ledger() const { return ledger_; }
  const cluster::UsageRecorder& held_usage() const { return held_; }

  /// Jobs/tasks killed by VM failures.
  std::int64_t jobs_killed() const { return jobs_killed_; }
  /// Jobs/tasks whose retry budget was exhausted.
  std::int64_t jobs_failed() const { return jobs_failed_; }
  /// Useful node*hours delivered within the horizon (width x runtime of
  /// completed work; re-runs excluded).
  double goodput_node_hours(SimTime horizon) const;
  /// Node*hours of execution thrown away by kills.
  double wasted_node_hours() const {
    return static_cast<double>(wasted_node_seconds_) / 3600.0;
  }

  /// Peak VM pool size across all workflow runs.
  std::int64_t peak_pool_size() const { return peak_pool_; }

  /// Makespan and tasks/s for workflow runs (mirrors MtcServer's metric).
  SimDuration makespan(SimTime horizon) const;
  double tasks_per_second(SimTime horizon) const;

  /// Serializes the workflow runs (DAGs included — submissions arrive via
  /// already-fired events that a restore never replays), in-flight work,
  /// leases, counters, and pending completion/retry events; restore()
  /// re-arms them on a freshly constructed runner.
  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  Status persist(Io& io);

  struct WorkflowRun {
    workflow::Dag dag;
    std::vector<std::size_t> pending_parents;
    std::int64_t remaining = 0;
    /// VM pool: total leased and currently idle; one lease id per VM.
    std::int64_t pool_size = 0;
    std::int64_t idle_vms = 0;
    std::vector<cluster::LeaseId> vm_leases;
    SimTime submitted = 0;
  };

  /// One in-flight job or task attempt; `active_` is a stack, newest last,
  /// so failures kill the most recently started work first.
  struct ActiveWork {
    std::int64_t work_id = 0;  // stable handle for completion events
    bool is_task = false;
    std::int64_t nodes = 0;
    SimDuration runtime = 0;        // full runtime of the job/task
    SimDuration completed_work = 0; // salvaged by checkpoints
    SimTime exec_start = 0;         // execution begins here (after boot)
    sim::EventId completion = sim::kInvalidEvent;
    cluster::LeaseId lease = 0;     // job attempts only (one lease, all nodes)
    std::size_t run_index = 0;      // task attempts only
    workflow::TaskId task = 0;      // task attempts only
    std::int32_t retries = 0;
  };

  void start_job_attempt(SimDuration runtime, SimDuration completed_work,
                         std::int64_t nodes, std::int32_t retries);
  void finish_job(std::int64_t work_id);
  void start_task(std::size_t run_index, workflow::TaskId task);
  void start_task_attempt(std::size_t run_index, workflow::TaskId task,
                          SimDuration completed_work, std::int32_t retries);
  void finish_task(std::int64_t work_id);
  void record_completion(SimTime now);
  std::size_t find_active(std::int64_t work_id) const;
  /// Kills active_[index] (already cancelled from the stack by the caller)
  /// and routes it through the recovery policy.
  void kill_work(SimTime now, const ActiveWork& work);

  /// Parameters of a retry attempt waiting out its backoff; doubles as the
  /// append-only registry entry for the pending backoff event.
  struct PendingRetry {
    sim::EventId event = sim::kInvalidEvent;
    bool is_task = false;
    std::size_t run_index = 0;        // task retries
    workflow::TaskId task = 0;        // task retries
    SimDuration runtime = 0;          // job retries
    std::int64_t nodes = 0;           // job retries
    SimDuration salvaged = 0;
    std::int32_t retries = 0;
  };
  sim::Simulator::Callback make_completion(std::int64_t work_id, bool is_task);
  sim::Simulator::Callback make_retry(const PendingRetry& retry);

  sim::Simulator& simulator_;
  ResourceProvisionService& provision_;  // dc-volatile: wiring
  std::string name_;
  obs::TraceName trace_actor_;  // dc-volatile: cached intern of name_
  ResourceProvisionService::ConsumerId consumer_ = 0;  // dc-volatile: reassigned at re-registration
  obs::TraceSink* trace_ = nullptr;  // dc-volatile: borrowed, may be null

  cluster::LeaseLedger ledger_;
  cluster::UsageRecorder held_;
  std::vector<WorkflowRun> runs_;
  std::vector<ActiveWork> active_;
  std::int64_t next_work_id_ = 0;

  SimDuration setup_latency_ = 0;       // dc-volatile: fixed by config
  fault::FaultRecoveryPolicy recovery_;  // dc-volatile: fixed by config
  std::int64_t submitted_ = 0;
  std::vector<SimTime> finish_times_;
  /// (finish, node*seconds) per completion, for horizon-filtered goodput.
  struct Completion {
    SimTime finish;
    std::int64_t node_seconds;
  };
  std::vector<Completion> completions_;
  SimTime first_submit_ = kNever;
  SimTime last_finish_ = kNever;
  std::int64_t peak_pool_ = 0;
  std::int64_t jobs_killed_ = 0;
  std::int64_t jobs_failed_ = 0;
  std::int64_t wasted_node_seconds_ = 0;
  /// Already-fired entries are filtered through pending_event_info at save.
  std::vector<PendingRetry> retry_events_;
};

}  // namespace dc::core
