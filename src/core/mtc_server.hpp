// The MTC server, trigger monitor, and workflow-aware resource policy.
//
// Section 3.1.2: "Different from the HTC server, the MTC server needs to
// parse the workflow description model ... and then submit a set of jobs
// with dependencies to the MTC scheduler for scheduling. Besides, a new
// service, named the trigger monitor, is responsible for monitoring the
// trigger condition of workflows ... and notifying the changes to the MTC
// server to drive the running of jobs in different stages of a workflow."
//
// The TriggerMonitor here tracks, per workflow, how many unfinished parents
// each task still has; a task completion "changes the database record", the
// monitor observes it, and the newly-ready tasks are handed back to the
// server, which submits them to its queue as jobs. The resource policy is
// the HTC policy with a three-second scan interval, and demand accounting
// counts every constituent job in the queue (Section 3.2.2.2).
#pragma once

#include <memory>
#include <vector>

#include "core/htc_server.hpp"
#include "workflow/dag.hpp"

namespace dc::core {

/// Tracks dependency readiness for submitted workflows, including external
/// trigger conditions ("the changes of database's record or files" in the
/// paper) that gate tasks beyond their dataflow parents. Pure bookkeeping —
/// independently testable, no simulator involvement.
class TriggerMonitor {
 public:
  using WorkflowIndex = std::size_t;
  using TriggerId = std::int64_t;

  /// Registers a workflow; returns its index and the initially-ready tasks.
  /// Equivalent to register_workflow + release_initial.
  WorkflowIndex add_workflow(const workflow::Dag& dag,
                             std::vector<workflow::TaskId>& ready_out);

  /// Registers a workflow without releasing anything yet, so external
  /// triggers can be attached first.
  WorkflowIndex register_workflow(const workflow::Dag& dag);

  /// Releases every task of `wf` whose parents and triggers are already
  /// satisfied (call once, after attaching triggers).
  void release_initial(WorkflowIndex wf,
                       std::vector<workflow::TaskId>& ready_out);

  /// Declares an external trigger condition gating `task` of workflow `wf`:
  /// the task is not released until every parent completed AND the trigger
  /// fired. Must be attached before release_initial. Returns the trigger id.
  TriggerId add_external_trigger(WorkflowIndex wf, workflow::TaskId task);

  /// Fires an external trigger (the watched database/file changed);
  /// appends any now-ready tasks to `ready_out`. Idempotent.
  void fire_trigger(TriggerId trigger,
                    std::vector<workflow::TaskId>& ready_out);

  bool trigger_fired(TriggerId trigger) const {
    return triggers_.at(static_cast<std::size_t>(trigger)).fired;
  }
  WorkflowIndex trigger_workflow(TriggerId trigger) const {
    return triggers_.at(static_cast<std::size_t>(trigger)).wf;
  }

  /// Observes completion of `task` in workflow `wf`; appends newly-ready
  /// tasks to `ready_out`. Returns true if the whole workflow is complete.
  bool on_task_complete(WorkflowIndex wf, workflow::TaskId task,
                        std::vector<workflow::TaskId>& ready_out);

  bool workflow_complete(WorkflowIndex wf) const {
    return remaining_.at(wf) == 0;
  }
  bool all_complete() const;
  std::size_t workflow_count() const { return dags_.size(); }
  const workflow::Dag& dag(WorkflowIndex wf) const { return *dags_.at(wf); }

  /// Serializes the registered workflows (tasks and edges — the monitor
  /// owns its DAG copies, and submissions arrive via already-fired events
  /// that a restore never replays), the per-task readiness counters, and
  /// the external triggers.
  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  Status persist(Io& io);

  struct ExternalTrigger {
    WorkflowIndex wf;
    workflow::TaskId task;
    bool fired = false;
  };

  /// Releases `task` if both its parents and its triggers are satisfied.
  void maybe_release(WorkflowIndex wf, workflow::TaskId task,
                     std::vector<workflow::TaskId>& ready_out);

  std::vector<std::unique_ptr<workflow::Dag>> dags_;
  std::vector<std::vector<std::size_t>> pending_parents_;  // per wf, per task
  /// Unfired external triggers gating each task (usually 0).
  std::vector<std::vector<std::size_t>> pending_triggers_;
  std::vector<std::int64_t> remaining_;  // unfinished tasks
  std::vector<ExternalTrigger> triggers_;
};

class MtcServer : public HtcServer {
 public:
  struct MtcConfig {
    std::string name = "mtc";
    std::int64_t fixed_nodes = 0;
    std::optional<ResourceManagementPolicy> policy;
    const sched::Scheduler* scheduler = nullptr;
    /// Destroy the TRE (release all resources) once every submitted
    /// workflow has completed — the MTC provider's service session ends
    /// with its campaign, which is what bounds its billed consumption to
    /// the makespan's billing hours.
    bool destroy_when_complete = true;
    /// See HtcServer::Config::priority.
    int priority = 0;
    /// See HtcServer::Config::setup_latency.
    SimDuration setup_latency = 0;
    /// See HtcServer::Config::recovery. A workflow with a kFailed task
    /// never completes (its dependents stay pending), so an exhausted
    /// retry budget surfaces as an unfinished, failed campaign.
    fault::FaultRecoveryPolicy recovery;
  };

 private:
  /// Builds the base-class config from the MTC config.
  static Config base_config(const MtcConfig& config) {
    Config base;
    base.name = config.name;
    base.fixed_nodes = config.fixed_nodes;
    base.policy = config.policy;
    base.scheduler = config.scheduler;
    base.priority = config.priority;
    base.setup_latency = config.setup_latency;
    base.recovery = config.recovery;
    return base;
  }

 public:

  MtcServer(sim::Simulator& simulator, ResourceProvisionService& provision,
            MtcConfig config);

  /// Parses/accepts a workflow at the current simulation time and submits
  /// its ready tasks. The DAG is copied (the server owns its run state).
  TriggerMonitor::WorkflowIndex submit_workflow(const workflow::Dag& dag);

  struct GatedSubmission {
    TriggerMonitor::WorkflowIndex wf;
    /// One trigger per entry of `gated_tasks`, in order.
    std::vector<TriggerMonitor::TriggerId> triggers;
  };

  /// Submits a workflow whose listed tasks additionally wait for external
  /// trigger conditions (the paper's trigger monitor watches "the changes
  /// of database's record or files"). Each gated task is released only
  /// when its parents completed AND its trigger fired via fire_trigger.
  GatedSubmission submit_workflow_gated(
      const workflow::Dag& dag,
      const std::vector<workflow::TaskId>& gated_tasks);

  /// Notifies the trigger monitor that an external condition changed,
  /// releasing any now-ready tasks into the queue.
  void fire_trigger(TriggerMonitor::TriggerId trigger);

  bool all_workflows_complete() const { return monitor_.all_complete(); }
  std::int64_t completed_tasks(
      SimTime horizon = std::numeric_limits<SimTime>::max()) const {
    return completed_jobs(horizon);
  }

  /// Workflow makespan: first submission to last task completion (or
  /// `horizon` if unfinished). Zero if nothing was submitted.
  SimDuration makespan(SimTime horizon) const;

  /// The paper's MTC metric: completed tasks per second of makespan.
  double tasks_per_second(SimTime horizon) const;

  const TriggerMonitor& monitor() const { return monitor_; }

  Status save(snapshot::SnapshotWriter& writer) const override;
  Status restore(snapshot::SnapshotReader& reader) override;

 protected:
  /// MTC demand counts every constituent job of the submitted workflows
  /// that is queued or running (Section 3.2.2.2).
  std::int64_t policy_demand() const override {
    return queued_demand() + busy();
  }

 private:
  template <class Io>
  Status persist(Io& io);

  void handle_completion(const sched::Job& job);
  /// Submits the given ready tasks of workflow `wf` as jobs.
  void submit_ready(TriggerMonitor::WorkflowIndex wf,
                    const std::vector<workflow::TaskId>& ready);

  TriggerMonitor monitor_;
  /// job.task_id holds an index into this table.
  struct TaskRef {
    TriggerMonitor::WorkflowIndex wf;
    workflow::TaskId task;
  };
  std::vector<TaskRef> task_refs_;
  bool destroy_when_complete_;  // dc-volatile: fixed by config
};

}  // namespace dc::core
