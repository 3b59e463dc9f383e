#include "core/mtc_server.hpp"

#include <cassert>

#include "core/snapshot_walk.hpp"

namespace dc::core {

TriggerMonitor::WorkflowIndex TriggerMonitor::register_workflow(
    const workflow::Dag& dag) {
  const WorkflowIndex wf = dags_.size();
  dags_.push_back(std::make_unique<workflow::Dag>(dag));
  std::vector<std::size_t> pending(dag.size());
  for (std::size_t i = 0; i < dag.size(); ++i) {
    pending[i] = dag.parent_count(static_cast<workflow::TaskId>(i));
  }
  pending_parents_.push_back(std::move(pending));
  pending_triggers_.push_back(std::vector<std::size_t>(dag.size(), 0));
  remaining_.push_back(static_cast<std::int64_t>(dag.size()));
  return wf;
}

void TriggerMonitor::maybe_release(WorkflowIndex wf, workflow::TaskId task,
                                   std::vector<workflow::TaskId>& ready_out) {
  const auto idx = static_cast<std::size_t>(task);
  if (pending_parents_[wf][idx] == 0 && pending_triggers_[wf][idx] == 0) {
    ready_out.push_back(task);
  }
}

void TriggerMonitor::release_initial(WorkflowIndex wf,
                                     std::vector<workflow::TaskId>& ready_out) {
  assert(wf < dags_.size());
  for (std::size_t i = 0; i < dags_[wf]->size(); ++i) {
    if (pending_parents_[wf][i] == 0 && pending_triggers_[wf][i] == 0) {
      ready_out.push_back(static_cast<workflow::TaskId>(i));
    }
  }
}

TriggerMonitor::WorkflowIndex TriggerMonitor::add_workflow(
    const workflow::Dag& dag, std::vector<workflow::TaskId>& ready_out) {
  const WorkflowIndex wf = register_workflow(dag);
  release_initial(wf, ready_out);
  return wf;
}

TriggerMonitor::TriggerId TriggerMonitor::add_external_trigger(
    WorkflowIndex wf, workflow::TaskId task) {
  assert(wf < dags_.size());
  assert(task >= 0 && static_cast<std::size_t>(task) < dags_[wf]->size());
  const auto id = static_cast<TriggerId>(triggers_.size());
  triggers_.push_back(ExternalTrigger{wf, task, false});
  ++pending_triggers_[wf][static_cast<std::size_t>(task)];
  return id;
}

void TriggerMonitor::fire_trigger(TriggerId trigger,
                                  std::vector<workflow::TaskId>& ready_out) {
  auto& record = triggers_.at(static_cast<std::size_t>(trigger));
  if (record.fired) return;
  record.fired = true;
  auto& pending = pending_triggers_[record.wf][static_cast<std::size_t>(record.task)];
  assert(pending > 0);
  --pending;
  maybe_release(record.wf, record.task, ready_out);
}

bool TriggerMonitor::on_task_complete(WorkflowIndex wf, workflow::TaskId task,
                                      std::vector<workflow::TaskId>& ready_out) {
  assert(wf < dags_.size());
  auto& pending = pending_parents_[wf];
  for (workflow::TaskId child : dags_[wf]->children(task)) {
    auto& count = pending[static_cast<std::size_t>(child)];
    assert(count > 0 && "dependency released twice");
    if (--count == 0) maybe_release(wf, child, ready_out);
  }
  assert(remaining_[wf] > 0);
  --remaining_[wf];
  return remaining_[wf] == 0;
}

bool TriggerMonitor::all_complete() const {
  for (std::int64_t remaining : remaining_) {
    if (remaining != 0) return false;
  }
  return true;
}

MtcServer::MtcServer(sim::Simulator& simulator,
                     ResourceProvisionService& provision, MtcConfig config)
    : HtcServer(simulator, provision, base_config(config)),
      destroy_when_complete_(config.destroy_when_complete) {
  set_completion_callback(
      [this](const sched::Job& job) { handle_completion(job); });
}

void MtcServer::submit_ready(TriggerMonitor::WorkflowIndex wf,
                             const std::vector<workflow::TaskId>& ready) {
  const workflow::Dag& dag = monitor_.dag(wf);
  for (workflow::TaskId task : ready) {
    const auto ref_index = static_cast<std::int64_t>(task_refs_.size());
    task_refs_.push_back({wf, task});
    const workflow::Task& t = dag.task(task);
    submit(t.runtime, t.nodes, ref_index);
  }
}

TriggerMonitor::WorkflowIndex MtcServer::submit_workflow(
    const workflow::Dag& dag) {
  assert(dag.validate().is_ok());
  std::vector<workflow::TaskId> ready;
  const TriggerMonitor::WorkflowIndex wf = monitor_.add_workflow(dag, ready);
  DC_TRACE_INSTANT_C(trace(), simulator().now(), obs::TraceCategory::kJob,
                     "workflow.submit", trace_actor(),
                     static_cast<std::int64_t>(wf),
                     static_cast<std::int64_t>(dag.size()));
  submit_ready(wf, ready);
  return wf;
}

MtcServer::GatedSubmission MtcServer::submit_workflow_gated(
    const workflow::Dag& dag,
    const std::vector<workflow::TaskId>& gated_tasks) {
  assert(dag.validate().is_ok());
  GatedSubmission out;
  out.wf = monitor_.register_workflow(dag);
  out.triggers.reserve(gated_tasks.size());
  for (workflow::TaskId task : gated_tasks) {
    out.triggers.push_back(monitor_.add_external_trigger(out.wf, task));
  }
  std::vector<workflow::TaskId> ready;
  monitor_.release_initial(out.wf, ready);
  submit_ready(out.wf, ready);
  return out;
}

void MtcServer::fire_trigger(TriggerMonitor::TriggerId trigger) {
  std::vector<workflow::TaskId> ready;
  monitor_.fire_trigger(trigger, ready);
  DC_TRACE_INSTANT_C(trace(), simulator().now(), obs::TraceCategory::kJob,
                     "workflow.trigger", trace_actor(), trigger,
                     static_cast<std::int64_t>(ready.size()));
  submit_ready(monitor_.trigger_workflow(trigger), ready);
}

void MtcServer::handle_completion(const sched::Job& job) {
  assert(job.task_id >= 0 &&
         static_cast<std::size_t>(job.task_id) < task_refs_.size());
  const TaskRef ref = task_refs_[static_cast<std::size_t>(job.task_id)];
  std::vector<workflow::TaskId> ready;
  const bool workflow_done = monitor_.on_task_complete(ref.wf, ref.task, ready);
  if (workflow_done) {
    DC_TRACE_INSTANT_C(trace(), simulator().now(), obs::TraceCategory::kJob,
                       "workflow.complete", trace_actor(),
                       static_cast<std::int64_t>(ref.wf), 0);
  }
  submit_ready(ref.wf, ready);
  if (destroy_when_complete_ && monitor_.all_complete() && drained()) {
    // The campaign is done: the service provider destroys its TRE, which
    // closes every lease at the completion time.
    shutdown();
  }
}

SimDuration MtcServer::makespan(SimTime horizon) const {
  if (first_submit() == kNever) return 0;
  const SimTime end = monitor_.all_complete() && last_finish() != kNever
                          ? last_finish()
                          : horizon;
  return end - first_submit();
}

double MtcServer::tasks_per_second(SimTime horizon) const {
  const SimDuration span = makespan(horizon);
  if (span <= 0) return 0.0;
  return static_cast<double>(completed_tasks(horizon)) /
         static_cast<double>(span);
}

template <class Io>
Status TriggerMonitor::persist(Io& io) {
  // A registered workflow's DAG never changes: the DAGs are history, and
  // each workflow's readiness counters are live.
  const auto dag_rows = [&](Io& h, std::uint64_t first,
                            std::uint64_t end) -> Status {
    for (std::uint64_t wf = first; wf < end; ++wf) {
      if constexpr (!Io::kSaving) {
        dags_.push_back(std::make_unique<workflow::Dag>());
      }
      if (auto st = persist_dag(h, *dags_[wf], "trigger monitor");
          !st.is_ok()) {
        return st;
      }
    }
    return Status::ok();
  };
  std::uint64_t workflow_count = dags_.size();
  if constexpr (!Io::kSaving) dags_.clear();
  if (auto st = snapshot::table(io, "workflow_count", "workflows",
                                workflow_count, dags_.size(), dag_rows);
      !st.is_ok()) {
    return st;
  }
  if constexpr (!Io::kSaving) {
    pending_parents_.assign(workflow_count, {});
    pending_triggers_.assign(workflow_count, {});
    remaining_.assign(workflow_count, 0);
  }
  for (std::size_t wf = 0; wf < workflow_count; ++wf) {
    const std::size_t tasks = dags_[wf]->size();
    if (auto st = persist_task_counter(io, "pending_parents", "trigger monitor",
                                       tasks, pending_parents_[wf]);
        !st.is_ok()) {
      return st;
    }
    if (auto st = persist_task_counter(io, "pending_triggers",
                                       "trigger monitor", tasks,
                                       pending_triggers_[wf]);
        !st.is_ok()) {
      return st;
    }
    if (auto st = io.i64("remaining", remaining_[wf]); !st.is_ok()) return st;
  }
  const auto each_trigger = [&](ExternalTrigger& trigger) -> Status {
    if (auto st = io.u64("wf", trigger.wf); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (trigger.wf >= dags_.size()) {
        return Status::invalid_argument(
            "trigger monitor: trigger on workflow " +
            std::to_string(trigger.wf) + " out of range");
      }
    }
    if (auto st = io.i64("task", trigger.task); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      const std::size_t tasks = dags_[trigger.wf]->size();
      if (trigger.task < 0 ||
          static_cast<std::uint64_t>(trigger.task) >= tasks) {
        return Status::invalid_argument(
            "trigger monitor: trigger on task " + std::to_string(trigger.task) +
            " beyond workflow " + std::to_string(trigger.wf) + "'s " +
            std::to_string(tasks) + " tasks");
      }
    }
    return io.boolean("fired", trigger.fired);
  };
  return snapshot::list(io, "trigger_count", triggers_, each_trigger);
}

Status TriggerMonitor::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<TriggerMonitor&>(*this).persist(writer);
}

Status TriggerMonitor::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

template <class Io>
Status MtcServer::persist(Io& io) {
  if (auto st = HtcServer::persist(io); !st.is_ok()) return st;
  if (auto st = io.section("monitor", monitor_); !st.is_ok()) return st;
  // A task ref is written once, when its job is made: every ref is history.
  const auto ref_rows = [&](Io& h, std::uint64_t first,
                            std::uint64_t end) -> Status {
    if constexpr (!Io::kSaving) task_refs_.resize(end);
    for (std::uint64_t i = first; i < end; ++i) {
      TaskRef& ref = task_refs_[i];
      if (auto st = h.u64("ref_wf", ref.wf); !st.is_ok()) return st;
      if constexpr (!Io::kSaving) {
        if (ref.wf >= monitor_.workflow_count()) {
          return Status::invalid_argument(
              name() + ": task ref on workflow " + std::to_string(ref.wf) +
              " out of range (" + h.context() + ")");
        }
      }
      if (auto st = h.i64("ref_task", ref.task); !st.is_ok()) return st;
      if constexpr (!Io::kSaving) {
        const std::size_t tasks = monitor_.dag(ref.wf).size();
        if (ref.task < 0 || static_cast<std::uint64_t>(ref.task) >= tasks) {
          return Status::invalid_argument(
              name() + ": task ref to task " + std::to_string(ref.task) +
              " beyond workflow " + std::to_string(ref.wf) + "'s " +
              std::to_string(tasks) + " tasks (" + h.context() + ")");
        }
      }
    }
    return Status::ok();
  };
  std::uint64_t ref_count = task_refs_.size();
  if constexpr (!Io::kSaving) task_refs_.clear();
  return snapshot::table(io, "task_ref_count", "task_refs", ref_count,
                         task_refs_.size(), ref_rows);
}

Status MtcServer::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<MtcServer&>(*this).persist(writer);
}

Status MtcServer::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

}  // namespace dc::core
