#include "core/mtc_server.hpp"

#include <cassert>

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

Status TriggerMonitor::save(snapshot::SnapshotWriter& writer) const {
  writer.field_u64("workflow_count", dags_.size());
  for (std::size_t wf = 0; wf < dags_.size(); ++wf) {
    const workflow::Dag& dag = *dags_[wf];
    writer.field_u64("task_count", dag.size());
    for (const workflow::Task& task : dag.tasks()) {
      writer.field_str("name", task.name);
      writer.field_i64("runtime", task.runtime);
      writer.field_i64("nodes", task.nodes);
    }
    for (std::size_t t = 0; t < dag.size(); ++t) {
      const auto& children = dag.children(static_cast<workflow::TaskId>(t));
      writer.field_u64("child_count", children.size());
      for (workflow::TaskId child : children) writer.field_i64("child", child);
      writer.field_u64("pending_parents", pending_parents_[wf][t]);
      writer.field_u64("pending_triggers", pending_triggers_[wf][t]);
    }
    writer.field_i64("remaining", remaining_[wf]);
  }
  writer.field_u64("trigger_count", triggers_.size());
  for (const ExternalTrigger& trigger : triggers_) {
    writer.field_u64("wf", trigger.wf);
    writer.field_i64("task", trigger.task);
    writer.field_bool("fired", trigger.fired);
  }
  return Status::ok();
}

Status TriggerMonitor::restore(snapshot::SnapshotReader& reader) {
  dags_.clear();
  pending_parents_.clear();
  pending_triggers_.clear();
  remaining_.clear();
  triggers_.clear();
  std::uint64_t workflow_count = 0;
  if (auto st = reader.read_u64("workflow_count", workflow_count); !st.is_ok()) {
    return st;
  }
  for (std::uint64_t wf = 0; wf < workflow_count; ++wf) {
    std::uint64_t task_count = 0;
    if (auto st = reader.read_u64("task_count", task_count); !st.is_ok()) {
      return st;
    }
    auto dag = std::make_unique<workflow::Dag>();
    for (std::uint64_t t = 0; t < task_count; ++t) {
      std::string name;
      if (auto st = reader.read_str("name", name); !st.is_ok()) return st;
      SimDuration runtime = 1;
      if (auto st = reader.read_i64("runtime", runtime); !st.is_ok()) return st;
      std::int64_t nodes = 1;
      if (auto st = reader.read_i64("nodes", nodes); !st.is_ok()) return st;
      dag->add_task(std::move(name), runtime, nodes);
    }
    std::vector<std::size_t> parents(task_count, 0);
    std::vector<std::size_t> triggers(task_count, 0);
    for (std::uint64_t t = 0; t < task_count; ++t) {
      std::uint64_t child_count = 0;
      if (auto st = reader.read_u64("child_count", child_count); !st.is_ok()) {
        return st;
      }
      for (std::uint64_t c = 0; c < child_count; ++c) {
        workflow::TaskId child = 0;
        if (auto st = reader.read_i64("child", child); !st.is_ok()) return st;
        if (child < 0 || static_cast<std::uint64_t>(child) >= task_count) {
          return Status::invalid_argument(
              "trigger monitor: edge to task " + std::to_string(child) +
              " beyond the workflow's " + std::to_string(task_count) +
              " tasks");
        }
        dag->add_dependency(static_cast<workflow::TaskId>(t), child);
      }
      std::uint64_t pending_parent_count = 0;
      if (auto st = reader.read_u64("pending_parents", pending_parent_count);
          !st.is_ok()) {
        return st;
      }
      parents[t] = static_cast<std::size_t>(pending_parent_count);
      std::uint64_t pending_trigger_count = 0;
      if (auto st = reader.read_u64("pending_triggers", pending_trigger_count);
          !st.is_ok()) {
        return st;
      }
      triggers[t] = static_cast<std::size_t>(pending_trigger_count);
    }
    std::int64_t remaining = 0;
    if (auto st = reader.read_i64("remaining", remaining); !st.is_ok()) {
      return st;
    }
    dags_.push_back(std::move(dag));
    pending_parents_.push_back(std::move(parents));
    pending_triggers_.push_back(std::move(triggers));
    remaining_.push_back(remaining);
  }
  std::uint64_t trigger_count = 0;
  if (auto st = reader.read_u64("trigger_count", trigger_count); !st.is_ok()) {
    return st;
  }
  for (std::uint64_t i = 0; i < trigger_count; ++i) {
    ExternalTrigger trigger{0, 0, false};
    std::uint64_t wf = 0;
    if (auto st = reader.read_u64("wf", wf); !st.is_ok()) return st;
    if (wf >= dags_.size()) {
      return Status::invalid_argument("trigger monitor: trigger on workflow " +
                                      std::to_string(wf) + " out of range");
    }
    trigger.wf = static_cast<WorkflowIndex>(wf);
    if (auto st = reader.read_i64("task", trigger.task); !st.is_ok()) return st;
    const std::size_t tasks = dags_[trigger.wf]->size();
    if (trigger.task < 0 || static_cast<std::uint64_t>(trigger.task) >= tasks) {
      return Status::invalid_argument(
          "trigger monitor: trigger on task " + std::to_string(trigger.task) +
          " beyond workflow " + std::to_string(wf) + "'s " +
          std::to_string(tasks) + " tasks");
    }
    if (auto st = reader.read_bool("fired", trigger.fired); !st.is_ok()) {
      return st;
    }
    triggers_.push_back(trigger);
  }
  return Status::ok();
}

Status MtcServer::save(snapshot::SnapshotWriter& writer) const {
  if (auto st = HtcServer::save(writer); !st.is_ok()) return st;
  writer.begin_section("monitor");
  if (auto st = monitor_.save(writer); !st.is_ok()) return st;
  writer.end_section();
  writer.field_u64("task_ref_count", task_refs_.size());
  for (const TaskRef& ref : task_refs_) {
    writer.field_u64("ref_wf", ref.wf);
    writer.field_i64("ref_task", ref.task);
  }
  return Status::ok();
}

Status MtcServer::restore(snapshot::SnapshotReader& reader) {
  if (auto st = HtcServer::restore(reader); !st.is_ok()) return st;
  if (auto st = reader.begin_section("monitor"); !st.is_ok()) return st;
  if (auto st = monitor_.restore(reader); !st.is_ok()) return st;
  if (auto st = reader.end_section(); !st.is_ok()) return st;
  std::uint64_t task_ref_count = 0;
  if (auto st = reader.read_count("task_ref_count", task_ref_count);
      !st.is_ok()) {
    return st;
  }
  task_refs_.clear();
  task_refs_.reserve(task_ref_count);
  for (std::uint64_t i = 0; i < task_ref_count; ++i) {
    TaskRef ref{0, 0};
    std::uint64_t wf = 0;
    if (auto st = reader.read_u64("ref_wf", wf); !st.is_ok()) return st;
    if (wf >= monitor_.workflow_count()) {
      return Status::invalid_argument(name() + ": task ref on workflow " +
                                      std::to_string(wf) + " out of range");
    }
    ref.wf = static_cast<TriggerMonitor::WorkflowIndex>(wf);
    if (auto st = reader.read_i64("ref_task", ref.task); !st.is_ok()) return st;
    const std::size_t tasks = monitor_.dag(ref.wf).size();
    if (ref.task < 0 || static_cast<std::uint64_t>(ref.task) >= tasks) {
      return Status::invalid_argument(
          name() + ": task ref to task " + std::to_string(ref.task) +
          " beyond workflow " + std::to_string(wf) + "'s " +
          std::to_string(tasks) + " tasks");
    }
    task_refs_.push_back(ref);
  }
  return Status::ok();
}

}  // namespace dc::core
