#include "core/drp_runner.hpp"

#include <algorithm>
#include <cassert>

#include "core/snapshot_walk.hpp"

namespace dc::core {

DrpRunner::DrpRunner(sim::Simulator& simulator,
                     ResourceProvisionService& provision, std::string name)
    : simulator_(simulator),
      provision_(provision),
      name_(std::move(name)),
      trace_actor_(name_) {
  // End users of one organization are aggregated as one uncapped consumer.
  consumer_ = provision_.register_consumer(name_, /*subscription_cap=*/0);
}

void DrpRunner::record_completion(SimTime now) {
  finish_times_.push_back(now);
  last_finish_ = std::max(last_finish_, now);
}

std::size_t DrpRunner::find_active(std::int64_t work_id) const {
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i].work_id == work_id) return i;
  }
  assert(false && "unknown work id");
  return active_.size();
}

void DrpRunner::submit_job(SimDuration runtime, std::int64_t nodes) {
  assert(runtime >= 1 && nodes >= 1);
  const SimTime now = simulator_.now();
  if (first_submit_ == kNever) first_submit_ = now;
  ++submitted_;
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.submit", trace_actor_,
                     next_work_id_, nodes);
  start_job_attempt(runtime, /*completed_work=*/0, nodes, /*retries=*/0);
}

void DrpRunner::start_job_attempt(SimDuration runtime,
                                  SimDuration completed_work,
                                  std::int64_t nodes, std::int32_t retries) {
  const SimTime now = simulator_.now();
  // The provider pool is effectively unbounded for end users (EC2
  // semantics); a bounded pool rejecting here would drop the job.
  if (!provision_.request(now, consumer_, nodes)) return;
  held_.change(now, nodes);
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kLease, "lease.open", trace_actor_,
                     nodes, held_.current());
  const SimDuration remaining = runtime - completed_work;
  // The lease is recorded with its planned end up front; a VM failure
  // amends it down to the failure instant. Surviving jobs therefore bill
  // exactly as before the fault subsystem existed, including leases whose
  // planned end lies past the experiment horizon.
  const cluster::LeaseId lease = ledger_.open(now, nodes, "job");
  ledger_.close(lease, now + setup_latency_ + remaining);

  ActiveWork work;
  work.work_id = next_work_id_++;
  work.is_task = false;
  work.nodes = nodes;
  work.runtime = runtime;
  work.completed_work = completed_work;
  work.exec_start = now + setup_latency_;
  work.lease = lease;
  work.retries = retries;
  work.completion = simulator_.schedule_in(
      setup_latency_ + remaining, make_completion(work.work_id, false));
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.start", trace_actor_,
                     work.work_id, nodes);
  active_.push_back(work);
}

sim::Simulator::Callback DrpRunner::make_completion(std::int64_t work_id,
                                                    bool is_task) {
  if (is_task) return [this, work_id] { finish_task(work_id); };
  return [this, work_id] { finish_job(work_id); };
}

sim::Simulator::Callback DrpRunner::make_retry(const PendingRetry& retry) {
  if (retry.is_task) {
    return [this, run_index = retry.run_index, task = retry.task,
            salvaged = retry.salvaged, retries = retry.retries] {
      DC_TRACE_INSTANT_C(trace_, simulator_.now(), obs::TraceCategory::kFault,
                         "fault.retry", trace_actor_, task, retries);
      start_task_attempt(run_index, task, salvaged, retries);
    };
  }
  return [this, runtime = retry.runtime, salvaged = retry.salvaged,
          nodes = retry.nodes, retries = retry.retries] {
    DC_TRACE_INSTANT_C(trace_, simulator_.now(), obs::TraceCategory::kFault,
                       "fault.retry", trace_actor_, nodes, retries);
    start_job_attempt(runtime, salvaged, nodes, retries);
  };
}

void DrpRunner::finish_job(std::int64_t work_id) {
  const std::size_t index = find_active(work_id);
  const ActiveWork work = active_[index];
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
  const SimTime now = simulator_.now();
  provision_.release(now, consumer_, work.nodes);
  held_.change(now, -work.nodes);
  record_completion(now);
  completions_.push_back(Completion{now, work.nodes * work.runtime});
  DC_TRACE_SPAN_C(trace_, work.exec_start, now - work.exec_start,
                  obs::TraceCategory::kJob, "job.run", trace_actor_, work.work_id,
                  work.nodes);
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.complete", trace_actor_,
                     work.work_id, work.nodes);
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kLease, "lease.close",
                     trace_actor_, work.nodes, held_.current());
}

void DrpRunner::submit_workflow(const workflow::Dag& dag) {
  assert(dag.validate().is_ok());
  const SimTime now = simulator_.now();
  if (first_submit_ == kNever) first_submit_ = now;
  runs_.push_back(WorkflowRun{});
  WorkflowRun& run = runs_.back();
  run.dag = dag;
  run.submitted = now;
  run.remaining = static_cast<std::int64_t>(dag.size());
  run.pending_parents.resize(dag.size());
  const std::size_t run_index = runs_.size() - 1;
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "workflow.submit",
                     trace_actor_, static_cast<std::int64_t>(run_index),
                     static_cast<std::int64_t>(dag.size()));
  std::vector<workflow::TaskId> ready;
  for (std::size_t i = 0; i < dag.size(); ++i) {
    run.pending_parents[i] = dag.parent_count(static_cast<workflow::TaskId>(i));
    if (run.pending_parents[i] == 0) {
      ready.push_back(static_cast<workflow::TaskId>(i));
    }
  }
  for (workflow::TaskId task : ready) start_task(run_index, task);
}

void DrpRunner::start_task(std::size_t run_index, workflow::TaskId task) {
  ++submitted_;
  start_task_attempt(run_index, task, /*completed_work=*/0, /*retries=*/0);
}

void DrpRunner::start_task_attempt(std::size_t run_index, workflow::TaskId task,
                                   SimDuration completed_work,
                                   std::int32_t retries) {
  WorkflowRun& run = runs_[run_index];
  const workflow::Task& t = run.dag.task(task);
  const SimTime now = simulator_.now();
  // Acquire VMs from the user's pool, growing it when no idle VM exists.
  // Montage tasks are single-node; wider tasks grow the pool by their
  // width. Reused idle VMs are already set up; fresh ones pay the boot
  // latency before the task can start.
  bool grew_pool = false;
  for (std::int64_t needed = t.nodes; needed > 0; --needed) {
    if (run.idle_vms > 0) {
      --run.idle_vms;
      continue;
    }
    if (!provision_.request(now, consumer_, 1)) continue;  // unbounded in experiments
    held_.change(now, 1);
    run.vm_leases.push_back(ledger_.open(now, 1, "vm"));
    ++run.pool_size;
    grew_pool = true;
    peak_pool_ = std::max(peak_pool_, run.pool_size);
  }
  const SimDuration boot = grew_pool ? setup_latency_ : 0;
  if (grew_pool) {
    DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kLease, "lease.open",
                       trace_actor_, run.pool_size, held_.current());
  }

  ActiveWork work;
  work.work_id = next_work_id_++;
  work.is_task = true;
  work.nodes = t.nodes;
  work.runtime = t.runtime;
  work.completed_work = completed_work;
  work.exec_start = now + boot;
  work.run_index = run_index;
  work.task = task;
  work.retries = retries;
  work.completion = simulator_.schedule_in(
      boot + (t.runtime - completed_work), make_completion(work.work_id, true));
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.start", trace_actor_,
                     work.work_id, t.nodes);
  active_.push_back(work);
}

void DrpRunner::finish_task(std::int64_t work_id) {
  const std::size_t index = find_active(work_id);
  const ActiveWork work = active_[index];
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
  WorkflowRun& run = runs_[work.run_index];
  const SimTime now = simulator_.now();
  run.idle_vms += work.nodes;
  record_completion(now);
  completions_.push_back(Completion{now, work.nodes * work.runtime});
  DC_TRACE_SPAN_C(trace_, work.exec_start, now - work.exec_start,
                  obs::TraceCategory::kJob, "job.run", trace_actor_, work.work_id,
                  work.nodes);
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.complete", trace_actor_,
                     work.work_id, work.nodes);
  assert(run.remaining > 0);
  --run.remaining;
  std::vector<workflow::TaskId> ready;
  for (workflow::TaskId child : run.dag.children(work.task)) {
    auto& pending = run.pending_parents[static_cast<std::size_t>(child)];
    assert(pending > 0);
    if (--pending == 0) ready.push_back(child);
  }
  for (workflow::TaskId next : ready) start_task(work.run_index, next);

  if (run.remaining == 0) {
    // Campaign over: the user returns every leased VM.
    for (cluster::LeaseId lease : run.vm_leases) ledger_.close(lease, now);
    provision_.release(now, consumer_, run.pool_size);
    held_.change(now, -run.pool_size);
    DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kLease, "lease.close",
                       trace_actor_, run.pool_size, held_.current());
    DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "workflow.complete",
                       trace_actor_, static_cast<std::int64_t>(work.run_index), 0);
    run.pool_size = 0;
    run.idle_vms = 0;
    run.vm_leases.clear();
  }
}

std::int64_t DrpRunner::fail_nodes(std::int64_t count) {
  assert(count >= 0);
  count = std::min(count, held_.current());
  if (count <= 0) return 0;
  const std::int64_t failing = count;
  const SimTime now = simulator_.now();

  // Idle pool VMs absorb failures first: their leases end now, no work
  // dies. The newest lease is ended (shortest-lived), deterministically.
  for (std::size_t i = 0; i < runs_.size() && count > 0; ++i) {
    WorkflowRun& run = runs_[i];
    while (count > 0 && run.idle_vms > 0) {
      assert(!run.vm_leases.empty());
      ledger_.close(run.vm_leases.back(), now);
      run.vm_leases.pop_back();
      --run.idle_vms;
      --run.pool_size;
      provision_.release(now, consumer_, 1);
      held_.change(now, -1);
      --count;
    }
  }

  // Then the most recently started work dies, newest first. Kills are
  // collected and recovered after the loop so a zero-backoff retry cannot
  // re-enter active_ and be killed by the same failure event.
  std::vector<ActiveWork> killed;
  while (count > 0 && !active_.empty()) {
    const ActiveWork work = active_.back();
    active_.pop_back();
    simulator_.cancel(work.completion);
    if (work.is_task) {
      WorkflowRun& run = runs_[work.run_index];
      for (std::int64_t i = 0; i < work.nodes; ++i) {
        assert(!run.vm_leases.empty());
        ledger_.close(run.vm_leases.back(), now);
        run.vm_leases.pop_back();
      }
      run.pool_size -= work.nodes;
    } else {
      // The job's lease was pre-closed at its planned end; shorten it to
      // the failure instant.
      ledger_.amend_end(work.lease, now);
    }
    provision_.release(now, consumer_, work.nodes);
    held_.change(now, -work.nodes);
    count -= std::min(count, work.nodes);
    killed.push_back(work);
  }
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kFault, "fault.fail", trace_actor_,
                     failing, static_cast<std::int64_t>(killed.size()));
  for (const ActiveWork& work : killed) kill_work(now, work);
  return static_cast<std::int64_t>(killed.size());
}

void DrpRunner::kill_work(SimTime now, const ActiveWork& work) {
  ++jobs_killed_;
  const std::int32_t retries = work.retries + 1;

  // Checkpoint accounting (same model as HtcServer::kill_job): salvage the
  // last whole checkpoint; the rest of this attempt's progress is waste.
  const SimDuration progress =
      work.completed_work + std::max<SimDuration>(0, now - work.exec_start);
  const SimDuration salvaged = fault::checkpointed_work(recovery_, progress);
  wasted_node_seconds_ += (progress - salvaged) * work.nodes;
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.kill", trace_actor_,
                     work.work_id, work.nodes);
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kCheckpoint,
                     "checkpoint.salvage", trace_actor_, salvaged, progress - salvaged);

  if (recovery_.max_retries >= 0 && retries > recovery_.max_retries) {
    // Budget exhausted. A failed task wedges its workflow (remaining never
    // hits zero) — the campaign is reported incomplete, like a real DAG
    // engine giving up on a node.
    wasted_node_seconds_ += salvaged * work.nodes;
    ++jobs_failed_;
    DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.fail", trace_actor_,
                       work.work_id, retries - 1);
    return;
  }

  // Retry on fresh VMs after the backoff: the new attempt pays the boot
  // latency again (job attempts always; task attempts when the surviving
  // pool has no idle VM).
  const SimDuration backoff = fault::retry_backoff_delay(recovery_, retries);
  PendingRetry retry;
  retry.is_task = work.is_task;
  retry.run_index = work.run_index;
  retry.task = work.task;
  retry.runtime = work.runtime;
  retry.nodes = work.nodes;
  retry.salvaged = salvaged;
  retry.retries = retries;
  if (backoff <= 0) {
    if (work.is_task) {
      start_task_attempt(work.run_index, work.task, salvaged, retries);
    } else {
      start_job_attempt(work.runtime, salvaged, work.nodes, retries);
    }
    return;
  }
  retry.event = simulator_.schedule_in(backoff, make_retry(retry));
  retry_events_.push_back(retry);
}

void DrpRunner::repair_nodes(std::int64_t /*count*/) {
  // Failed VMs are gone (their leases ended at the failure); retries lease
  // fresh VMs. There is nothing to hand back.
}

double DrpRunner::goodput_node_hours(SimTime horizon) const {
  double total = 0.0;
  for (const Completion& completion : completions_) {
    if (completion.finish <= horizon) {
      total += static_cast<double>(completion.node_seconds) / 3600.0;
    }
  }
  return total;
}

std::int64_t DrpRunner::completed_jobs(SimTime horizon) const {
  return static_cast<std::int64_t>(
      std::count_if(finish_times_.begin(), finish_times_.end(),
                    [horizon](SimTime t) { return t <= horizon; }));
}

SimDuration DrpRunner::makespan(SimTime horizon) const {
  if (first_submit_ == kNever) return 0;
  bool all_done = true;
  for (const WorkflowRun& run : runs_) {
    if (run.remaining != 0) all_done = false;
  }
  const SimTime end =
      all_done && last_finish_ != kNever ? last_finish_ : horizon;
  return end - first_submit_;
}

double DrpRunner::tasks_per_second(SimTime horizon) const {
  const SimDuration span = makespan(horizon);
  if (span <= 0) return 0.0;
  return static_cast<double>(completed_jobs(horizon)) /
         static_cast<double>(span);
}

template <class Io>
Status DrpRunner::persist(Io& io) {
  if (auto st = io.section("ledger", ledger_); !st.is_ok()) return st;
  if (auto st = io.section("held", held_); !st.is_ok()) return st;

  // A submitted workflow's DAG never changes: the DAGs are history, and
  // the rest of each run is live.
  const auto dag_rows = [&](Io& h, std::uint64_t first,
                            std::uint64_t end) -> Status {
    if constexpr (!Io::kSaving) runs_.resize(end);
    for (std::uint64_t i = first; i < end; ++i) {
      if (auto st = persist_dag(h, runs_[i].dag, name_); !st.is_ok()) {
        return st;
      }
    }
    return Status::ok();
  };
  std::uint64_t run_count = runs_.size();
  if constexpr (!Io::kSaving) runs_.clear();
  if (auto st = snapshot::table(io, "run_count", "workflows", run_count,
                                runs_.size(), dag_rows);
      !st.is_ok()) {
    return st;
  }
  for (WorkflowRun& run : runs_) {
    if (auto st = persist_task_counter(io, "pending_parents", name_,
                                       run.dag.size(), run.pending_parents);
        !st.is_ok()) {
      return st;
    }
    if (auto st = io.i64("remaining", run.remaining); !st.is_ok()) return st;
    if (auto st = io.i64("pool_size", run.pool_size); !st.is_ok()) return st;
    if (auto st = io.i64("idle_vms", run.idle_vms); !st.is_ok()) return st;
    const auto each_vm = [&](cluster::LeaseId& lease) -> Status {
      return io.u64("vm_lease", lease);
    };
    if (auto st = snapshot::list(io, "vm_lease_count", run.vm_leases, each_vm);
        !st.is_ok()) {
      return st;
    }
    if (auto st = io.i64("submitted_at", run.submitted); !st.is_ok()) {
      return st;
    }
  }

  const auto each_active = [&](ActiveWork& work) -> Status {
    if (auto st = io.i64("work_id", work.work_id); !st.is_ok()) return st;
    if (auto st = io.boolean("is_task", work.is_task); !st.is_ok()) return st;
    if (auto st = io.i64("work_nodes", work.nodes); !st.is_ok()) return st;
    if (auto st = io.i64("work_runtime", work.runtime); !st.is_ok()) return st;
    if (auto st = io.i64("work_completed", work.completed_work); !st.is_ok()) {
      return st;
    }
    if (auto st = io.i64("exec_start", work.exec_start); !st.is_ok()) return st;
    if (auto st = persist_event(
            io, simulator_, {"completion_time", "completion_seq"},
            work.completion,
            [&] { return make_completion(work.work_id, work.is_task); });
        !st.is_ok()) {
      return st;
    }
    if (auto st = io.u64("work_lease", work.lease); !st.is_ok()) return st;
    if (auto st = io.u64("work_run", work.run_index); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (work.is_task && work.run_index >= runs_.size()) {
        return Status::invalid_argument(name_ + ": active task on run " +
                                        std::to_string(work.run_index) +
                                        " out of range");
      }
    }
    if (auto st = io.i64("work_task", work.task); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      const std::size_t tasks =
          work.is_task ? runs_[work.run_index].dag.size() : 0;
      if (work.is_task &&
          (work.task < 0 || static_cast<std::uint64_t>(work.task) >= tasks)) {
        return Status::invalid_argument(
            name_ + ": active task " + std::to_string(work.task) +
            " beyond run " + std::to_string(work.run_index) + "'s " +
            std::to_string(tasks) + " tasks");
      }
    }
    return io.i64("work_retries", work.retries);
  };
  if (auto st = snapshot::list(io, "active_count", active_, each_active);
      !st.is_ok()) {
    return st;
  }

  if (auto st = io.i64("next_work_id", next_work_id_); !st.is_ok()) return st;
  if (auto st = io.i64("submitted", submitted_); !st.is_ok()) return st;
  const auto each_finish = [&](SimTime& finish) -> Status {
    return io.i64("finish_time", finish);
  };
  if (auto st = snapshot::list(io, "finish_count", finish_times_, each_finish);
      !st.is_ok()) {
    return st;
  }
  const auto each_completion = [&](Completion& completion) -> Status {
    if (auto st = io.i64("comp_finish", completion.finish); !st.is_ok()) {
      return st;
    }
    return io.i64("comp_node_seconds", completion.node_seconds);
  };
  if (auto st = snapshot::list(io, "completion_count", completions_,
                               each_completion);
      !st.is_ok()) {
    return st;
  }
  const std::pair<const char*, std::int64_t*> counters[] = {
      {"first_submit", &first_submit_},
      {"last_finish", &last_finish_},
      {"peak_pool", &peak_pool_},
      {"jobs_killed", &jobs_killed_},
      {"jobs_failed", &jobs_failed_},
      {"wasted_node_seconds", &wasted_node_seconds_}};
  for (const auto& [name, counter] : counters) {
    if (auto st = io.i64(name, *counter); !st.is_ok()) return st;
  }

  const auto each_retry = [&](PendingRetry& retry) -> Status {
    if (auto st = io.boolean("retry_is_task", retry.is_task); !st.is_ok()) {
      return st;
    }
    if (auto st = io.u64("retry_run", retry.run_index); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (retry.is_task && retry.run_index >= runs_.size()) {
        return Status::invalid_argument(name_ + ": pending retry on run " +
                                        std::to_string(retry.run_index) +
                                        " out of range");
      }
    }
    const std::pair<const char*, std::int64_t*> fields[] = {
        {"retry_task", &retry.task},
        {"retry_runtime", &retry.runtime},
        {"retry_nodes", &retry.nodes},
        {"retry_salvaged", &retry.salvaged}};
    for (const auto& [name, field] : fields) {
      if (auto st = io.i64(name, *field); !st.is_ok()) return st;
    }
    if (auto st = io.i64("retry_retries", retry.retries); !st.is_ok()) {
      return st;
    }
    return persist_event(io, simulator_, {"retry_time", "retry_seq"},
                         retry.event, [&] { return make_retry(retry); });
  };
  return persist_registry(io, simulator_, "retry_count", retry_events_,
                          each_retry);
}

Status DrpRunner::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<DrpRunner&>(*this).persist(writer);
}

Status DrpRunner::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

}  // namespace dc::core
