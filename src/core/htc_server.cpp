#include "core/htc_server.hpp"

#include <algorithm>
#include <cassert>

#include "core/snapshot_walk.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dc::core {

HtcServer::HtcServer(sim::Simulator& simulator,
                     ResourceProvisionService& provision, Config config)
    : simulator_(simulator),
      provision_(provision),
      config_(std::move(config)),
      trace_actor_(config_.name) {
  assert(config_.scheduler != nullptr && "server needs a scheduler");
  assert((config_.policy.has_value() || config_.fixed_nodes > 0) &&
         "fixed-mode server needs a positive size");
  consumer_ = provision_.register_consumer(
      config_.name, config_.policy ? config_.policy->max_nodes : 0,
      config_.priority);
}

bool HtcServer::start() {
  assert(!started_ && "server already started");
  const SimTime now = simulator_.now();
  const std::int64_t initial = config_.policy
                                   ? config_.policy->initial_nodes
                                   : config_.fixed_nodes;
  if (!provision_.request(now, consumer_, initial)) {
    Log::at(LogLevel::kWarn, now, config_.name.c_str(),
            "startup request for %lld nodes rejected",
            static_cast<long long>(initial));
    return false;
  }
  held_.change(now, initial);
  initial_lease_ = ledger_.open(now, initial, "initial");
  started_ = true;
  owned_ = initial;
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kLease, "lease.open",
                     trace_actor_, initial, owned_);
  if (config_.setup_latency > 0) {
    in_setup_ += initial;
    setup_events_.push_back(
        {simulator_.schedule_in(config_.setup_latency, make_setup_done(initial)),
         initial});
  }

  if (config_.policy) {
    scan_timer_ = simulator_.start_periodic(
        now + config_.policy->scan_interval, config_.policy->scan_interval,
        make_scan());
  }
  Log::at(LogLevel::kInfo, now, config_.name.c_str(),
          "started with %lld %s nodes", static_cast<long long>(initial),
          config_.policy ? "initial" : "fixed");
  return true;
}

void HtcServer::shutdown() {
  if (!started_ || shutdown_) return;
  // Mark first: releases below may fire waiting-grant callbacks for this
  // server, which must take their shutdown branch instead of re-growing
  // the holding mid-teardown.
  shutdown_ = true;
  const SimTime now = simulator_.now();
  if (down_ > 0) {
    // Broken hardware goes back with everything else; the down series ends
    // here so availability integrates only over the holding's lifetime.
    down_usage_.change(now, -down_);
    down_ = 0;
  }
  if (scan_timer_ != sim::kInvalidTimer) {
    simulator_.stop_timer(scan_timer_);
    scan_timer_ = sim::kInvalidTimer;
  }
  for (Grant& grant : grants_) {
    if (!grant.active) continue;
    if (grant.timer != sim::kInvalidTimer) simulator_.stop_timer(grant.timer);
    grant.active = false;
    ledger_.close(grant.lease, now);
    owned_ -= grant.nodes;
    held_.change(now, -grant.nodes);
    DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kLease, "lease.close",
                       trace_actor_, grant.nodes, owned_);
    provision_.release(now, consumer_, grant.nodes);
  }
  if (initial_lease_) {
    ledger_.close(*initial_lease_, now);
    held_.change(now, -owned_);
    const std::int64_t initial = owned_;
    owned_ = 0;
    initial_lease_.reset();
    DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kLease, "lease.close",
                       trace_actor_, initial, owned_);
    provision_.release(now, consumer_, initial);
  }
  Log::at(LogLevel::kInfo, now, config_.name.c_str(), "shut down");
}

sched::JobId HtcServer::submit(SimDuration runtime, std::int64_t nodes,
                               std::int64_t task_id) {
  if (!started_ || shutdown_) {
    // No runtime environment to serve the job (startup was rejected by the
    // provision service, or the TRE was already destroyed): the submission
    // is dropped, as a real portal would refuse it.
    ++dropped_jobs_;
    return -1;
  }
  assert(runtime >= 1 && nodes >= 1);
  const SimTime now = simulator_.now();
  const auto id = static_cast<sched::JobId>(jobs_.size());
  sched::Job job;
  job.id = id;
  job.submit = now;
  job.runtime = runtime;
  job.nodes = nodes;
  job.task_id = task_id;
  job.state = sched::JobState::kQueued;
  jobs_.push_back(job);
  completion_events_.push_back(sim::kInvalidEvent);  // stays parallel to jobs_
  queue_.push(id);
  if (first_submit_ == kNever) first_submit_ = now;
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.submit",
                     trace_actor_, id, nodes);
  dispatch();
  return id;
}

void HtcServer::dispatch() {
  // Every job is at least one node wide and a scheduler may only pick jobs
  // that fit, so with no usable idle node nothing can start.
  if (queue_.empty() || dispatchable_idle() <= 0) return;
  queued_view_.clear();
  for (sched::JobId id : queue_.items()) {
    queued_view_.push_back(&jobs_[static_cast<std::size_t>(id)]);
  }
  running_view_.clear();
  for (sched::JobId id : running_) {
    running_view_.push_back(&jobs_[static_cast<std::size_t>(id)]);
  }
  const SimTime now = simulator_.now();
  const std::vector<std::size_t> picks = config_.scheduler->select(
      queued_view_, running_view_, dispatchable_idle(), now);
  if (picks.empty()) return;

  std::int64_t started_nodes = 0;
  for (std::size_t pos : picks) {
    sched::Job& job = jobs_[static_cast<std::size_t>(queue_.items()[pos])];
    assert(job.state == sched::JobState::kQueued);
    job.state = sched::JobState::kRunning;
    job.start = now;
    started_nodes += job.nodes;
    running_.push_back(job.id);
    // The queue wait becomes a visible span once its length is known.
    DC_TRACE_SPAN_C(trace_, job.submit, now - job.submit,
                    obs::TraceCategory::kJob, "job.wait", trace_actor_, job.id,
                    job.nodes);
    DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.start",
                       trace_actor_, job.id, job.nodes);
    // Checkpointed retries only re-run the unfinished remainder.
    completion_events_[static_cast<std::size_t>(job.id)] = simulator_.schedule_in(
        job.runtime - job.completed_work, make_completion(job.id));
  }
  assert(started_nodes <= dispatchable_idle() &&
         "scheduler oversubscribed idle nodes");
  busy_ += started_nodes;
  // A pick that left some earlier-queued job behind jumped the FIFO order:
  // the picks (ascending, per the Scheduler contract) form a 0,1,2,...
  // prefix until the first skipped job, and everything after that gap is a
  // backfill hit.
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (picks[i] != i) ++backfill_hits_;
  }
  queue_.remove_positions(picks);
}

void HtcServer::on_job_complete(sched::JobId id) {
  sched::Job& job = jobs_[static_cast<std::size_t>(id)];
  assert(job.state == sched::JobState::kRunning);
  const SimTime now = simulator_.now();
  job.state = sched::JobState::kCompleted;
  job.finish = now;
  busy_ -= job.nodes;
  ++completed_;
  last_finish_ = now;
  running_.erase(std::find(running_.begin(), running_.end(), id));
  completion_events_[static_cast<std::size_t>(id)] = sim::kInvalidEvent;
  DC_TRACE_SPAN_C(trace_, job.start, now - job.start, obs::TraceCategory::kJob,
                  "job.run", trace_actor_, job.id, job.nodes);
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.complete",
                     trace_actor_, job.id, job.nodes);

  // Workflow layer first: completing a task may release dependents into the
  // queue, which the dispatch below can start in the same event.
  if (completion_callback_) completion_callback_(job);
  dispatch();
}

std::int64_t HtcServer::queued_demand() const {
  std::int64_t demand = 0;
  for (sched::JobId id : queue_.items()) {
    demand += jobs_[static_cast<std::size_t>(id)].nodes;
  }
  return demand;
}

std::int64_t HtcServer::biggest_queued() const {
  std::int64_t biggest = 0;
  for (sched::JobId id : queue_.items()) {
    biggest = std::max(biggest, jobs_[static_cast<std::size_t>(id)].nodes);
  }
  return biggest;
}

void HtcServer::scan(SimTime now) {
  assert(config_.policy.has_value());
  if (shutdown_ || queue_.empty() || waiting_grant_) return;
  const ResourceManagementPolicy& policy = *config_.policy;
  const std::int64_t demand = policy_demand();
  const double ratio = owned_ > 0
                           ? static_cast<double>(demand) /
                                 static_cast<double>(owned_)
                           : std::numeric_limits<double>::infinity();

  // Requests are clamped to the provider's subscription (max_nodes).
  const std::int64_t headroom =
      policy.max_nodes > 0 ? policy.max_nodes - owned_
                           : std::numeric_limits<std::int64_t>::max();
  if (headroom <= 0) return;

  if (ratio > policy.threshold_ratio) {
    // Rule (2): many jobs would queue unless the server requests more.
    const std::int64_t dr1 = std::min(demand - owned_, headroom);
    if (dr1 > 0) acquire_dynamic(dr1, "DR1");
  } else {
    // Rule (3): the biggest queued job cannot fit the current holding.
    const std::int64_t biggest = biggest_queued();
    if (biggest > owned_) {
      const std::int64_t dr2 = std::min(biggest - owned_, headroom);
      acquire_dynamic(dr2, "DR2");
    }
  }
}

std::function<void(SimTime)> HtcServer::make_waiting_grant(std::int64_t amount,
                                                           std::string tag) {
  // Under the provider's queue-by-priority contention mode the grant may
  // arrive later; the waiting flag keeps the scan from piling up further
  // requests meanwhile.
  return [this, amount, tag = std::move(tag)](SimTime at) {
    waiting_grant_ = false;
    if (shutdown_) {
      // TRE destroyed while waiting: hand the nodes straight back.
      provision_.release(at, consumer_, amount);
      return;
    }
    apply_grant(at, amount, tag.c_str());
  };
}

sim::Simulator::Callback HtcServer::make_grant_timeout(std::uint64_t epoch,
                                                       std::int64_t amount) {
  return [this, epoch, amount] {
    if (!waiting_grant_ || epoch != waiting_epoch_ || shutdown_) {
      return;  // granted meanwhile, or a newer wait took over
    }
    if (provision_.cancel_waiting(consumer_) == 0) return;
    waiting_grant_ = false;
    ++grant_timeouts_;
    DC_TRACE_INSTANT_C(trace_, simulator_.now(), obs::TraceCategory::kProvision,
                       "provision.timeout", trace_actor_, amount,
                       grant_timeouts_);
    acquire_dynamic(amount, "RT");
  };
}

bool HtcServer::acquire_dynamic(std::int64_t amount, const char* tag) {
  assert(amount > 0);
  const SimTime now = simulator_.now();
  DC_TRACE_INSTANT(trace_, now, obs::TraceCategory::kResize,
                   std::string("resize.") + tag, config_.name, amount, owned_);
  const std::size_t waiting_before = provision_.waiting_requests();
  if (!provision_.request_or_wait(now, consumer_, amount,
                                  make_waiting_grant(amount, tag))) {
    if (provision_.waiting_requests() > waiting_before) {
      waiting_grant_ = true;
      waiting_amount_ = amount;
      waiting_tag_ = tag;
      if (config_.recovery.grant_timeout > 0) {
        // Starvation deadline: if the provider has not granted by then,
        // withdraw the request and issue a fresh one (tag RT), resetting
        // the queue position instead of waiting forever behind a
        // higher-priority competitor.
        const std::uint64_t epoch = ++waiting_epoch_;
        timeout_events_.push_back(
            {simulator_.schedule_in(config_.recovery.grant_timeout,
                                    make_grant_timeout(epoch, amount)),
             epoch, amount});
      }
    } else {
      ++rejected_grants_;
      Log::at(LogLevel::kDebug, now, config_.name.c_str(),
              "%s request for %lld nodes rejected", tag,
              static_cast<long long>(amount));
    }
    return false;
  }
  apply_grant(now, amount, tag);
  return true;
}

sim::Simulator::Callback HtcServer::make_setup_done(std::int64_t amount) {
  return [this, amount] {
    in_setup_ -= amount;
    if (!shutdown_) dispatch();
  };
}

sim::Simulator::Callback HtcServer::make_completion(sched::JobId id) {
  return [this, id] { on_job_complete(id); };
}

sim::Simulator::TimerCallback HtcServer::make_scan() {
  return [this](SimTime at) { scan(at); };
}

void HtcServer::apply_grant(SimTime now, std::int64_t amount, const char* tag) {
  owned_ += amount;
  if (config_.setup_latency > 0) {
    // Billing and holding begin at the grant; the scheduler can only use
    // the nodes once the setup policy's work completes.
    in_setup_ += amount;
    setup_events_.push_back(
        {simulator_.schedule_in(config_.setup_latency, make_setup_done(amount)),
         amount});
  }
  held_.change(now, amount);
  ++dynamic_grants_;
  const cluster::LeaseId lease = ledger_.open(
      now, amount, str_format("%s#%lld", tag,
                              static_cast<long long>(dynamic_grants_)));
  grants_.push_back(Grant{amount, lease, sim::kInvalidTimer, true});
  const std::size_t grant_index = grants_.size() - 1;
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kLease, "lease.open",
                     trace_actor_, amount, owned_);

  // "After obtaining enough resources ... the server registers a timer,
  // once per hour, to check idle resources. If there are idle resources
  // with the size equal with or more than the value of DR, the server will
  // release the resources with the size of the DR."
  const SimDuration interval = config_.policy->idle_check_interval;
  grants_[grant_index].timer = simulator_.start_periodic(
      now + interval, interval, make_idle_check(grant_index));

  Log::at(LogLevel::kDebug, now, config_.name.c_str(),
          "%s granted %lld nodes (owned now %lld)", tag,
          static_cast<long long>(amount), static_cast<long long>(owned_));
  dispatch();
}

sim::Simulator::TimerCallback HtcServer::make_idle_check(
    std::size_t grant_index) {
  return [this, grant_index](SimTime at) {
    Grant& grant = grants_[grant_index];
    if (!grant.active) return;
    if (idle() >= grant.nodes) {
      // Copy out and settle local state before telling the provision
      // service: under queue-by-priority contention the release can
      // re-enter apply_grant (another grant for this very server),
      // which reallocates grants_ and would dangle `grant`.
      const std::int64_t nodes = grant.nodes;
      const cluster::LeaseId grant_lease = grant.lease;
      const sim::TimerId timer = grant.timer;
      grant.active = false;
      grant.timer = sim::kInvalidTimer;
      ledger_.close(grant_lease, at);
      owned_ -= nodes;
      held_.change(at, -nodes);
      DC_TRACE_INSTANT_C(trace_, at, obs::TraceCategory::kLease, "lease.close",
                         trace_actor_, nodes, owned_);
      simulator_.stop_timer(timer);
      provision_.release(at, consumer_, nodes);
    }
  };
}

std::int64_t HtcServer::fail_nodes(std::int64_t count) {
  assert(count >= 0);
  if (!started_ || shutdown_ || count == 0) return 0;
  const SimTime now = simulator_.now();
  count = std::min(count, owned_ - down_);
  if (count <= 0) return 0;

  // Idle nodes absorb failures first; then the most recently started jobs
  // die until busy work fits the remaining healthy nodes.
  std::int64_t to_kill = std::max<std::int64_t>(0, count - idle());
  down_ += count;
  down_usage_.change(now, count);
  std::int64_t killed = 0;
  while (to_kill > 0 && !running_.empty()) {
    const sched::JobId id = running_.back();
    running_.pop_back();
    to_kill -= std::min(to_kill, jobs_[static_cast<std::size_t>(id)].nodes);
    kill_job(now, id);
    ++killed;
  }
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kFault, "fault.fail",
                     trace_actor_, count, killed);
  Log::at(LogLevel::kInfo, now, config_.name.c_str(),
          "%lld nodes failed (%lld down), %lld jobs killed",
          static_cast<long long>(count), static_cast<long long>(down_),
          static_cast<long long>(killed));
  // A wide victim may have freed more healthy nodes than failed; queued
  // jobs can take them immediately.
  dispatch();
  return killed;
}

void HtcServer::kill_job(SimTime now, sched::JobId id) {
  sched::Job& job = jobs_[static_cast<std::size_t>(id)];
  assert(job.state == sched::JobState::kRunning);
  simulator_.cancel(completion_events_[static_cast<std::size_t>(id)]);
  completion_events_[static_cast<std::size_t>(id)] = sim::kInvalidEvent;
  busy_ -= job.nodes;
  ++job_retries_;
  ++job.retries;

  // Checkpoint accounting: salvage the last whole checkpoint of this
  // attempt's progress; everything past it is re-run work, charged as
  // waste. Without checkpoints the full progress is wasted.
  const SimDuration progress = job.completed_work + (now - job.start);
  const SimDuration salvaged =
      fault::checkpointed_work(config_.recovery, progress);
  wasted_node_seconds_ += (progress - salvaged) * job.nodes;
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.kill",
                     trace_actor_, id, job.nodes);
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kCheckpoint,
                     "checkpoint.salvage", trace_actor_, salvaged,
                     progress - salvaged);
  job.completed_work = salvaged;
  job.start = kNever;

  const fault::FaultRecoveryPolicy& recovery = config_.recovery;
  if (recovery.max_retries >= 0 && job.retries > recovery.max_retries) {
    // Retry budget exhausted: the job is failed, not silently re-queued.
    // Its salvaged checkpoints are waste too — nobody will resume it.
    job.state = sched::JobState::kFailed;
    job.finish = now;
    wasted_node_seconds_ += salvaged * job.nodes;
    ++jobs_failed_;
    DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kJob, "job.fail",
                       trace_actor_, id, job.retries - 1);
    Log::at(LogLevel::kWarn, now, config_.name.c_str(),
            "job %lld failed after %d retries", static_cast<long long>(id),
            job.retries - 1);
    return;
  }
  const SimDuration backoff =
      fault::retry_backoff_delay(recovery, job.retries);
  if (backoff <= 0) {
    job.state = sched::JobState::kQueued;
    queue_.push(id);
    return;
  }
  job.state = sched::JobState::kPending;
  ++pending_retries_;
  retry_events_.push_back(
      {simulator_.schedule_in(backoff, make_retry_release(id)), id});
}

sim::Simulator::Callback HtcServer::make_retry_release(sched::JobId id) {
  return [this, id] {
    --pending_retries_;
    if (shutdown_) return;
    sched::Job& job = jobs_[static_cast<std::size_t>(id)];
    assert(job.state == sched::JobState::kPending);
    job.state = sched::JobState::kQueued;
    queue_.push(id);
    DC_TRACE_INSTANT_C(trace_, simulator_.now(), obs::TraceCategory::kFault,
                       "fault.retry", trace_actor_, id, job.retries);
    dispatch();
  };
}

void HtcServer::repair_nodes(std::int64_t count) {
  if (count <= 0 || down_ <= 0) return;
  const SimTime now = simulator_.now();
  count = std::min(count, down_);
  down_ -= count;
  down_usage_.change(now, -count);
  if (shutdown_) return;
  // The replacement hardware gets the RE packages reinstalled: the swap is
  // metered as a reclaim plus a re-grant (Section 4.5.4 accounting) while
  // the holding itself never leaves the consumer (a release/re-request
  // round-trip could lose the capacity to a waiting competitor under
  // queue-by-priority contention).
  provision_.record_hardware_swap(now, consumer_, count);
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kFault, "fault.repair",
                     trace_actor_, count, down_);
  Log::at(LogLevel::kInfo, now, config_.name.c_str(),
          "%lld nodes repaired (%lld still down)", static_cast<long long>(count),
          static_cast<long long>(down_));
  dispatch();
}

double HtcServer::goodput_node_hours(SimTime horizon) const {
  double total = 0.0;
  for (const sched::Job& job : jobs_) {
    if (job.state == sched::JobState::kCompleted && job.finish <= horizon) {
      total += static_cast<double>(job.nodes) *
               static_cast<double>(job.runtime) / 3600.0;
    }
  }
  return total;
}

double HtcServer::availability(SimTime horizon) const {
  const double held = held_.node_hours(horizon);
  if (held <= 0.0) return 1.0;
  return 1.0 - down_usage_.node_hours(horizon) / held;
}

std::int64_t HtcServer::completed_jobs(SimTime horizon) const {
  std::int64_t count = 0;
  for (const sched::Job& job : jobs_) {
    if (job.state == sched::JobState::kCompleted && job.finish <= horizon) {
      ++count;
    }
  }
  return count;
}

template <class Io>
Status HtcServer::persist(Io& io) {
  if (auto st = io.boolean("started", started_); !st.is_ok()) return st;
  if (auto st = io.boolean("shutdown", shutdown_); !st.is_ok()) return st;
  if (auto st = io.i64("owned", owned_); !st.is_ok()) return st;
  if (auto st = io.i64("busy", busy_); !st.is_ok()) return st;
  if (auto st = io.i64("in_setup", in_setup_); !st.is_ok()) return st;
  if (auto st = io.i64("down", down_); !st.is_ok()) return st;

  // The job table: one packed column per field. Its rows up to the first
  // job still in flight (completed or failed jobs never change again) are
  // history; the rest are live.
  const auto job_rows = [&](Io& h, std::uint64_t first,
                            std::uint64_t end) -> Status {
    typename Io::Column submit, runtime, nodes, task_id, state, start, finish,
        retries, completed_work;
    if constexpr (Io::kSaving) {
      for (std::uint64_t i = first; i < end; ++i) {
        const sched::Job& job = jobs_[i];
        submit.push(job.submit);
        runtime.push(job.runtime);
        nodes.push(job.nodes);
        task_id.push(job.task_id);
        state.push(static_cast<std::int64_t>(job.state));
        start.push(job.start);
        finish.push(job.finish);
        retries.push(job.retries);
        completed_work.push(job.completed_work);
      }
    }
    const std::pair<const char*, typename Io::Column*> columns[] = {
        {"submit", &submit},   {"runtime", &runtime},
        {"nodes", &nodes},     {"task_id", &task_id},
        {"state", &state},     {"start", &start},
        {"finish", &finish},   {"retries", &retries},
        {"completed_work", &completed_work}};
    for (const auto& [name, column] : columns) {
      if (auto st = h.column(name, end - first, *column); !st.is_ok()) {
        return st;
      }
    }
    if constexpr (!Io::kSaving) {
      for (std::size_t i = 0; i < end - first; ++i) {
        if (state[i] < 0 ||
            state[i] > static_cast<std::int64_t>(sched::JobState::kFailed)) {
          return Status::invalid_argument(
              config_.name + ": bad job state " + std::to_string(state[i]) +
              " (" + h.context() + ")");
        }
        sched::Job job;
        job.id = static_cast<sched::JobId>(jobs_.size());
        job.submit = submit[i];
        job.runtime = runtime[i];
        job.nodes = nodes[i];
        job.task_id = task_id[i];
        job.state = static_cast<sched::JobState>(state[i]);
        job.start = start[i];
        job.finish = finish[i];
        job.retries = static_cast<std::int32_t>(retries[i]);
        job.completed_work = completed_work[i];
        jobs_.push_back(job);
      }
    }
    return Status::ok();
  };
  std::uint64_t job_count = jobs_.size();
  std::uint64_t final_jobs = 0;
  if constexpr (Io::kSaving) {
    while (final_jobs < jobs_.size() &&
           (jobs_[final_jobs].state == sched::JobState::kCompleted ||
            jobs_[final_jobs].state == sched::JobState::kFailed)) {
      ++final_jobs;
    }
  } else {
    jobs_.clear();
  }
  if (auto st = snapshot::table(io, "job_count", "jobs", job_count, final_jobs,
                                job_rows);
      !st.is_ok()) {
    return st;
  }
  if constexpr (!Io::kSaving) {
    completion_events_.assign(jobs_.size(), sim::kInvalidEvent);
  }

  std::vector<sched::JobId> queued;
  if constexpr (Io::kSaving) queued = queue_.items();
  const auto each_queued = [&](sched::JobId& id) -> Status {
    if (auto st = io.i64("queued", id); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size() ||
          jobs_[static_cast<std::size_t>(id)].state !=
              sched::JobState::kQueued) {
        return Status::invalid_argument(config_.name + ": queued job " +
                                        std::to_string(id) +
                                        " is not a queued job");
      }
      queue_.push(id);
    }
    return Status::ok();
  };
  if constexpr (!Io::kSaving) queue_.clear();
  if (auto st = snapshot::list(io, "queue_count", queued, each_queued);
      !st.is_ok()) {
    return st;
  }

  // running_ order matters: fail_nodes kills from the back.
  const auto each_running = [&](sched::JobId& id) -> Status {
    if (auto st = io.i64("running", id); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) {
        return Status::invalid_argument(config_.name + ": running job " +
                                        std::to_string(id) + " out of range");
      }
    }
    return persist_event(io, simulator_, {"completion_time", "completion_seq"},
                         completion_events_[static_cast<std::size_t>(id)],
                         [&] { return make_completion(id); });
  };
  if (auto st = snapshot::list(io, "running_count", running_, each_running);
      !st.is_ok()) {
    return st;
  }

  if (auto st = io.section("ledger", ledger_); !st.is_ok()) return st;
  if (auto st = io.section("held", held_); !st.is_ok()) return st;
  bool has_initial = initial_lease_.has_value();
  std::uint64_t initial_lease = initial_lease_.value_or(0);
  if (auto st = io.boolean("has_initial_lease", has_initial); !st.is_ok()) {
    return st;
  }
  if (auto st = io.u64("initial_lease", initial_lease); !st.is_ok()) {
    return st;
  }
  if constexpr (!Io::kSaving) {
    if (has_initial && initial_lease >= ledger_.lease_count()) {
      return Status::invalid_argument(
          config_.name + ": initial lease " + std::to_string(initial_lease) +
          " beyond the ledger's " + std::to_string(ledger_.lease_count()) +
          " leases");
    }
    initial_lease_.reset();
    if (has_initial) initial_lease_ = initial_lease;
  }

  const auto each_grant = [&](Grant& grant) -> Status {
    if (auto st = io.i64("grant_nodes", grant.nodes); !st.is_ok()) return st;
    if (auto st = io.u64("grant_lease", grant.lease); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (grant.lease >= ledger_.lease_count()) {
        return Status::invalid_argument(
            config_.name + ": grant lease " + std::to_string(grant.lease) +
            " beyond the ledger's " + std::to_string(ledger_.lease_count()) +
            " leases");
      }
    }
    if (auto st = io.boolean("grant_active", grant.active); !st.is_ok()) {
      return st;
    }
    const auto index = static_cast<std::size_t>(&grant - grants_.data());
    return persist_timer(io, simulator_,
                         {"timer_pending", "next_fire", "timer_seq", "period"},
                         grant.timer, [&] { return make_idle_check(index); });
  };
  if (auto st = snapshot::list(io, "grant_count", grants_, each_grant);
      !st.is_ok()) {
    return st;
  }
  if (auto st = persist_timer(
          io, simulator_,
          {"scan_pending", "scan_next_fire", "scan_seq", "scan_period"},
          scan_timer_, [&] { return make_scan(); });
      !st.is_ok()) {
    return st;
  }

  const std::pair<const char*, std::int64_t*> counters[] = {
      {"completed", &completed_},
      {"first_submit", &first_submit_},
      {"last_finish", &last_finish_},
      {"dynamic_grants", &dynamic_grants_},
      {"rejected_grants", &rejected_grants_},
      {"dropped_jobs", &dropped_jobs_},
      {"job_retries", &job_retries_},
      {"jobs_failed", &jobs_failed_},
      {"grant_timeouts", &grant_timeouts_},
      {"backfill_hits", &backfill_hits_},
      {"pending_retries", &pending_retries_},
      {"wasted_node_seconds", &wasted_node_seconds_}};
  for (const auto& [name, counter] : counters) {
    if (auto st = io.i64(name, *counter); !st.is_ok()) return st;
  }
  if (auto st = io.section("down_usage", down_usage_); !st.is_ok()) return st;

  if (auto st = io.boolean("waiting_grant", waiting_grant_); !st.is_ok()) {
    return st;
  }
  if (auto st = io.u64("waiting_epoch", waiting_epoch_); !st.is_ok()) {
    return st;
  }
  if (auto st = io.i64("waiting_amount", waiting_amount_); !st.is_ok()) {
    return st;
  }
  if (auto st = io.str("waiting_tag", waiting_tag_); !st.is_ok()) return st;
  if constexpr (!Io::kSaving) {
    if (waiting_grant_ &&
        !provision_.reattach_waiting(
            consumer_, make_waiting_grant(waiting_amount_, waiting_tag_))) {
      return Status::failed_precondition(
          config_.name +
          ": snapshot says a dynamic request is waiting but the restored "
          "provision service has no waiting entry for this consumer");
    }
  }

  const auto each_setup = [&](SetupEvent& setup) -> Status {
    if (auto st = io.i64("setup_amount", setup.amount); !st.is_ok()) return st;
    return persist_event(io, simulator_, {"setup_time", "setup_seq"},
                         setup.event,
                         [&] { return make_setup_done(setup.amount); });
  };
  if (auto st = persist_registry(io, simulator_, "setup_count", setup_events_,
                                 each_setup);
      !st.is_ok()) {
    return st;
  }
  const auto each_timeout = [&](TimeoutEvent& timeout) -> Status {
    if (auto st = io.u64("timeout_epoch", timeout.epoch); !st.is_ok()) {
      return st;
    }
    if (auto st = io.i64("timeout_amount", timeout.amount); !st.is_ok()) {
      return st;
    }
    return persist_event(
        io, simulator_, {"timeout_time", "timeout_seq"}, timeout.event,
        [&] { return make_grant_timeout(timeout.epoch, timeout.amount); });
  };
  if (auto st = persist_registry(io, simulator_, "timeout_count",
                                 timeout_events_, each_timeout);
      !st.is_ok()) {
    return st;
  }
  const auto each_retry = [&](RetryEvent& retry) -> Status {
    if (auto st = io.i64("retry_job", retry.job); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (retry.job < 0 ||
          static_cast<std::size_t>(retry.job) >= jobs_.size()) {
        return Status::invalid_argument(config_.name +
                                        ": pending retry of job " +
                                        std::to_string(retry.job) +
                                        " out of range");
      }
    }
    return persist_event(io, simulator_, {"retry_time", "retry_seq"},
                         retry.event,
                         [&] { return make_retry_release(retry.job); });
  };
  return persist_registry(io, simulator_, "retry_count", retry_events_,
                          each_retry);
}

template Status HtcServer::persist(snapshot::SnapshotWriter&);
template Status HtcServer::persist(snapshot::SnapshotReader&);

Status HtcServer::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<HtcServer&>(*this).persist(writer);
}

Status HtcServer::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

}  // namespace dc::core
