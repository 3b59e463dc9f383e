// The HTC server: queue management, scheduling, and the Section 3.2.2.1
// elastic resource-management policy.
//
// This class is the workhorse of every queue-based system in the paper:
//  * With an elastic policy it is the DawningCloud HTC TRE's server: scan
//    the queue every minute, request DR1/DR2 dynamic resources from the
//    provision service, release them via per-grant hourly idle checks.
//  * Without a policy it is the SSP/DCS server: a fixed-size resource
//    holding with the same queue and scheduler.
//  * The MTC server (mtc_server.hpp) layers workflow dependency tracking on
//    top of this engine and shortens the scan interval to three seconds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cluster/billing.hpp"
#include "cluster/usage_recorder.hpp"
#include "core/fault/fault_target.hpp"
#include "core/fault/recovery.hpp"
#include "core/policies.hpp"
#include "core/provision_service.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/status.hpp"

namespace dc::core {

class HtcServer : public fault::FaultTarget {
 public:
  struct Config {
    std::string name = "htc";
    /// Resource size in fixed mode (SSP/DCS); ignored when `policy` is set.
    std::int64_t fixed_nodes = 0;
    /// Elastic mode: the DSP resource-management policy (B, R, intervals).
    std::optional<ResourceManagementPolicy> policy;
    /// Selection policy; non-owning, must outlive the server.
    const sched::Scheduler* scheduler = nullptr;
    /// Consumer priority at the provision service (higher is served first
    /// from the waiting queue under queue-by-priority contention).
    int priority = 0;
    /// Time between a grant and the nodes becoming usable (stopping /
    /// uninstalling the previous RE's packages, installing and starting
    /// this one's — the paper measures 15.743 s per node, done in
    /// parallel across the granted nodes). Billing starts at the grant;
    /// jobs can only be dispatched onto the nodes after setup. Zero by
    /// default (the paper's tables exclude setup from the hour-quantized
    /// results and report it separately in Figure 14).
    SimDuration setup_latency = 0;
    /// What the server does about work killed by node failures (retry
    /// budget, backoff, checkpoints, grant timeout). The defaults are the
    /// legacy semantics: unlimited immediate retries from scratch.
    fault::FaultRecoveryPolicy recovery;
  };

  HtcServer(sim::Simulator& simulator, ResourceProvisionService& provision,
            Config config);
  virtual ~HtcServer() = default;
  HtcServer(const HtcServer&) = delete;
  HtcServer& operator=(const HtcServer&) = delete;

  /// Starts the server at the current simulation time: acquires the initial
  /// (elastic) or fixed resources and, in elastic mode, starts the queue
  /// scan timer. Returns false if the provision service rejected the
  /// startup request.
  bool start();

  /// Stops timers, releases every held node back to the provision service
  /// and closes all open leases at the current time. Idempotent.
  void shutdown();

  /// Submits a job at the current simulation time. Returns its id, or -1
  /// if the server has no runtime environment (startup rejected or TRE
  /// destroyed), in which case the job is counted as dropped.
  sched::JobId submit(SimDuration runtime, std::int64_t nodes,
                      std::int64_t task_id = -1);

  /// Invoked after a job completes (before the drained check); the MTC
  /// layer uses this to release dependent tasks.
  void set_completion_callback(std::function<void(const sched::Job&)> cb) {
    completion_callback_ = std::move(cb);
  }

  // --- FaultTarget ---------------------------------------------------------
  // Failure lifecycle: fail_nodes takes capacity down (the holding and its
  // billing are unchanged — the provider is swapping hardware while the
  // consumer keeps paying), killing the most recently started jobs once the
  // idle nodes are used up; repair_nodes brings capacity back and meters
  // the transparent swap as node adjustments (reclaim + reinstall). Killed
  // jobs recover per Config::recovery: re-queued after their backoff with
  // checkpointed work salvaged, or reported kFailed once the retry budget
  // is spent.

  const std::string& fault_name() const override { return config_.name; }
  std::int64_t healthy_nodes() const override {
    return started_ && !shutdown_ ? owned_ - down_ : 0;
  }
  /// Injects a crash of `count` nodes at the current time. Idle nodes
  /// absorb failures first; then the most recently started jobs die (they
  /// occupy the "newest" nodes). Returns the number of jobs killed.
  std::int64_t fail_nodes(std::int64_t count) override;
  /// Brings `count` previously failed nodes back, metering the hardware
  /// swap at the provision service. Clamped to the current down count.
  void repair_nodes(std::int64_t count) override;

  /// Jobs killed by node failures (each kill is one retry attempt).
  std::int64_t job_retries() const { return job_retries_; }
  /// Jobs whose retry budget was exhausted — reported failed, not
  /// re-queued.
  std::int64_t jobs_failed() const { return jobs_failed_; }
  /// Waiting dynamic grants cancelled and re-requested after starving past
  /// the recovery policy's grant_timeout.
  std::int64_t grant_timeouts() const { return grant_timeouts_; }

  /// Jobs started ahead of an earlier-queued job left waiting (out-of-FIFO
  /// dispatch decisions by a backfilling scheduler).
  std::int64_t backfill_hits() const { return backfill_hits_; }
  /// Nodes currently failed and awaiting repair.
  std::int64_t down() const { return down_; }

  /// Invoked whenever the server becomes drained (empty queue, nothing
  /// running) after having run at least one job.
  void set_drained_callback(std::function<void(SimTime)> cb) {
    drained_callback_ = std::move(cb);
  }

  /// Borrows a per-run trace sink (may be null; see docs/OBSERVABILITY.md).
  /// Covers the MTC server too, which derives from this engine.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  // --- state queries -------------------------------------------------------
  bool started() const { return started_; }
  bool is_shutdown() const { return shutdown_; }
  bool elastic() const { return config_.policy.has_value(); }
  const std::string& name() const { return config_.name; }

  std::int64_t owned() const { return owned_; }
  std::int64_t busy() const { return busy_; }
  /// Healthy nodes not running anything (down nodes are not idle).
  std::int64_t idle() const {
    return std::max<std::int64_t>(0, owned_ - down_ - busy_);
  }
  /// Nodes currently undergoing setup (not yet dispatchable).
  std::int64_t in_setup() const { return in_setup_; }
  /// Idle nodes the scheduler may actually use right now.
  std::int64_t dispatchable_idle() const {
    return std::max<std::int64_t>(0, owned_ - down_ - in_setup_ - busy_);
  }
  std::size_t queue_length() const { return queue_.size(); }
  bool drained() const {
    return queue_.empty() && busy_ == 0 && pending_retries_ == 0;
  }

  /// Accumulated resource demand of queued jobs (the numerator of the
  /// "ratio of obtaining resources").
  std::int64_t queued_demand() const;
  /// Demand of the biggest queued job (the DR2 trigger).
  std::int64_t biggest_queued() const;

  // --- metrics -------------------------------------------------------------
  const std::vector<sched::Job>& jobs() const { return jobs_; }
  std::int64_t submitted_jobs() const {
    return static_cast<std::int64_t>(jobs_.size());
  }
  std::int64_t completed_jobs(
      SimTime horizon = std::numeric_limits<SimTime>::max()) const;
  SimTime first_submit() const { return first_submit_; }
  SimTime last_finish() const { return last_finish_; }

  const cluster::LeaseLedger& ledger() const { return ledger_; }
  const cluster::UsageRecorder& held_usage() const { return held_; }
  /// Step function of failed-and-unrepaired nodes over time.
  const cluster::UsageRecorder& down_usage() const { return down_usage_; }

  // --- availability metrics ------------------------------------------------
  /// Useful node*hours delivered: width x runtime of every job completed
  /// within the horizon (re-run work is excluded by construction).
  double goodput_node_hours(SimTime horizon) const;
  /// Node*hours of execution thrown away by kills (progress past the last
  /// checkpoint, plus salvaged work of jobs that ultimately failed).
  double wasted_node_hours() const {
    return static_cast<double>(wasted_node_seconds_) / 3600.0;
  }
  /// Fraction of held node*hours that were healthy over [0, horizon]:
  /// 1 - down / held. 1.0 for a server that never held anything.
  double availability(SimTime horizon) const;

  std::int64_t dynamic_grants() const { return dynamic_grants_; }
  std::int64_t rejected_grants() const { return rejected_grants_; }
  /// Jobs refused because the server had no runtime environment.
  std::int64_t dropped_jobs() const { return dropped_jobs_; }

  // --- snapshot ------------------------------------------------------------
  /// Serializes the full server state: holding, jobs, queue, leases, usage
  /// series, counters, and the (time, seq) of every pending event/timer the
  /// server owns. restore() runs on a freshly constructed server (start()
  /// never called — the provision service's own restore re-establishes the
  /// allocation) and re-arms every pending callback itself, including the
  /// waiting-grant continuation at the provision service.
  virtual Status save(snapshot::SnapshotWriter& writer) const;
  virtual Status restore(snapshot::SnapshotReader& reader);

 protected:
  /// The server's records, over a writer or a reader (docs/SNAPSHOT.md,
  /// "One walk per component"); the MTC server's walk extends it.
  template <class Io>
  Status persist(Io& io);

  sim::Simulator& simulator() { return simulator_; }
  obs::TraceSink* trace() { return trace_; }
  /// Pre-interned actor name for trace emission (== config().name).
  const obs::TraceName& trace_actor() const { return trace_actor_; }

  /// Demand signal driving the DR1 rule. For HTC this is the queued demand
  /// only ("the ratio of the accumulated resource demands of all jobs in
  /// the queue to the current resources owned", Section 3.2.2.1). The MTC
  /// server overrides it to count running workflow jobs as well (Section
  /// 3.2.2.2: "each job in queue that constitutes a workflow is
  /// calculated"), which is what makes the Montage TRE converge to exactly
  /// the 166-node steady state reported in Section 4.5.2.
  virtual std::int64_t policy_demand() const { return queued_demand(); }

 private:
  /// Runs the scheduler over the queue and starts the selected jobs.
  void dispatch();
  void on_job_complete(sched::JobId id);
  /// Kills a running job (node failure) and routes it through the recovery
  /// policy: re-queue after backoff with checkpointed work salvaged, or
  /// mark kFailed once the retry budget is spent.
  void kill_job(SimTime now, sched::JobId id);
  /// Periodic policy evaluation (Section 3.2.2.1 rules).
  void scan(SimTime now);

  // Callback factories: every scheduled callback is built here so that
  // restore() re-arms semantically identical closures (callbacks are never
  // serialized — see docs/SNAPSHOT.md).
  sim::Simulator::Callback make_setup_done(std::int64_t amount);
  sim::Simulator::Callback make_completion(sched::JobId id);
  sim::Simulator::Callback make_grant_timeout(std::uint64_t epoch,
                                              std::int64_t amount);
  sim::Simulator::Callback make_retry_release(sched::JobId id);
  sim::Simulator::TimerCallback make_scan();
  sim::Simulator::TimerCallback make_idle_check(std::size_t grant_index);
  std::function<void(SimTime)> make_waiting_grant(std::int64_t amount,
                                                  std::string tag);
  /// Requests `amount` dynamic nodes; on success opens a lease and arms the
  /// per-grant hourly idle-release timer. Under the provider's
  /// queue-by-priority contention mode an unsatisfied request waits and
  /// the grant is applied when the callback fires.
  bool acquire_dynamic(std::int64_t amount, const char* tag);
  /// Bookkeeping for a successful dynamic grant.
  void apply_grant(SimTime now, std::int64_t amount, const char* tag);

  sim::Simulator& simulator_;
  ResourceProvisionService& provision_;
  Config config_;
  obs::TraceName trace_actor_;  // dc-volatile: cached intern of config_.name
  ResourceProvisionService::ConsumerId consumer_ = 0;
  obs::TraceSink* trace_ = nullptr;  // dc-volatile: borrowed, may be null

  bool started_ = false;
  bool shutdown_ = false;
  std::int64_t owned_ = 0;
  std::int64_t busy_ = 0;
  std::int64_t in_setup_ = 0;
  /// Failed nodes awaiting repair; always <= owned_, and busy_ never
  /// exceeds owned_ - down_ (fail_nodes kills jobs to restore it).
  std::int64_t down_ = 0;

  std::vector<sched::Job> jobs_;  // indexed by JobId
  sched::JobQueue queue_;
  std::vector<sched::JobId> running_;
  // Scheduler views of queue_ and running_, rebuilt by every dispatch;
  // members only so their buffers are reused.
  std::vector<const sched::Job*> queued_view_;   // dc-volatile: rebuilt per dispatch
  std::vector<const sched::Job*> running_view_;  // dc-volatile: rebuilt per dispatch
  /// Pending completion event per job, indexed by JobId (dense, like
  /// jobs_); kInvalidEvent when the job is not running. Replaces an
  /// unordered_map: JobIds are already dense indices, and keeping hash
  /// tables out of the servers removes an iteration-order hazard class
  /// outright (dc-lint rule dc-r2).
  std::vector<sim::EventId> completion_events_;

  cluster::LeaseLedger ledger_;
  cluster::UsageRecorder held_;
  std::optional<cluster::LeaseId> initial_lease_;

  struct Grant {
    std::int64_t nodes;
    cluster::LeaseId lease;
    sim::TimerId timer = sim::kInvalidTimer;
    bool active = true;
  };
  std::vector<Grant> grants_;

  sim::TimerId scan_timer_ = sim::kInvalidTimer;
  std::int64_t completed_ = 0;
  SimTime first_submit_ = kNever;
  SimTime last_finish_ = kNever;
  std::int64_t dynamic_grants_ = 0;
  std::int64_t rejected_grants_ = 0;
  std::int64_t dropped_jobs_ = 0;
  std::int64_t job_retries_ = 0;
  std::int64_t jobs_failed_ = 0;
  std::int64_t grant_timeouts_ = 0;
  std::int64_t backfill_hits_ = 0;
  /// Killed jobs waiting out their retry backoff (kPending, not queued);
  /// keeps drained() honest while a retry is pending.
  std::int64_t pending_retries_ = 0;
  std::int64_t wasted_node_seconds_ = 0;
  cluster::UsageRecorder down_usage_;
  /// A dynamic request is waiting in the provider's priority queue; the
  /// scan must not pile up more requests meanwhile.
  bool waiting_grant_ = false;
  /// Distinguishes the current wait from stale grant-timeout events.
  std::uint64_t waiting_epoch_ = 0;
  /// Parameters of the current wait (meaningful while waiting_grant_),
  /// saved so restore() can re-attach the continuation at the provision
  /// service via reattach_waiting.
  std::int64_t waiting_amount_ = 0;
  std::string waiting_tag_;

  // Append-only registries of one-shot events the server has scheduled;
  // already-fired entries are O(1) stale (generation-tagged handles) and
  // are filtered through pending_event_info at save time.
  struct SetupEvent {
    sim::EventId event;
    std::int64_t amount;
  };
  std::vector<SetupEvent> setup_events_;
  struct TimeoutEvent {
    sim::EventId event;
    std::uint64_t epoch;
    std::int64_t amount;
  };
  std::vector<TimeoutEvent> timeout_events_;
  struct RetryEvent {
    sim::EventId event;
    sched::JobId job;
  };
  std::vector<RetryEvent> retry_events_;

  std::function<void(const sched::Job&)> completion_callback_;  // dc-volatile: rewired by the owner
  std::function<void(SimTime)> drained_callback_;             // dc-volatile: rewired by the owner
};

}  // namespace dc::core
