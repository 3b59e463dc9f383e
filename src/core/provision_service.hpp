// The common service framework's resource provision service.
//
// "The resource provision service is responsible for providing resources to
// different TREs" (Section 3.1.2) under the Section 3.2.2.3 policy: grant
// fully or reject; passively reclaim everything a server releases. The
// resource provision policy "determines when the resource provision service
// provisions how many resources to different TREs in what priority"
// (Section 3.2.1) — realized here as a per-consumer subscription cap: a TRE
// may hold at most its subscribed maximum, and requests that would exceed
// it are rejected outright. This is what keeps DawningCloud's platform peak
// near the fixed systems' capacity (Figure 13: 1.06x DCS/SSP) instead of
// chasing transient backlogs the way DRP's per-user provisioning does.
//
// The service also keeps the resource provider's books: platform-wide
// concurrent usage (Figures 12/13) and node-adjustment counts (Figure 14).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cluster/billing.hpp"
#include "cluster/resource_pool.hpp"
#include "cluster/usage_recorder.hpp"
#include "core/policies.hpp"
#include "obs/trace.hpp"
#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::core {

class ResourceProvisionService {
 public:
  using ConsumerId = std::size_t;

  ResourceProvisionService(cluster::ResourcePool pool, ProvisionPolicy policy = {});

  /// Registers a consumer (a TRE or a DRP end-user aggregate).
  /// `subscription_cap` caps its concurrent holding; 0 means unlimited.
  /// Higher `priority` consumers are served first from the waiting queue
  /// under ContentionMode::kQueueByPriority.
  ConsumerId register_consumer(std::string name, std::int64_t subscription_cap = 0,
                               int priority = 0);

  /// All-or-nothing grant of `nodes` at time `now`. Rejected if the pool is
  /// exhausted or the consumer would exceed its subscription cap. On
  /// success the grant is recorded in the platform usage series and the
  /// adjustment meter.
  bool request(SimTime now, ConsumerId consumer, std::int64_t nodes);

  /// Like request, but under kQueueByPriority an unsatisfiable request
  /// (within the subscription cap) waits in the provider's queue;
  /// `on_granted` fires when capacity frees up. Returns true if granted
  /// immediately. Cap violations are still rejected outright (no callback).
  bool request_or_wait(SimTime now, ConsumerId consumer, std::int64_t nodes,
                       std::function<void(SimTime)> on_granted);

  /// Reclaims `nodes` released by a consumer (always accepted). Under
  /// kQueueByPriority this may immediately grant waiting requests.
  void release(SimTime now, ConsumerId consumer, std::int64_t nodes);

  /// Requests currently waiting in the provider's queue.
  std::size_t waiting_requests() const { return waiting_.size(); }

  /// Withdraws every waiting request of `consumer` (the fault-recovery
  /// grant-timeout path: a starved request_or_wait is cancelled and
  /// re-issued, resetting its queue position). The dropped callbacks never
  /// fire. Returns the number of requests removed. Must not be called from
  /// inside a grant callback (the queue is being drained there).
  std::size_t cancel_waiting(ConsumerId consumer);

  /// Meters a transparent hardware swap (node failure replaced in place):
  /// the consumer's holding and the pool are unchanged, but the swap costs
  /// setup work on both the reclaimed and the replacement node.
  void record_hardware_swap(SimTime now, ConsumerId consumer, std::int64_t nodes);

  std::int64_t allocated() const { return pool_.allocated(); }
  bool is_bounded() const { return pool_.is_bounded(); }
  std::int64_t held_by(ConsumerId consumer) const;
  std::int64_t subscription_cap(ConsumerId consumer) const;
  std::size_t consumer_count() const { return consumers_.size(); }

  const cluster::UsageRecorder& usage() const { return usage_; }
  const cluster::AdjustmentMeter& adjustments() const { return adjustments_; }

  /// Grants rejected (pool exhausted or cap exceeded).
  std::int64_t rejected_requests() const { return rejected_; }

  /// Borrows a per-run trace sink (may be null; see docs/OBSERVABILITY.md).
  /// Grant/reject/wait/release/swap decisions are emitted with the
  /// consumer's name as the actor.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Serializes pool level, per-consumer holdings, the waiting queue
  /// (sans callbacks), and the provider's books. Consumers must already be
  /// registered identically when restoring; `restore` verifies names.
  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

  /// After `restore`, each owner of a waiting request re-attaches its grant
  /// callback here (callbacks are never serialized). Attaches to the oldest
  /// callback-less waiting entry of `consumer`; returns false if there is
  /// none.
  bool reattach_waiting(ConsumerId consumer, std::function<void(SimTime)> on_granted);

  /// Restore completeness check: every waiting request must have had its
  /// callback re-attached, else the resume would drop a pending grant.
  Status verify_waiting_restored() const;

 private:
  template <class Io>
  Status persist(Io& io);

  struct Consumer {
    std::string name;
    obs::TraceName trace_name;  // cached intern of name
    std::int64_t cap = 0;       // 0 = unlimited
    std::int64_t held = 0;
    int priority = 0;
  };

  struct WaitingRequest {
    ConsumerId consumer;
    std::int64_t nodes;
    std::uint64_t sequence;  // FIFO within a priority
    std::function<void(SimTime)> on_granted;
  };

  /// True if the grant is within cap and pool; applies it when possible.
  bool try_grant(SimTime now, ConsumerId consumer, std::int64_t nodes);
  /// Grants waiting requests that now fit, highest priority first.
  void drain_waiting(SimTime now);

  cluster::ResourcePool pool_;
  ProvisionPolicy policy_;  // dc-volatile: fixed by config
  obs::TraceSink* trace_ = nullptr;  // dc-volatile: borrowed, may be null
  std::vector<Consumer> consumers_;
  std::vector<WaitingRequest> waiting_;
  std::uint64_t next_sequence_ = 0;
  bool draining_ = false;
  bool redrain_ = false;  // dc-volatile: transient re-entrancy latch, false between events
  cluster::UsageRecorder usage_;
  cluster::AdjustmentMeter adjustments_;
  std::int64_t rejected_ = 0;
};

}  // namespace dc::core
