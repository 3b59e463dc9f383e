#include "core/provision_service.hpp"

#include <algorithm>
#include <cassert>

namespace dc::core {

ResourceProvisionService::ResourceProvisionService(cluster::ResourcePool pool,
                                                   ProvisionPolicy policy)
    : pool_(pool),
      policy_(policy),
      adjustments_(policy.setup_seconds_per_node) {}

ResourceProvisionService::ConsumerId ResourceProvisionService::register_consumer(
    std::string name, std::int64_t subscription_cap, int priority) {
  assert(subscription_cap >= 0);
  Consumer consumer{std::move(name), obs::TraceName{""}, subscription_cap, 0,
                    priority};
  consumer.trace_name = obs::TraceName{consumer.name};
  consumers_.push_back(std::move(consumer));
  return consumers_.size() - 1;
}

bool ResourceProvisionService::try_grant(SimTime now, ConsumerId consumer,
                                         std::int64_t nodes) {
  Consumer& c = consumers_[consumer];
  if (c.cap > 0 && c.held + nodes > c.cap) return false;
  if (!pool_.allocate(nodes).is_ok()) return false;
  c.held += nodes;
  usage_.change(now, nodes);
  if (policy_.count_adjustments) adjustments_.record(now, nodes);
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kProvision,
                     "provision.grant", c.trace_name, nodes, pool_.allocated());
  return true;
}

bool ResourceProvisionService::request(SimTime now, ConsumerId consumer,
                                       std::int64_t nodes) {
  assert(consumer < consumers_.size());
  if (nodes <= 0) return true;
  if (try_grant(now, consumer, nodes)) return true;
  ++rejected_;
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kProvision,
                     "provision.reject", consumers_[consumer].trace_name, nodes,
                     rejected_);
  return false;
}

bool ResourceProvisionService::request_or_wait(
    SimTime now, ConsumerId consumer, std::int64_t nodes,
    std::function<void(SimTime)> on_granted) {
  assert(consumer < consumers_.size());
  if (nodes <= 0) return true;
  if (try_grant(now, consumer, nodes)) return true;
  const Consumer& c = consumers_[consumer];
  const bool cap_violation = c.cap > 0 && c.held + nodes > c.cap;
  if (policy_.contention == ProvisionPolicy::ContentionMode::kReject ||
      cap_violation) {
    ++rejected_;
    DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kProvision,
                       "provision.reject", c.trace_name, nodes, rejected_);
    return false;
  }
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kProvision,
                     "provision.wait", c.trace_name, nodes,
                     static_cast<std::int64_t>(waiting_.size()));
  waiting_.push_back(
      WaitingRequest{consumer, nodes, next_sequence_++, std::move(on_granted)});
  return false;
}

void ResourceProvisionService::drain_waiting(SimTime now) {
  // Grant callbacks may themselves release resources (recursing into a
  // drain) or queue new requests; the guard flattens the recursion into
  // iterations of the outer loop so `waiting_` is never mutated while
  // being traversed.
  if (draining_) {
    redrain_ = true;
    return;
  }
  draining_ = true;
  do {
    redrain_ = false;
    if (waiting_.empty()) break;
    std::vector<WaitingRequest> pending = std::move(waiting_);
    waiting_.clear();
    // Highest priority first, FIFO within a priority.
    std::stable_sort(pending.begin(), pending.end(),
                     [this](const WaitingRequest& a, const WaitingRequest& b) {
                       const int pa = consumers_[a.consumer].priority;
                       const int pb = consumers_[b.consumer].priority;
                       if (pa != pb) return pa > pb;
                       return a.sequence < b.sequence;
                     });
    bool blocked = false;
    for (WaitingRequest& request : pending) {
      // Strict priority order: once the highest-priority request cannot be
      // served, nothing behind it may jump the queue.
      if (!blocked && try_grant(now, request.consumer, request.nodes)) {
        if (request.on_granted) request.on_granted(now);
        continue;
      }
      blocked = true;
      waiting_.push_back(std::move(request));
    }
  } while (redrain_);
  draining_ = false;
}

std::size_t ResourceProvisionService::cancel_waiting(ConsumerId consumer) {
  assert(consumer < consumers_.size());
  assert(!draining_ && "cancel_waiting from inside a grant callback");
  const std::size_t before = waiting_.size();
  waiting_.erase(std::remove_if(waiting_.begin(), waiting_.end(),
                                [consumer](const WaitingRequest& request) {
                                  return request.consumer == consumer;
                                }),
                 waiting_.end());
  return before - waiting_.size();
}

void ResourceProvisionService::release(SimTime now, ConsumerId consumer,
                                       std::int64_t nodes) {
  assert(consumer < consumers_.size());
  if (nodes <= 0) return;
  Consumer& c = consumers_[consumer];
  assert(nodes <= c.held && "consumer releasing more than it holds");
  c.held -= nodes;
  pool_.release(nodes);
  usage_.change(now, -nodes);
  if (policy_.count_adjustments) adjustments_.record(now, nodes);
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kProvision,
                     "provision.release", c.trace_name, nodes, pool_.allocated());
  drain_waiting(now);
}

void ResourceProvisionService::record_hardware_swap(SimTime now,
                                                    ConsumerId consumer,
                                                    std::int64_t nodes) {
  assert(consumer < consumers_.size());
  assert(nodes >= 0 && nodes <= consumers_[consumer].held);
  if (nodes <= 0 || !policy_.count_adjustments) return;
  adjustments_.record(now, nodes);  // reclaim the failed hardware
  adjustments_.record(now, nodes);  // install the RE on the replacement
  DC_TRACE_INSTANT_C(trace_, now, obs::TraceCategory::kProvision,
                     "provision.swap", consumers_[consumer].trace_name, nodes,
                     consumers_[consumer].held);
}

template <class Io>
Status ResourceProvisionService::persist(Io& io) {
  if constexpr (Io::kSaving) {
    assert(!draining_ && "snapshot taken from inside a grant callback");
  }
  if (auto st = io.part(pool_); !st.is_ok()) return st;
  std::uint64_t consumer_count = consumers_.size();
  if (auto st = io.u64("consumer_count", consumer_count); !st.is_ok()) {
    return st;
  }
  if constexpr (!Io::kSaving) {
    if (consumer_count != consumers_.size()) {
      return Status::failed_precondition(
          "provision service: snapshot has " + std::to_string(consumer_count) +
          " consumers but the rebuilt world registered " +
          std::to_string(consumers_.size()) +
          " — the snapshot belongs to a different experiment");
    }
  }
  for (Consumer& consumer : consumers_) {
    std::string name = consumer.name;
    if (auto st = io.str("name", name); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (name != consumer.name) {
        return Status::failed_precondition(
            "provision service: snapshot consumer '" + name +
            "' does not match rebuilt consumer '" + consumer.name +
            "' — registration order changed");
      }
    }
    if (auto st = io.i64("held", consumer.held); !st.is_ok()) return st;
  }
  const auto each_waiting = [&](WaitingRequest& request) -> Status {
    if (auto st = io.u64("consumer", request.consumer); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (request.consumer >= consumers_.size()) {
        return Status::failed_precondition(
            "provision service: waiting request references consumer " +
            std::to_string(request.consumer) + " beyond the registry");
      }
    }
    if (auto st = io.i64("nodes", request.nodes); !st.is_ok()) return st;
    return io.u64("sequence", request.sequence);
  };
  if (auto st = snapshot::list(io, "waiting_count", waiting_, each_waiting);
      !st.is_ok()) {
    return st;
  }
  if (auto st = io.u64("next_sequence", next_sequence_); !st.is_ok()) {
    return st;
  }
  if (auto st = io.i64("rejected", rejected_); !st.is_ok()) return st;
  if (auto st = io.part(usage_); !st.is_ok()) return st;
  return io.part(adjustments_);
}

Status ResourceProvisionService::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<ResourceProvisionService&>(*this).persist(writer);
}

Status ResourceProvisionService::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

bool ResourceProvisionService::reattach_waiting(
    ConsumerId consumer, std::function<void(SimTime)> on_granted) {
  for (WaitingRequest& request : waiting_) {
    if (request.consumer == consumer && !request.on_granted) {
      request.on_granted = std::move(on_granted);
      return true;
    }
  }
  return false;
}

Status ResourceProvisionService::verify_waiting_restored() const {
  for (const WaitingRequest& request : waiting_) {
    if (!request.on_granted) {
      return Status::failed_precondition(
          "provision service: waiting request of consumer '" +
          consumers_[request.consumer].name +
          "' has no re-attached grant callback — its owner did not restore");
    }
  }
  return Status::ok();
}

std::int64_t ResourceProvisionService::held_by(ConsumerId consumer) const {
  return consumers_.at(consumer).held;
}

std::int64_t ResourceProvisionService::subscription_cap(
    ConsumerId consumer) const {
  return consumers_.at(consumer).cap;
}

}  // namespace dc::core
