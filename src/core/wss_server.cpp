#include "core/wss_server.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dc::core {

WssServer::WssServer(sim::Simulator& simulator,
                     ResourceProvisionService& provision, Config config,
                     workload::DemandProfile profile)
    : simulator_(simulator),
      provision_(provision),
      config_(std::move(config)),
      profile_(std::move(profile)) {
  assert((config_.policy.has_value() || config_.fixed_nodes > 0) &&
         "fixed-mode WSS needs a positive size");
  consumer_ = provision_.register_consumer(config_.name);
}

std::int64_t WssServer::required_at(SimTime t) const {
  const std::int64_t demand = profile_.at(t);
  if (!config_.policy) return demand;
  return static_cast<std::int64_t>(std::ceil(
      static_cast<double>(demand) * (1.0 + config_.policy->headroom)));
}

bool WssServer::start() {
  assert(!started_);
  const SimTime now = simulator_.now();
  const std::int64_t initial =
      config_.policy ? std::max(config_.policy->initial_nodes, required_at(now))
                     : config_.fixed_nodes;
  if (!provision_.request(now, consumer_, initial)) return false;
  owned_ = initial;
  held_.change(now, initial);
  initial_lease_ = ledger_.open(now, initial, "initial");
  started_ = true;
  last_scan_ = now;
  if (config_.policy) {
    scan_timer_ = simulator_.start_periodic(
        now + config_.policy->scan_interval, config_.policy->scan_interval,
        make_scan());
  } else {
    // Fixed mode still samples violations (a fixed holding sized below the
    // peak would violate).
    scan_timer_ =
        simulator_.start_periodic(now + 5 * kMinute, 5 * kMinute, make_scan());
  }
  return true;
}

sim::Simulator::TimerCallback WssServer::make_scan() {
  return [this](SimTime at) { scan(at); };
}

sim::Simulator::TimerCallback WssServer::make_idle_check(
    std::size_t grant_index) {
  return [this, grant_index](SimTime at) {
    Grant& grant = grants_[grant_index];
    if (!grant.active || shutdown_) return;
    // Release the grant once the healthy holding exceeds the current
    // requirement by at least the grant's size.
    if (owned_ - down_ - required_at(at) >= grant.nodes) {
      ledger_.close(grant.lease, at);
      provision_.release(at, consumer_, grant.nodes);
      owned_ -= grant.nodes;
      held_.change(at, -grant.nodes);
      grant.active = false;
      simulator_.stop_timer(grant.timer);
      grant.timer = sim::kInvalidTimer;
    }
  };
}

void WssServer::scan(SimTime now) {
  if (shutdown_) return;
  // Account violations over the elapsed interval at the interval's demand.
  // Down nodes serve nothing: the effective capacity is the healthy part
  // of the holding.
  const SimDuration elapsed = now - last_scan_;
  const std::int64_t serving = owned_ - down_;
  const std::int64_t unmet =
      std::max<std::int64_t>(0, profile_.at(now) - serving);
  if (unmet > 0) {
    violation_node_hours_ +=
        static_cast<double>(unmet) * to_hours(elapsed);
    violation_seconds_ += elapsed;
  }
  last_scan_ = now;
  if (!config_.policy) return;

  const std::int64_t required = required_at(now);
  if (required > serving) {
    const std::int64_t amount = required - serving;
    if (provision_.request(now, consumer_, amount)) {
      owned_ += amount;
      held_.change(now, amount);
      const cluster::LeaseId lease = ledger_.open(now, amount, "scale-up");
      grants_.push_back(Grant{amount, lease, sim::kInvalidTimer, true});
      const std::size_t grant_index = grants_.size() - 1;
      const SimDuration interval = config_.policy->idle_check_interval;
      grants_[grant_index].timer = simulator_.start_periodic(
          now + interval, interval, make_idle_check(grant_index));
    }
  }
}

std::int64_t WssServer::fail_nodes(std::int64_t count) {
  assert(count >= 0);
  if (!started_ || shutdown_ || count == 0) return 0;
  const SimTime now = simulator_.now();
  count = std::min(count, owned_ - down_);
  if (count <= 0) return 0;
  down_ += count;
  down_usage_.change(now, count);
  return 0;  // web services run no jobs to kill
}

void WssServer::repair_nodes(std::int64_t count) {
  if (count <= 0 || down_ <= 0) return;
  const SimTime now = simulator_.now();
  count = std::min(count, down_);
  down_ -= count;
  down_usage_.change(now, -count);
  if (shutdown_) return;
  // The swapped-in hardware gets the service stack reinstalled.
  provision_.record_hardware_swap(now, consumer_, count);
}

double WssServer::availability(SimTime horizon) const {
  const double held = held_.node_hours(horizon);
  if (held <= 0.0) return 1.0;
  return 1.0 - down_usage_.node_hours(horizon) / held;
}

void WssServer::shutdown() {
  if (!started_ || shutdown_) return;
  const SimTime now = simulator_.now();
  if (down_ > 0) {
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
    ledger_.close(grant.lease, now);
    provision_.release(now, consumer_, grant.nodes);
    owned_ -= grant.nodes;
    held_.change(now, -grant.nodes);
    grant.active = false;
  }
  if (initial_lease_) {
    ledger_.close(*initial_lease_, now);
    provision_.release(now, consumer_, owned_);
    held_.change(now, -owned_);
    owned_ = 0;
    initial_lease_.reset();
  }
  shutdown_ = true;
}

}  // namespace dc::core
