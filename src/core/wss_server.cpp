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
    // Release the grant once the holding exceeds the current requirement
    // by at least the grant's size.
    if (owned_ - required_at(at) >= grant.nodes) {
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
  const SimDuration elapsed = now - last_scan_;
  const std::int64_t unmet =
      std::max<std::int64_t>(0, profile_.at(now) - owned_);
  if (unmet > 0) {
    violation_node_hours_ +=
        static_cast<double>(unmet) * to_hours(elapsed);
    violation_seconds_ += elapsed;
  }
  last_scan_ = now;
  if (!config_.policy) return;

  const std::int64_t required = required_at(now);
  if (required > owned_) {
    const std::int64_t amount = required - owned_;
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

void WssServer::shutdown() {
  if (!started_ || shutdown_) return;
  const SimTime now = simulator_.now();
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
