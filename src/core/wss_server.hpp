// Web-service runtime environment (PhoenixCloud-style, the paper's
// references [12]/[21]).
//
// A web-service provider's requirement is continuous capacity: at every
// instant the RE must hold at least demand(t) nodes or it violates its
// service level. Two provisioning modes mirror the batch systems:
//
//  * fixed: hold the profile's peak for the whole period (the DCS/SSP
//    reading — capacity planned for the worst hour);
//  * elastic: scan the profile every `scan_interval`, request the
//    shortfall (plus a safety headroom) from the provision service, and
//    release over-provisioned dynamic grants at hourly checks — the same
//    grant/release skeleton as the Section 3.2.2 batch policy, driven by a
//    demand signal instead of a queue.
//
// Metrics: billed node*hours (hourly lease quantum, like every other
// consumer) and SLA violation node*hours (integral of unmet demand).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cluster/billing.hpp"
#include "cluster/usage_recorder.hpp"
#include "core/provision_service.hpp"
#include "sim/simulator.hpp"
#include "workload/demand_profile.hpp"

namespace dc::core {

class WssServer {
 public:
  struct ElasticPolicy {
    /// Fractional safety margin held above the instantaneous demand.
    double headroom = 0.10;
    SimDuration scan_interval = 5 * kMinute;
    SimDuration idle_check_interval = kHour;
    std::int64_t initial_nodes = 0;  // 0 = first scan sizes the holding
  };

  struct Config {
    std::string name = "wss";
    /// Fixed mode: hold this many nodes (use profile.peak()); elastic mode
    /// when `policy` is set.
    std::int64_t fixed_nodes = 0;
    std::optional<ElasticPolicy> policy;
  };

  WssServer(sim::Simulator& simulator, ResourceProvisionService& provision,
            Config config, workload::DemandProfile profile);
  WssServer(const WssServer&) = delete;
  WssServer& operator=(const WssServer&) = delete;

  /// Starts serving at the current simulation time. Returns false if the
  /// startup grant was rejected.
  bool start();

  /// Releases everything and stops timers. Idempotent.
  void shutdown();

  std::int64_t owned() const { return owned_; }
  const std::string& name() const { return config_.name; }
  bool elastic() const { return config_.policy.has_value(); }

  const cluster::LeaseLedger& ledger() const { return ledger_; }
  const cluster::UsageRecorder& held_usage() const { return held_; }

  /// Node*hours of unmet demand accumulated so far (sampled at scan
  /// granularity; exact for profiles that change on hour boundaries).
  double violation_node_hours() const { return violation_node_hours_; }
  /// Seconds during which demand exceeded the holding.
  SimDuration violation_seconds() const { return violation_seconds_; }

 private:
  void scan(SimTime now);
  std::int64_t required_at(SimTime t) const;
  sim::Simulator::TimerCallback make_scan();
  sim::Simulator::TimerCallback make_idle_check(std::size_t grant_index);

  sim::Simulator& simulator_;
  ResourceProvisionService& provision_;
  Config config_;
  workload::DemandProfile profile_;
  ResourceProvisionService::ConsumerId consumer_ = 0;

  bool started_ = false;
  bool shutdown_ = false;
  std::int64_t owned_ = 0;

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

  double violation_node_hours_ = 0.0;
  SimDuration violation_seconds_ = 0;
  SimTime last_scan_ = 0;
};

}  // namespace dc::core
