// Lifecycle management of thin runtime environments (TREs).
//
// Section 3.1.3 / Figure 4: a TRE moves Inexistent -> Planning (request
// validated) -> Created (software deployed) -> Running (daemons started),
// and is destroyed back to Inexistent. The deployment and start phases take
// configurable latencies, modeling the CSF's deployment service and agents;
// with zero latencies the state machine still enforces legal transitions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <optional>

#include "core/deployment.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::core {

enum class TreState { kInexistent, kPlanning, kCreated, kRunning, kDestroyed };

const char* tre_state_name(TreState state);

enum class WorkloadType { kHtc, kMtc };

const char* workload_type_name(WorkloadType type);

/// A service provider's requirement for a runtime environment (Section 2.2
/// step 1: workload type, resource size, operating system).
struct TreSpec {
  std::string provider_name;
  WorkloadType type = WorkloadType::kHtc;
  std::int64_t requested_initial_nodes = 0;
  std::string operating_system = "linux";
};

using TreId = std::int64_t;

class LifecycleService {
 public:
  struct Latencies {
    SimDuration validate = 0;  // Planning
    SimDuration deploy = 0;    // Created: download/install RE packages
    SimDuration start = 0;     // Running: start server/scheduler/portal
  };

  /// Mechanistic deployment model: per-TRE latencies derived from the
  /// requested size and the per-type software package.
  struct DeploymentModel {
    DeploymentService service;
    PackageSpec htc_package{"htc-tre", 150.0};
    /// The MTC TRE ships more components (workflow parser, trigger
    /// monitor, visual-editing portal — Section 3.1.2).
    PackageSpec mtc_package{"mtc-tre", 260.0};
    SimDuration validate = 1;
  };

  explicit LifecycleService(sim::Simulator& simulator)
      : LifecycleService(simulator, Latencies{}) {}
  LifecycleService(sim::Simulator& simulator, Latencies latencies);
  /// Latencies computed from the deployment model per create_tre call.
  LifecycleService(sim::Simulator& simulator, DeploymentModel model);

  /// Validates the request and drives the TRE to Running, invoking
  /// `on_running` at that point. Invalid specs fail immediately.
  StatusOr<TreId> create_tre(const TreSpec& spec,
                             std::function<void(SimTime)> on_running);

  /// Destroys a Running TRE (prompt-backup/stop-daemons/offload-packages in
  /// the real system), invoking `on_destroyed` when complete.
  Status destroy_tre(TreId id, std::function<void(SimTime)> on_destroyed);

  TreState state(TreId id) const;
  const TreSpec& spec(TreId id) const;
  std::size_t tre_count() const { return records_.size(); }

  /// All state transitions as (tre, state, time), for auditing/tests.
  struct Transition {
    TreId tre;
    TreState state;
    SimTime time;
  };
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Borrows a per-run trace sink (may be null; see docs/OBSERVABILITY.md).
  /// Every state transition becomes a `lifecycle.<state>` instant with the
  /// provider's name as the actor.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// TRE records and the transition audit trail are pure data; creation
  /// chains, however, hold their `on_running` callback in pending events,
  /// so a snapshot while a chain is mid-flight is refused with an
  /// actionable error. In practice chains run to Running within one
  /// simulation instant of create_tre (latencies included), so quiescent
  /// boundaries never split one.
  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  Status persist(Io& io);

  struct Record {
    TreSpec spec;
    TreState state = TreState::kInexistent;
  };

  void advance(TreId id, TreState next);
  /// Latencies for one request (fixed, or derived from the model).
  Latencies latencies_for(const TreSpec& spec) const;

  sim::Simulator& simulator_;  // dc-volatile: wiring
  Latencies latencies_;        // dc-volatile: fixed by config
  obs::TraceSink* trace_ = nullptr;  // dc-volatile: borrowed, may be null
  std::optional<DeploymentModel> deployment_;  // dc-volatile: fixed by config
  std::vector<Record> records_;
  std::vector<Transition> transitions_;
  /// Creation chains whose Running transition has not fired yet.
  std::int64_t chains_in_flight_ = 0;
};

}  // namespace dc::core
