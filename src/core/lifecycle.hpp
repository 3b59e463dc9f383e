// Lifecycle management of thin runtime environments (TREs).
//
// Section 3.1.3 / Figure 4: a TRE moves Inexistent -> Planning (request
// validated) -> Created (software deployed) -> Running (daemons started).
// Every transition takes zero simulated time: the setup cost a run reports
// is RunOptions::setup_latency, and a TRE's end is its server's shutdown().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::core {

enum class TreState { kInexistent, kPlanning, kCreated, kRunning };

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
  explicit LifecycleService(sim::Simulator& simulator)
      : simulator_(simulator) {}

  /// Validates the request and drives the TRE to Running, invoking
  /// `on_running` at that point. Invalid specs fail immediately.
  StatusOr<TreId> create_tre(const TreSpec& spec,
                             std::function<void(SimTime)> on_running);

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
  /// actionable error. Chains run to Running within the simulation
  /// instant of create_tre, so quiescent boundaries never split one.
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

  sim::Simulator& simulator_;  // dc-volatile: wiring
  obs::TraceSink* trace_ = nullptr;  // dc-volatile: borrowed, may be null
  std::vector<Record> records_;
  std::vector<Transition> transitions_;
  /// Creation chains whose Running transition has not fired yet.
  std::int64_t chains_in_flight_ = 0;
};

}  // namespace dc::core
