#include "core/lifecycle.hpp"

#include "util/strings.hpp"

namespace dc::core {

const char* tre_state_name(TreState state) {
  switch (state) {
    case TreState::kInexistent: return "inexistent";
    case TreState::kPlanning: return "planning";
    case TreState::kCreated: return "created";
    case TreState::kRunning: return "running";
  }
  return "?";
}

const char* workload_type_name(WorkloadType type) {
  switch (type) {
    case WorkloadType::kHtc: return "HTC";
    case WorkloadType::kMtc: return "MTC";
  }
  return "?";
}

void LifecycleService::advance(TreId id, TreState next) {
  auto& record = records_.at(static_cast<std::size_t>(id));
  record.state = next;
  transitions_.push_back({id, next, simulator_.now()});
  DC_TRACE_INSTANT(trace_, simulator_.now(), obs::TraceCategory::kLifecycle,
                   std::string("lifecycle.") + tre_state_name(next),
                   record.spec.provider_name, id,
                   static_cast<std::int64_t>(next));
}

StatusOr<TreId> LifecycleService::create_tre(
    const TreSpec& spec, std::function<void(SimTime)> on_running) {
  if (spec.provider_name.empty()) {
    return Status::invalid_argument("TRE request needs a provider name");
  }
  if (spec.requested_initial_nodes < 0) {
    return Status::invalid_argument(
        str_format("invalid initial resource request: %lld",
                   static_cast<long long>(spec.requested_initial_nodes)));
  }
  const TreId id = static_cast<TreId>(records_.size());
  records_.push_back(Record{spec, TreState::kInexistent});
  ++chains_in_flight_;

  // Three chained events at this instant, not one: their kernel seqs are
  // pinned by every DawningCloud snapshot and trace.
  simulator_.schedule_in(0, [this, id, cb = std::move(on_running)]() mutable {
    // Inexistent -> Planning after validation.
    advance(id, TreState::kPlanning);
    simulator_.schedule_in(0, [this, id, cb = std::move(cb)]() mutable {
      // Planning -> Created once the deployment service has installed the
      // TRE's software packages.
      advance(id, TreState::kCreated);
      simulator_.schedule_in(0, [this, id, cb = std::move(cb)] {
        // Created -> Running once the agents started the TRE components
        // (server, scheduler, portal).
        advance(id, TreState::kRunning);
        --chains_in_flight_;
        if (cb) cb(simulator_.now());
      });
    });
  });
  return id;
}

template <class Io>
Status LifecycleService::persist(Io& io) {
  if constexpr (Io::kSaving) {
    if (chains_in_flight_ != 0) {
      return Status::failed_precondition(
          "lifecycle service: " + std::to_string(chains_in_flight_) +
          " TRE creation chain(s) are mid-flight at the snapshot boundary — "
          "snapshot between run_until chunks, not from inside a callback");
    }
  } else {
    chains_in_flight_ = 0;
  }
  const auto each_record = [&](Record& record) -> Status {
    if (auto st = io.str("provider", record.spec.provider_name); !st.is_ok()) {
      return st;
    }
    auto type = static_cast<std::uint64_t>(record.spec.type);
    if (auto st = io.u64("type", type); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (type > static_cast<std::uint64_t>(WorkloadType::kMtc)) {
        return Status::invalid_argument("lifecycle: bad workload type " +
                                        std::to_string(type));
      }
      record.spec.type = static_cast<WorkloadType>(type);
    }
    if (auto st = io.i64("initial_nodes", record.spec.requested_initial_nodes);
        !st.is_ok()) {
      return st;
    }
    if (auto st = io.str("os", record.spec.operating_system); !st.is_ok()) {
      return st;
    }
    auto state = static_cast<std::uint64_t>(record.state);
    if (auto st = io.u64("state", state); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (state > static_cast<std::uint64_t>(TreState::kRunning)) {
        return Status::invalid_argument("lifecycle: bad TRE state " +
                                        std::to_string(state));
      }
      record.state = static_cast<TreState>(state);
    }
    return Status::ok();
  };
  if (auto st = snapshot::list(io, "record_count", records_, each_record);
      !st.is_ok()) {
    return st;
  }
  const auto each_transition = [&](Transition& transition) -> Status {
    if (auto st = io.i64("tre", transition.tre); !st.is_ok()) return st;
    auto state = static_cast<std::uint64_t>(transition.state);
    if (auto st = io.u64("to_state", state); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (state > static_cast<std::uint64_t>(TreState::kRunning)) {
        return Status::invalid_argument("lifecycle: bad transition state " +
                                        std::to_string(state));
      }
      transition.state = static_cast<TreState>(state);
    }
    return io.i64("at", transition.time);
  };
  return snapshot::list(io, "transition_count", transitions_, each_transition);
}

Status LifecycleService::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<LifecycleService&>(*this).persist(writer);
}

Status LifecycleService::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

TreState LifecycleService::state(TreId id) const {
  return records_.at(static_cast<std::size_t>(id)).state;
}

const TreSpec& LifecycleService::spec(TreId id) const {
  return records_.at(static_cast<std::size_t>(id)).spec;
}

}  // namespace dc::core
