#include "core/fault/fault_domain.hpp"

#include <algorithm>
#include <cassert>

#include "core/snapshot_walk.hpp"

namespace dc::core::fault {

void FaultDomain::start(SimTime until) {
  assert(!watched_.empty() && "nothing to fail");
  // An injection window that is already over schedules nothing: without
  // this guard a single stray event could land exactly at `now + gap` and
  // fail nodes outside the experiment.
  if (until <= simulator_.now()) return;
  active_ = watched_;
  schedule_next(until);
}

std::int64_t FaultDomain::total_healthy() const {
  std::int64_t total = 0;
  for (const FaultTarget* target : active_) {
    total += std::max<std::int64_t>(0, target->healthy_nodes());
  }
  return total;
}

void FaultDomain::schedule_next(SimTime until) {
  // Per-node rates make the event rate proportional to the fleet: the gap
  // mean is MTTF / healthy. An empty fleet falls back to the domain mean so
  // the process keeps polling for targets coming back to life.
  double mean = static_cast<double>(config_.mean_time_between_failures);
  if (config_.per_node_rates) {
    const std::int64_t healthy = total_healthy();
    if (healthy > 1) mean /= static_cast<double>(healthy);
  }
  const auto gap = static_cast<SimDuration>(rng_.exponential(mean));
  const SimTime at = simulator_.now() + std::max<SimDuration>(1, gap);
  if (at >= until) {
    inject_event_ = sim::kInvalidEvent;
    return;
  }
  inject_until_ = until;
  inject_event_ = simulator_.schedule_at(at, [this, until] { inject(until); });
}

sim::Simulator::Callback FaultDomain::make_repair(std::size_t victim_index,
                                                  std::int64_t failed) {
  return [this, victim_index, failed] {
    DC_TRACE_INSTANT(trace_, simulator_.now(), obs::TraceCategory::kFault,
                     "fault.domain_repair", active_[victim_index]->fault_name(),
                     failed, nodes_down_ - failed);
    active_[victim_index]->repair_nodes(failed);
    nodes_repaired_ += failed;
    nodes_down_ -= failed;
  };
}

void FaultDomain::inject(SimTime until) {
  // Pick a victim weighted by its current healthy holding (bigger TREs own
  // more hardware, so they fail more often).
  std::vector<double> weights;
  weights.reserve(active_.size());
  for (const FaultTarget* target : active_) {
    weights.push_back(static_cast<double>(
        std::max<std::int64_t>(0, target->healthy_nodes())));
  }
  double total = 0.0;
  for (double w : weights) total += w;
  if (total > 0.0) {
    const std::size_t victim_index = rng_.weighted_index(weights);
    FaultTarget* victim = active_[victim_index];
    const std::int64_t nodes =
        rng_.uniform_int(config_.min_failed_nodes, config_.max_failed_nodes);
    const std::int64_t failed = std::min(nodes, victim->healthy_nodes());
    ++events_;
    nodes_failed_ += failed;
    DC_TRACE_INSTANT(trace_, simulator_.now(), obs::TraceCategory::kFault,
                     "fault.inject", victim->fault_name(), failed, events_);
    jobs_killed_ += victim->fail_nodes(nodes);
    if (config_.mean_time_to_repair <= 0) {
      // Transparent swap: the provider replaces the hardware in place
      // within the same instant; only the killed jobs are observable.
      victim->repair_nodes(failed);
      nodes_repaired_ += failed;
    } else if (failed > 0) {
      const auto delay = std::max<SimDuration>(
          1, static_cast<SimDuration>(rng_.exponential(
                 static_cast<double>(config_.mean_time_to_repair))));
      nodes_down_ += failed;
      // Deliberately not bounded by `until`: repairs finish even after the
      // injection window closes.
      const sim::EventId repair =
          simulator_.schedule_in(delay, make_repair(victim_index, failed));
      repair_events_.push_back({repair, victim_index, failed});
    }
  }
  schedule_next(until);
}

template <class Io>
Status FaultDomain::persist(Io& io) {
  bool started = !active_.empty();
  std::uint64_t active_count = active_.size();
  if (auto st = io.boolean("started", started); !st.is_ok()) return st;
  if (auto st = io.u64("active_count", active_count); !st.is_ok()) return st;
  if constexpr (!Io::kSaving) {
    active_ = started ? watched_ : std::vector<FaultTarget*>{};
    if (active_count != active_.size()) {
      return Status::failed_precondition(
          "fault domain: snapshot pinned " + std::to_string(active_count) +
          " victims but the rebuilt domain watches " +
          std::to_string(active_.size()) + " — watch order changed");
    }
  }
  std::array<std::uint64_t, 4> rng_state = rng_.state();
  const char* const rng_names[] = {"rng0", "rng1", "rng2", "rng3"};
  for (std::size_t i = 0; i < rng_state.size(); ++i) {
    if (auto st = io.u64(rng_names[i], rng_state[i]); !st.is_ok()) return st;
  }
  if constexpr (!Io::kSaving) rng_.set_state(rng_state);
  const std::pair<const char*, std::int64_t*> counters[] = {
      {"events", &events_},
      {"nodes_failed", &nodes_failed_},
      {"nodes_repaired", &nodes_repaired_},
      {"nodes_down", &nodes_down_},
      {"jobs_killed", &jobs_killed_}};
  for (const auto& [name, counter] : counters) {
    if (auto st = io.i64(name, *counter); !st.is_ok()) return st;
  }

  bool inject_pending =
      Io::kSaving && simulator_.pending_event_info(inject_event_).has_value();
  if (auto st = io.boolean("inject_pending", inject_pending); !st.is_ok()) {
    return st;
  }
  if (inject_pending) {
    EventRecord next{"inject_time", "inject_seq"};
    if (auto st = next.persist(io, simulator_, inject_event_); !st.is_ok()) {
      return st;
    }
    if (auto st = io.i64("inject_until", inject_until_); !st.is_ok()) {
      return st;
    }
    // The callback needs the window, recorded after the event's seq.
    if constexpr (!Io::kSaving) {
      const SimTime until = inject_until_;
      if (auto st = next.rearm(io, simulator_, inject_event_,
                               [this, until] { inject(until); });
          !st.is_ok()) {
        return st;
      }
    }
  }

  const auto each_repair = [&](RepairEvent& repair) -> Status {
    if (auto st = io.u64("victim", repair.victim); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (repair.victim >= active_.size()) {
        return Status::failed_precondition(
            "fault domain: pending repair references victim " +
            std::to_string(repair.victim) + " beyond the active set");
      }
    }
    if (auto st = io.i64("failed", repair.failed); !st.is_ok()) return st;
    return persist_event(
        io, simulator_, {"time", "seq"}, repair.event,
        [&] { return make_repair(repair.victim, repair.failed); });
  };
  return persist_registry(io, simulator_, "repair_count", repair_events_,
                          each_repair);
}

Status FaultDomain::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<FaultDomain&>(*this).persist(writer);
}

Status FaultDomain::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

}  // namespace dc::core::fault
