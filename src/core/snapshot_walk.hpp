// Snapshot walk helpers shared by the core components (docs/SNAPSHOT.md,
// "One walk per component"): the records of a pending event or timer, an
// append-only event registry, a workflow DAG and a per-task counter. Each
// runs over a SnapshotWriter to save and over a SnapshotReader to restore,
// like the component walks that call them.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "util/time.hpp"
#include "workflow/dag.hpp"

namespace dc::core {

/// The kernel's refusal of a re-armed event, naming the records it was
/// read from and the reader's position.
inline Status refused_rearm(const snapshot::SnapshotReader& reader,
                            const Status& kernel,
                            std::initializer_list<std::string_view> records) {
  std::string message = "snapshot: " + kernel.message() + " at records ";
  const char* separator = "";
  for (const std::string_view name : records) {
    message.append(separator).append("'").append(name).append("'");
    separator = "/";
  }
  return Status::invalid_argument(message + " (" + reader.context() + ")");
}

/// A pending one-shot event as two records: its time, then its seq.
struct EventRecord {
  std::string_view time_name;
  std::string_view seq_name;
  SimTime time = 0;
  std::uint64_t seq = 0;

  /// Saving writes `event`'s (time, seq) from the kernel, which must hold
  /// it pending; restoring reads them, for rearm.
  template <class Io>
  Status persist(Io& io, const sim::Simulator& simulator, sim::EventId event) {
    if constexpr (Io::kSaving) {
      const auto info = simulator.pending_event_info(event);
      if (!info.has_value()) {
        return Status::internal("snapshot: records '" +
                                std::string(time_name) + "'/'" +
                                std::string(seq_name) +
                                "' belong to an event that is not pending");
      }
      time = info->time;
      seq = info->seq;
    }
    if (Status st = io.i64(time_name, time); !st.is_ok()) return st;
    return io.u64(seq_name, seq);
  }

  /// Re-arms `fn` on (time, seq) into `event` (restoring only). A pair the
  /// kernel refuses (Simulator::restore_event) comes back naming the
  /// records and the reader's position.
  template <class F>
  Status rearm(const snapshot::SnapshotReader& reader,
               sim::Simulator& simulator, sim::EventId& event,
               F&& fn) const {
    auto armed = simulator.restore_event(time, seq, std::forward<F>(fn));
    if (!armed.is_ok()) {
      return refused_rearm(reader, armed.status(), {time_name, seq_name});
    }
    event = *armed;
    return Status::ok();
  }
};

/// One pending event's records (EventRecord::persist); restoring then
/// re-arms the callback make() builds on them.
template <class Io, class Make>
Status persist_event(Io& io, sim::Simulator& simulator, EventRecord record,
                     sim::EventId& event, Make&& make) {
  if (Status st = record.persist(io, simulator, event); !st.is_ok()) {
    return st;
  }
  if constexpr (Io::kSaving) {
    return Status::ok();
  } else {
    return record.rearm(io, simulator, event, make());
  }
}

/// The record names of a periodic timer that may be stopped.
struct TimerRecord {
  std::string_view pending_name;
  std::string_view next_fire_name;
  std::string_view seq_name;
  std::string_view period_name;
};

/// A periodic timer's records: whether it is pending, then, when it is,
/// its next fire, seq and period. Restoring re-arms the callback make()
/// builds with Simulator::restore_periodic into `timer`, or leaves
/// `timer` invalid when the timer was stopped.
template <class Io, class Make>
Status persist_timer(Io& io, sim::Simulator& simulator,
                     const TimerRecord& names, sim::TimerId& timer,
                     Make&& make) {
  std::optional<sim::Simulator::PendingTimerInfo> info;
  if constexpr (Io::kSaving) info = simulator.pending_timer_info(timer);
  bool pending = info.has_value();
  if (Status st = io.boolean(names.pending_name, pending); !st.is_ok()) {
    return st;
  }
  if constexpr (!Io::kSaving) timer = sim::kInvalidTimer;
  if (!pending) return Status::ok();
  SimTime next_fire = info ? info->next_fire : 0;
  std::uint64_t seq = info ? info->seq : 0;
  SimDuration period = info ? info->period : 0;
  if (Status st = io.i64(names.next_fire_name, next_fire); !st.is_ok()) {
    return st;
  }
  if (Status st = io.u64(names.seq_name, seq); !st.is_ok()) return st;
  if (Status st = io.i64(names.period_name, period); !st.is_ok()) return st;
  if constexpr (!Io::kSaving) {
    auto armed = simulator.restore_periodic(next_fire, seq, period, make());
    if (!armed.is_ok()) {
      return refused_rearm(
          io, armed.status(),
          {names.next_fire_name, names.seq_name, names.period_name});
    }
    timer = *armed;
  }
  return Status::ok();
}

/// An append-only registry of scheduled events (entries with an `event`
/// member) as a list of the entries still pending: saving leaves out the
/// entries whose event has fired, restoring replaces the registry.
template <class Io, class Entry, class Element>
Status persist_registry(Io& io, const sim::Simulator& simulator,
                        std::string_view count_name,
                        std::vector<Entry>& registry, Element&& element) {
  std::vector<Entry> live;
  if constexpr (Io::kSaving) {
    for (const Entry& entry : registry) {
      if (simulator.pending_event_info(entry.event)) live.push_back(entry);
    }
  }
  if (Status st = snapshot::list(io, count_name, live, element); !st.is_ok()) {
    return st;
  }
  if constexpr (!Io::kSaving) registry = std::move(live);
  return Status::ok();
}

/// A workflow DAG's records: task_count; each task's name, runtime and
/// nodes; then per task its edges (child_count, then each child). A DAG
/// never changes once submitted, so its owner walks it as a history row.
/// Restoring adds the tasks and edges to `dag` (which must be empty); a
/// runtime or node count below 1, an edge to itself or to a task beyond
/// the DAG, and a cycle are refused naming `owner`.
template <class Io>
Status persist_dag(Io& io, workflow::Dag& dag, const std::string& owner) {
  std::uint64_t task_count = dag.size();
  if (Status st = io.count("task_count", task_count); !st.is_ok()) return st;
  for (std::uint64_t t = 0; t < task_count; ++t) {
    workflow::Task added;
    workflow::Task& task =
        Io::kSaving ? dag.task(static_cast<workflow::TaskId>(t)) : added;
    if (Status st = io.str("name", task.name); !st.is_ok()) return st;
    if (Status st = io.i64("runtime", task.runtime); !st.is_ok()) return st;
    if (Status st = io.i64("nodes", task.nodes); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (task.runtime < 1 || task.nodes < 1) {
        return Status::invalid_argument(
            owner + ": workflow task " + std::to_string(t) + " has runtime " +
            std::to_string(task.runtime) + " and " +
            std::to_string(task.nodes) + " nodes (" + io.context() + ")");
      }
      dag.add_task(std::move(task.name), task.runtime, task.nodes);
    }
  }
  for (std::uint64_t t = 0; t < task_count; ++t) {
    const auto id = static_cast<workflow::TaskId>(t);
    std::uint64_t child_count = Io::kSaving ? dag.children(id).size() : 0;
    if (Status st = io.count("child_count", child_count); !st.is_ok()) {
      return st;
    }
    for (std::uint64_t c = 0; c < child_count; ++c) {
      workflow::TaskId child = Io::kSaving ? dag.children(id)[c] : 0;
      if (Status st = io.i64("child", child); !st.is_ok()) return st;
      if constexpr (!Io::kSaving) {
        if (child < 0 || static_cast<std::uint64_t>(child) >= task_count ||
            child == id) {
          return Status::invalid_argument(
              owner + ": workflow edge from task " + std::to_string(id) +
              " to task " + std::to_string(child) + " of the workflow's " +
              std::to_string(task_count) + " tasks (" + io.context() + ")");
        }
        dag.add_dependency(id, child);
      }
    }
  }
  if constexpr (!Io::kSaving) {
    if (Status st = dag.validate(); !st.is_ok()) {
      return Status::invalid_argument(owner + ": " + st.message() + " (" +
                                      io.context() + ")");
    }
  }
  return Status::ok();
}

/// A per-task counter of a DAG's owner as one packed column of one value
/// per task. Restoring refuses a negative value.
template <class Io>
Status persist_task_counter(Io& io, std::string_view name,
                            const std::string& owner, std::size_t tasks,
                            std::vector<std::size_t>& values) {
  typename Io::Column column;
  if constexpr (Io::kSaving) {
    for (const std::size_t value : values) {
      column.push(static_cast<std::int64_t>(value));
    }
  }
  if (Status st = io.column(name, tasks, column); !st.is_ok()) return st;
  if constexpr (!Io::kSaving) {
    values.assign(tasks, 0);
    for (std::size_t t = 0; t < tasks; ++t) {
      if (column[t] < 0) {
        return Status::invalid_argument(
            owner + ": task " + std::to_string(t) + " has " +
            std::string(name) + " " + std::to_string(column[t]) + " (" +
            io.context() + ")");
      }
      values[t] = static_cast<std::size_t>(column[t]);
    }
  }
  return Status::ok();
}

}  // namespace dc::core
