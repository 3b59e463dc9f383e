#include "core/system_runner.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <filesystem>

#include "core/snapshot_walk.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dc::core {

namespace {

ProviderResult make_result_from_server(const HtcServer& server,
                                       WorkloadType type, SimTime horizon,
                                       SimDuration quantum) {
  ProviderResult result;
  result.provider = server.name();
  result.type = type;
  result.submitted_jobs = server.submitted_jobs();
  result.completed_jobs = server.completed_jobs(horizon);
  result.consumption_node_hours =
      server.ledger().billed_node_hours_with_quantum(horizon, quantum);
  result.exact_node_hours = server.ledger().exact_node_hours(horizon);
  result.peak_nodes = server.held_usage().peak();
  if (server.first_submit() != kNever && server.last_finish() != kNever) {
    result.makespan = server.last_finish() - server.first_submit();
  }
  std::int64_t started = 0;
  double wait_sum = 0.0;
  for (const sched::Job& job : server.jobs()) {
    if (job.start == kNever || job.start > horizon) continue;
    ++started;
    wait_sum += static_cast<double>(job.wait_time());
    result.max_wait_seconds = std::max(result.max_wait_seconds, job.wait_time());
  }
  if (started > 0) result.mean_wait_seconds = wait_sum / static_cast<double>(started);
  result.jobs_killed = server.job_retries();
  result.jobs_failed = server.jobs_failed();
  result.grant_timeouts = server.grant_timeouts();
  result.goodput_node_hours = server.goodput_node_hours(horizon);
  result.wasted_node_hours = server.wasted_node_hours();
  result.availability = server.availability(horizon);
  return result;
}

/// Held-node-hour-weighted availability across providers.
struct AvailabilityAccumulator {
  double held_nh = 0.0;
  double down_nh = 0.0;
  void add(double held, double availability) {
    held_nh += held;
    down_nh += held * (1.0 - availability);
  }
  double value() const {
    return held_nh <= 0.0 ? 1.0 : 1.0 - down_nh / held_nh;
  }
};

}  // namespace

SystemRunner::SystemRunner(SystemModel model,
                           const ConsolidationWorkload& workload,
                           const RunOptions& options, Mode mode)
    : model_(model),
      workload_(workload),
      options_(options),
      horizon_(workload.effective_horizon()),
      mode_(mode) {
  build();
  arm();
}

const sched::Scheduler* SystemRunner::htc_scheduler() const {
  switch (options_.htc_scheduler) {
    case HtcSchedulerKind::kFirstFit: return &first_fit_;
    case HtcSchedulerKind::kEasyBackfill: return &easy_;
    case HtcSchedulerKind::kConservativeBackfill: return &conservative_;
    case HtcSchedulerKind::kSjf: return &sjf_;
  }
  return &first_fit_;
}

void SystemRunner::build() {
  const bool elastic = model_ == SystemModel::kDawningCloud;
  ProvisionPolicy provision_policy;
  if (model_ != SystemModel::kDrp) {
    provision_policy.count_adjustments = model_ != SystemModel::kDcs;
    provision_policy.contention = options_.contention;
  }
  provision_ = std::make_unique<ResourceProvisionService>(
      options_.platform_capacity > 0
          ? cluster::ResourcePool(options_.platform_capacity)
          : cluster::ResourcePool::unbounded(),
      provision_policy);
  emulator_ =
      std::make_unique<JobEmulator>(sim_, 1.0, mode_ == Mode::kRestore);

  // Consumer registration order — HTC specs, then MTC specs — is part of
  // the snapshot contract: provision restore verifies consumer names in
  // registration order.
  if (model_ == SystemModel::kDrp) {
    for (const HtcWorkloadSpec& spec : workload_.htc) {
      runners_.push_back(
          std::make_unique<DrpRunner>(sim_, *provision_, spec.name));
      runner_types_.push_back(WorkloadType::kHtc);
      runners_.back()->set_setup_latency(options_.setup_latency);
      runners_.back()->set_recovery(options_.recovery);
    }
    for (const MtcWorkloadSpec& spec : workload_.mtc) {
      runners_.push_back(
          std::make_unique<DrpRunner>(sim_, *provision_, spec.name));
      runner_types_.push_back(WorkloadType::kMtc);
      runners_.back()->set_setup_latency(options_.setup_latency);
      runners_.back()->set_recovery(options_.recovery);
    }
  } else {
    lifecycle_ = std::make_unique<LifecycleService>(sim_);
    for (const HtcWorkloadSpec& spec : workload_.htc) {
      HtcServer::Config config;
      config.name = spec.name;
      config.scheduler = htc_scheduler();
      config.priority = spec.priority;
      config.setup_latency = options_.setup_latency;
      config.recovery = options_.recovery;
      if (elastic) {
        config.policy = spec.policy;
      } else {
        config.fixed_nodes = spec.fixed_nodes;
      }
      htc_servers_.push_back(
          std::make_unique<HtcServer>(sim_, *provision_, std::move(config)));
    }
    for (const MtcWorkloadSpec& spec : workload_.mtc) {
      MtcServer::MtcConfig config;
      config.name = spec.name;
      config.scheduler = &fcfs_;
      config.destroy_when_complete = true;
      config.priority = spec.priority;
      config.setup_latency = options_.setup_latency;
      config.recovery = options_.recovery;
      if (elastic) {
        config.policy = spec.policy;
      } else {
        config.fixed_nodes = spec.fixed_nodes;
      }
      mtc_servers_.push_back(
          std::make_unique<MtcServer>(sim_, *provision_, std::move(config)));
    }
  }

  if (options_.faults) {
    injector_.emplace(sim_, *options_.faults);
    for (auto& server : htc_servers_) injector_->watch(server.get());
    for (auto& server : mtc_servers_) injector_->watch(server.get());
    for (auto& runner : runners_) injector_->watch(runner.get());
  }

  // One borrowed sink for the whole world: every component tags its own
  // events with its name, so a single ring holds the interleaved story.
  if (options_.trace != nullptr) {
    provision_->set_trace(options_.trace);
    if (lifecycle_) lifecycle_->set_trace(options_.trace);
    for (auto& server : htc_servers_) server->set_trace(options_.trace);
    for (auto& server : mtc_servers_) server->set_trace(options_.trace);
    for (auto& runner : runners_) runner->set_trace(options_.trace);
    if (injector_) injector_->set_trace(options_.trace);
  }
}

void SystemRunner::arm() {
  const bool elastic = model_ == SystemModel::kDawningCloud;
  const bool fresh = mode_ == Mode::kFresh;

  if (model_ == SystemModel::kDrp) {
    std::size_t index = 0;
    for (const HtcWorkloadSpec& spec : workload_.htc) {
      DrpRunner* runner = runners_[index++].get();
      emulator_->emulate_trace(spec.trace,
                               [runner](const workload::TraceJob& job) {
                                 runner->submit_job(job.runtime, job.nodes);
                               });
    }
    for (const MtcWorkloadSpec& spec : workload_.mtc) {
      DrpRunner* runner = runners_[index++].get();
      const workflow::Dag* dag = &spec.dag;
      emulator_->emulate_at(spec.submit_time,
                            [runner, dag] { runner->submit_workflow(*dag); });
    }
  } else {
    for (std::size_t i = 0; i < workload_.htc.size(); ++i) {
      const HtcWorkloadSpec& spec = workload_.htc[i];
      HtcServer* server = htc_servers_[i].get();
      if (fresh) {
        if (elastic) {
          // DSP usage pattern: the provider requests a TRE; the CSF
          // creates it and the server starts when the TRE reaches Running.
          TreSpec tre;
          tre.provider_name = spec.name;
          tre.type = WorkloadType::kHtc;
          tre.requested_initial_nodes = spec.policy.initial_nodes;
          auto created = lifecycle_->create_tre(
              tre, [server](SimTime) { server->start(); });
          assert(created.is_ok());
        } else {
          sim_.schedule_at(0, [server] { server->start(); });
        }
      }
      emulator_->emulate_trace(spec.trace,
                               [server](const workload::TraceJob& job) {
                                 server->submit(job.runtime, job.nodes);
                               });
    }
    for (std::size_t i = 0; i < workload_.mtc.size(); ++i) {
      const MtcWorkloadSpec& spec = workload_.mtc[i];
      MtcServer* server = mtc_servers_[i].get();
      const workflow::Dag* dag = &spec.dag;
      if (elastic) {
        LifecycleService* lifecycle = lifecycle_.get();
        emulator_->emulate_at(
            spec.submit_time,
            [server, dag, lifecycle, name = spec.name,
             initial = spec.policy.initial_nodes] {
              TreSpec tre;
              tre.provider_name = name;
              tre.type = WorkloadType::kMtc;
              tre.requested_initial_nodes = initial;
              auto created = lifecycle->create_tre(tre, [server, dag](SimTime) {
                server->start();
                server->submit_workflow(*dag);
              });
              assert(created.is_ok());
            });
      } else {
        emulator_->emulate_at(spec.submit_time, [server, dag] {
          server->start();
          server->submit_workflow(*dag);
        });
      }
    }
  }

  if (injector_ && fresh) {
    // Scheduled after every server-start event at t=0, so the victim
    // weights see the initial holdings from the first draw.
    sim_.schedule_at(0, [this] { injector_->start(horizon_); });
  }

  if (fresh && options_.metrics != nullptr && options_.metrics_every > 0) {
    // First tick one interval in: at t=0 every gauge is still zero. The
    // timer joins the pending set like any component event, so enabling
    // metrics shifts sequence numbers — compare runs with equal options.
    sampler_timer_ = sim_.start_periodic(options_.metrics_every,
                                         options_.metrics_every, make_sampler());
  }
}

sim::Simulator::TimerCallback SystemRunner::make_sampler() {
  return [this](SimTime now) { sample_metrics(now); };
}

void SystemRunner::sample_metrics(SimTime now) {
  obs::MetricsRegistry* metrics = options_.metrics;
  // A resumed run may re-arm the sampler timer without a registry (the
  // timer must survive so the kernel's pending set stays identical).
  if (metrics == nullptr) return;
  const auto sample_server = [&](const HtcServer& server) {
    const std::string& name = server.name();
    metrics->sample(now, name + ".queue_depth",
                    static_cast<double>(server.queue_length()));
    metrics->sample(now, name + ".busy", static_cast<double>(server.busy()));
    metrics->sample(now, name + ".idle", static_cast<double>(server.idle()));
    metrics->sample(now, name + ".down", static_cast<double>(server.down()));
    metrics->sample(now, name + ".owned", static_cast<double>(server.owned()));
    metrics->sample(now, name + ".backfill_hits",
                    static_cast<double>(server.backfill_hits()));
  };
  for (const auto& server : htc_servers_) sample_server(*server);
  for (const auto& server : mtc_servers_) sample_server(*server);
  for (const auto& runner : runners_) {
    metrics->sample(now, runner->name() + ".held",
                    static_cast<double>(runner->healthy_nodes()));
  }
  metrics->sample(now, "platform.allocated",
                  static_cast<double>(provision_->allocated()));
  metrics->sample(now, "platform.waiting",
                  static_cast<double>(provision_->waiting_requests()));
  metrics->sample(now, "platform.rejected",
                  static_cast<double>(provision_->rejected_requests()));
}

void SystemRunner::run_until(SimTime t) {
  if (options_.profile == nullptr) {
    sim_.run_until(t);
    return;
  }
  const std::uint64_t before = sim_.events_processed();
  const auto start = std::chrono::steady_clock::now();
  sim_.run_until(t);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  options_.profile->add(
      obs::ProfilePhase::kDispatch,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()),
      sim_.events_processed() - before);
}

template <class Io>
Status SystemRunner::persist(Io& io, Part part) {
  if constexpr (!Io::kSaving) {
    if (mode_ != Mode::kRestore) {
      return Status::failed_precondition(
          "restore() needs a Mode::kRestore runner — a fresh runner has "
          "already armed its t=0 events and the kernel is not virgin");
    }
  }
  const auto meta = [&]() -> Status {
    std::string model_name = system_model_name(model_);
    if (auto st = io.str("model", model_name); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (model_name != system_model_name(model_)) {
        return Status::failed_precondition(
            str_format("snapshot was taken for model %s but this runner is "
                       "built for %s",
                       model_name.c_str(), system_model_name(model_)));
      }
    }
    SimTime horizon = horizon_;
    std::uint64_t htc_specs = workload_.htc.size();
    std::uint64_t mtc_specs = workload_.mtc.size();
    bool faults = injector_.has_value();
    if (auto st = io.i64("horizon", horizon); !st.is_ok()) return st;
    if (auto st = io.u64("htc_specs", htc_specs); !st.is_ok()) return st;
    if (auto st = io.u64("mtc_specs", mtc_specs); !st.is_ok()) return st;
    if (auto st = io.boolean("faults", faults); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (horizon != horizon_ || htc_specs != workload_.htc.size() ||
          mtc_specs != workload_.mtc.size() ||
          faults != injector_.has_value()) {
        return Status::failed_precondition(str_format(
            "snapshot world shape (horizon %lld, %llu htc + %llu mtc specs, "
            "faults=%d) does not match the rebuilt world (horizon %lld, %zu "
            "+ %zu specs, faults=%d) — resume needs the same workload and "
            "options",
            static_cast<long long>(horizon),
            static_cast<unsigned long long>(htc_specs),
            static_cast<unsigned long long>(mtc_specs), faults ? 1 : 0,
            static_cast<long long>(horizon_), workload_.htc.size(),
            workload_.mtc.size(), injector_.has_value() ? 1 : 0));
      }
    }
    return Status::ok();
  };
  if (part != Part::kLive) {
    if (auto st = io.section("meta", meta); !st.is_ok()) return st;
    if (part == Part::kMeta) return Status::ok();
    if (auto st = io.history_section(); !st.is_ok()) return st;
  }

  SimTime now = sim_.now();
  std::uint64_t next_seq = sim_.next_seq();
  std::uint64_t processed = sim_.events_processed();
  std::uint64_t pending = sim_.pending_live();
  const auto kernel = [&]() -> Status {
    if (auto st = io.i64("now", now); !st.is_ok()) return st;
    if (auto st = io.u64("next_seq", next_seq); !st.is_ok()) return st;
    if (auto st = io.u64("processed", processed); !st.is_ok()) return st;
    return io.u64("pending", pending);
  };
  if (auto st = io.section("kernel", kernel); !st.is_ok()) return st;
  if constexpr (!Io::kSaving) {
    if (now < 0 || next_seq == 0 || next_seq > 0xffffffffull) {
      return Status::invalid_argument(
          str_format("kernel counters out of range (now=%lld next_seq=%llu)",
                     static_cast<long long>(now),
                     static_cast<unsigned long long>(next_seq)));
    }
    if (const auto last = io.last_history_boundary(); last && *last > now) {
      return Status::invalid_argument(str_format(
          "snapshot: its last history chunk is at t=%lld, after the "
          "snapshot's t=%lld",
          static_cast<long long>(*last), static_cast<long long>(now)));
    }
    sim_.begin_restore(now, static_cast<std::uint32_t>(next_seq), processed);
  }

  if (auto st = io.section("provision", *provision_); !st.is_ok()) return st;
  if (lifecycle_) {
    if (auto st = io.section("lifecycle", *lifecycle_); !st.is_ok()) return st;
  }
  if (auto st = io.section("emulator", *emulator_); !st.is_ok()) return st;
  for (const auto& server : htc_servers_) {
    if (auto st = io.section("htc:" + server->name(), *server); !st.is_ok()) {
      return st;
    }
  }
  for (const auto& server : mtc_servers_) {
    if (auto st = io.section("mtc:" + server->name(), *server); !st.is_ok()) {
      return st;
    }
  }
  for (const auto& runner : runners_) {
    if (auto st = io.section("drp:" + runner->name(), *runner); !st.is_ok()) {
      return st;
    }
  }
  if (injector_) {
    if (auto st = io.section("faults", *injector_); !st.is_ok()) return st;
  }

  // Observability travels with the world: the trace ring (so a resumed
  // run's export is byte-identical to an uninterrupted one) and the
  // metrics-sampler timer (part of the kernel's pending set).
  const auto observability = [&]() -> Status {
    bool has_trace = options_.trace != nullptr;
    if (auto st = io.boolean("has_trace", has_trace); !st.is_ok()) return st;
    obs::TraceSink* trace = options_.trace;
    std::optional<obs::TraceSink> scratch;
    if constexpr (!Io::kSaving) {
      if (options_.replay) {
        // Replay-attach (docs/OBSERVABILITY.md "Time-travel analysis"):
        // the snapshot's ring describes the past — everything emitted
        // before the boundary — but a replay wants only the window ahead,
        // and may attach a sink to a run that was never traced. Decode a
        // saved ring into a discarded scratch sink so the reader stays
        // aligned; the caller's sink (if any) starts empty at the boundary.
        trace = has_trace ? &scratch.emplace() : nullptr;
      } else if (has_trace != (options_.trace != nullptr)) {
        return Status::failed_precondition(
            has_trace
                ? "snapshot carries a trace ring but this resume has no "
                  "trace sink — resume with --trace-out (the ring is part "
                  "of the byte-identity contract)"
                : "this resume has a trace sink but the snapshot carries "
                  "no trace ring — the original run was not traced");
      }
    }
    if (trace != nullptr) {
      if (auto st = io.part(*trace); !st.is_ok()) return st;
    }
    // Re-armed even when this resume passes no registry: the timer's fire
    // events are part of the kernel's pending set and sequence stream, so
    // dropping it would diverge from the uninterrupted run. The callback
    // no-ops without a registry.
    return persist_timer(io, sim_,
                         {"sampler_pending", "sampler_next_fire",
                          "sampler_seq", "sampler_period"},
                         sampler_timer_, [&] { return make_sampler(); });
  };
  if (auto st = io.section("obs", observability); !st.is_ok()) return st;

  if constexpr (!Io::kSaving) {
    if (auto st = sim_.finish_restore(pending); !st.is_ok()) return st;
    if (auto st = provision_->verify_waiting_restored(); !st.is_ok()) {
      return st;
    }
    if (auto st = io.finish_history(); !st.is_ok()) return st;
    // Later saves continue the restored history, so they write the bytes
    // the uninterrupted run wrote.
    history_.seed(io);
  }
  return Status::ok();
}

Status SystemRunner::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<SystemRunner&>(*this).persist(writer);
}

Status SystemRunner::save_file(const std::string& path) {
  std::optional<obs::PhaseProfiler::Scope> timer;
  if (options_.profile != nullptr) {
    timer.emplace(options_.profile, obs::ProfilePhase::kSnapshotSave);
  }
  // The run's history is walked and hashed once; each save adds the chunk
  // of rows that became final since the last and walks only the live
  // sections. A ring whose history has come to hold as many dropped rows
  // as kept ones asks for a fresh history, which the second pass writes.
  for (bool fresh = history_.empty();; fresh = true) {
    if (history_.empty()) {
      snapshot::SnapshotWriter head;
      if (auto st = persist(head, Part::kMeta); !st.is_ok()) return st;
      history_.start(std::move(head));
    }
    snapshot::SnapshotWriter live;
    history_.open_chunk(sim_.now(), live);
    if (auto st = persist(live, Part::kLive); !st.is_ok()) {
      history_.reset();
      return st;
    }
    if (!history_.rebase_requested() || fresh) {
      return history_.write_file(path, live);
    }
    history_.reset();
  }
}

Status SystemRunner::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

Status SystemRunner::restore_file(const std::string& path) {
  std::optional<obs::PhaseProfiler::Scope> timer;
  if (options_.profile != nullptr) {
    timer.emplace(options_.profile, obs::ProfilePhase::kSnapshotRestore);
  }
  auto reader = snapshot::SnapshotReader::from_file(path);
  if (!reader.is_ok()) return reader.status();
  return restore(*reader);
}

SystemResult SystemRunner::finalize() {
  assert(!finalized_ && "finalize() is one-shot");
  finalized_ = true;
  const SimTime horizon = horizon_;

  SystemResult result;
  result.model = model_;
  result.horizon = horizon;

  if (model_ == SystemModel::kDrp) {
    for (std::size_t i = 0; i < runners_.size(); ++i) {
      const DrpRunner& runner = *runners_[i];
      ProviderResult provider;
      provider.provider = runner.name();
      provider.type = runner_types_[i];
      provider.submitted_jobs = runner.submitted_jobs();
      provider.completed_jobs = runner.completed_jobs(horizon);
      provider.consumption_node_hours =
          runner.ledger().billed_node_hours_with_quantum(
              horizon, options_.billing_quantum);
      provider.exact_node_hours = runner.ledger().exact_node_hours(horizon);
      provider.peak_nodes = runner.held_usage().peak();
      provider.makespan = runner.makespan(horizon);
      if (runner_types_[i] == WorkloadType::kMtc) {
        provider.tasks_per_second = runner.tasks_per_second(horizon);
      }
      provider.jobs_killed = runner.jobs_killed();
      provider.jobs_failed = runner.jobs_failed();
      provider.goodput_node_hours = runner.goodput_node_hours(horizon);
      provider.wasted_node_hours = runner.wasted_node_hours();
      // A failed VM's lease ends at the failure instant: the DRP user
      // never holds broken capacity, so availability is 1 by construction
      // — the failures show up as wasted re-run hours instead.
      provider.availability = 1.0;
      result.total_consumption_node_hours += provider.consumption_node_hours;
      result.jobs_killed += provider.jobs_killed;
      result.jobs_failed += provider.jobs_failed;
      result.goodput_node_hours += provider.goodput_node_hours;
      result.wasted_node_hours += provider.wasted_node_hours;
      result.providers.push_back(std::move(provider));
    }
  } else {
    for (auto& server : htc_servers_) server->shutdown();
    for (auto& server : mtc_servers_) server->shutdown();
    for (std::size_t i = 0; i < htc_servers_.size(); ++i) {
      result.providers.push_back(
          make_result_from_server(*htc_servers_[i], WorkloadType::kHtc, horizon,
                                  options_.billing_quantum));
    }
    for (std::size_t i = 0; i < mtc_servers_.size(); ++i) {
      ProviderResult provider =
          make_result_from_server(*mtc_servers_[i], WorkloadType::kMtc, horizon,
                                  options_.billing_quantum);
      provider.makespan = mtc_servers_[i]->makespan(horizon);
      provider.tasks_per_second = mtc_servers_[i]->tasks_per_second(horizon);
      result.providers.push_back(std::move(provider));
    }
    for (const ProviderResult& provider : result.providers) {
      result.total_consumption_node_hours += provider.consumption_node_hours;
      result.jobs_killed += provider.jobs_killed;
      result.jobs_failed += provider.jobs_failed;
      result.goodput_node_hours += provider.goodput_node_hours;
      result.wasted_node_hours += provider.wasted_node_hours;
    }
    AvailabilityAccumulator aggregate;
    for (auto& server : htc_servers_) {
      aggregate.add(server->held_usage().node_hours(horizon),
                    server->availability(horizon));
    }
    for (auto& server : mtc_servers_) {
      aggregate.add(server->held_usage().node_hours(horizon),
                    server->availability(horizon));
    }
    result.availability = aggregate.value();
  }

  if (injector_) {
    result.failure_events = injector_->failure_events();
    result.nodes_failed = injector_->nodes_failed();
    result.nodes_repaired = injector_->nodes_repaired();
  }
  result.peak_nodes = provision_->usage().peak();
  result.adjusted_nodes = provision_->adjustments().total_adjusted_nodes();
  result.overhead_seconds = provision_->adjustments().overhead_seconds();
  result.overhead_seconds_per_hour =
      provision_->adjustments().overhead_seconds_per_hour(horizon);
  result.rejected_requests = provision_->rejected_requests();
  result.simulated_events = sim_.events_processed();
  result.hourly_peak_series = provision_->usage().hourly_peak_series(horizon);

  if (options_.profile != nullptr) {
    options_.profile->note("events_processed",
                           static_cast<double>(sim_.events_processed()));
    options_.profile->note("peak_pending",
                           static_cast<double>(sim_.peak_pending()));
    if (options_.trace != nullptr) {
      options_.profile->note("trace_events_emitted",
                             static_cast<double>(options_.trace->emitted()));
      options_.profile->note("trace_events_dropped",
                             static_cast<double>(options_.trace->dropped()));
    }
  }
  return result;
}

std::string snapshot_path(const std::string& dir, SystemModel model,
                          SimTime t) {
  return str_format("%s/%s_t%012lld.dcsnap", dir.c_str(),
                    system_model_name(model), static_cast<long long>(t));
}

StatusOr<std::vector<SnapshotBoundary>> list_snapshot_boundaries(
    const std::string& dir, SystemModel model) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::not_found("snapshot directory '" + dir +
                             "': " + ec.message());
  }
  const std::string prefix = std::string(system_model_name(model)) + "_t";
  const std::string suffix = ".dcsnap";
  std::vector<SnapshotBoundary> boundaries;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    boundaries.push_back(
        {std::strtoll(digits.c_str(), nullptr, 10), entry.path().string()});
  }
  std::sort(boundaries.begin(), boundaries.end(),
            [](const SnapshotBoundary& a, const SnapshotBoundary& b) {
              return a.time != b.time ? a.time < b.time : a.path < b.path;
            });
  return boundaries;
}

namespace {

/// Newest snapshot of `model` in `dir` whose stream verifies and declares
/// that model; others are skipped with a warning. "" when `dir` holds no
/// candidate at all (fresh start); an error when every candidate is
/// unusable — restarting from nothing would be a wrong answer.
StatusOr<std::string> latest_valid_snapshot(const std::string& dir,
                                            SystemModel model) {
  auto candidates = list_snapshot_boundaries(dir, model);
  if (!candidates.is_ok()) return candidates.status();
  if (candidates->empty()) return std::string();
  for (auto it = candidates->rbegin(); it != candidates->rend(); ++it) {
    const std::string& path = it->path;
    auto reader = snapshot::SnapshotReader::from_file(path);
    if (!reader.is_ok()) {
      Log::raw(LogLevel::kWarn, "skipping snapshot %s: %s", path.c_str(),
               reader.status().message().c_str());
      continue;
    }
    std::string found_model;
    Status st = reader->begin_section("meta");
    if (st.is_ok()) st = reader->str("model", found_model);
    if (!st.is_ok() || found_model != system_model_name(model)) {
      Log::raw(LogLevel::kWarn, "skipping snapshot %s: %s", path.c_str(),
               st.is_ok() ? ("model mismatch: " + found_model).c_str()
                          : st.message().c_str());
      continue;
    }
    return path;
  }
  return Status::failed_precondition(str_format(
      "snapshot directory '%s' holds %zu candidate snapshot(s) for %s but "
      "none verifies — refusing to silently restart from scratch; remove "
      "the files to start a fresh run",
      dir.c_str(), candidates->size(), system_model_name(model)));
}

}  // namespace

StatusOr<SystemResult> run_system_snapshotted(
    SystemModel model, const ConsolidationWorkload& workload,
    const RunOptions& options, const SnapshotPolicy& policy) {
  if (policy.every > 0 && policy.dir.empty()) {
    return Status::invalid_argument(
        "periodic snapshots need a directory (SnapshotPolicy.dir)");
  }
  if (!policy.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(policy.dir, ec);
    if (ec) {
      return Status::internal("cannot create snapshot directory '" +
                              policy.dir + "': " + ec.message());
    }
  }

  std::unique_ptr<SystemRunner> runner;
  if (policy.resume || !policy.resume_from.empty()) {
    std::string path = policy.resume_from;
    if (path.empty()) {
      auto found = latest_valid_snapshot(policy.dir, model);
      if (!found.is_ok()) return found.status();
      path = *found;
    }
    if (!path.empty()) {
      runner = std::make_unique<SystemRunner>(model, workload, options,
                                              SystemRunner::Mode::kRestore);
      if (auto st = runner->restore_file(path); !st.is_ok()) return st;
      Log::raw(LogLevel::kInfo, "resumed %s from %s at t=%lld",
               system_model_name(model), path.c_str(),
               static_cast<long long>(runner->now()));
    }
  }
  if (!runner) {
    runner = std::make_unique<SystemRunner>(model, workload, options);
  }

  // Boundaries sit at fixed multiples of the interval regardless of where
  // a resume started, so continuous and resumed runs snapshot at identical
  // instants. Without an interval the one chunk ends at the horizon.
  const SimTime horizon = runner->horizon();
  SimTime t = runner->now();
  do {
    t = policy.every > 0
            ? std::min(horizon, (t / policy.every + 1) * policy.every)
            : horizon;
    runner->run_until(t);
    if (t < horizon) {
      if (auto st = runner->save_file(snapshot_path(policy.dir, model, t));
          !st.is_ok()) {
        return st;
      }
    }
    if (policy.on_boundary) policy.on_boundary(t);
  } while (t < horizon);
  return runner->finalize();
}

}  // namespace dc::core
