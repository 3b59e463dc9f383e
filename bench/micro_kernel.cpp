// Performance microbenchmarks (google-benchmark) for the simulator
// substrate: regression guardrails that keep the sweep benches fast.
//
// The kernel benchmarks isolate what they claim to measure: schedule
// times are pre-generated and Simulator construction/destruction happens
// with timing paused, so items_per_second reflects schedule_at + dispatch
// cost, not RNG draws or allocator warm-up. `make bench-kernel`
// regenerates BENCH_kernel.json from these numbers.
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/paper.hpp"
#include "core/systems.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/first_fit.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workflow/montage.hpp"
#include "workload/models.hpp"
#include "workload/swf.hpp"

namespace {

using namespace dc;

void BM_EventQueueThroughput(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::vector<SimTime> times(events);
  Rng rng(7);
  for (auto& t : times) t = rng.uniform_int(0, 1'000'000);
  std::int64_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<sim::Simulator>();
    sim->reserve(events);
    state.ResumeTiming();
    for (const SimTime t : times) {
      sim->schedule_at(t, [&counter] { ++counter; });
    }
    sim->run();
    state.PauseTiming();
    sim.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1 << 12)->Arg(1 << 16);

// Cancellation-heavy workload: every other scheduled event is cancelled
// before the run. With the indexed heap, each cancel() excises its queue
// node immediately; the run phase then dispatches only the survivors —
// there are no tombstones to pop over.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::vector<SimTime> times(events);
  Rng rng(11);
  for (auto& t : times) t = rng.uniform_int(0, 1'000'000);
  std::vector<sim::EventId> ids(events);
  std::int64_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<sim::Simulator>();
    sim->reserve(events);
    state.ResumeTiming();
    for (std::size_t i = 0; i < events; ++i) {
      ids[i] = sim->schedule_at(times[i], [&counter] { ++counter; });
    }
    for (std::size_t i = 0; i < events; i += 2) {
      benchmark::DoNotOptimize(sim->cancel(ids[i]));
    }
    sim->run();
    state.PauseTiming();
    sim.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1 << 12)->Arg(1 << 16);

// Coincident timestamps: 16 events per timestamp scheduled in interleaved
// order, the shape of a scan tick completing a whole backlog at once.
void BM_BatchedDispatch(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  const std::size_t stamps = events / 16;
  std::vector<SimTime> times(events);
  for (std::size_t i = 0; i < events; ++i) {
    times[i] = static_cast<SimTime>(i % stamps);
  }
  std::int64_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<sim::Simulator>();
    sim->reserve(events);
    state.ResumeTiming();
    for (const SimTime t : times) {
      sim->schedule_at(t, [&counter] { ++counter; });
    }
    sim->run();
    state.PauseTiming();
    sim.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_BatchedDispatch)->Arg(1 << 16);

void BM_PeriodicTimers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fires = 0;
    for (int i = 0; i < 16; ++i) {
      sim.start_periodic(i + 1, 60, [&fires](SimTime) { ++fires; });
    }
    sim.run_until(24 * kHour);
    benchmark::DoNotOptimize(fires);
  }
}
BENCHMARK(BM_PeriodicTimers);

// Timer-heavy variant: 256 concurrent periodic timers with staggered
// phases and mixed periods, the shape of a large DawningCloud deployment
// (every daemon owns scan/heartbeat/accounting timers). Stresses the
// re-arm path: each fire pops, re-pushes, and dispatches with no hash
// lookups.
void BM_PeriodicTimersDense(benchmark::State& state) {
  std::int64_t total_fires = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fires = 0;
    for (int i = 0; i < 256; ++i) {
      const SimTime first = 1 + (i % 60);
      const SimDuration period = 30 + (i % 16) * 15;
      sim.start_periodic(first, period, [&fires](SimTime) { ++fires; });
    }
    sim.run_until(24 * kHour);
    benchmark::DoNotOptimize(fires);
    total_fires += fires;
  }
  state.SetItemsProcessed(total_fires);
}
BENCHMARK(BM_PeriodicTimersDense);

// Mirrors HtcServer's dispatch loop: a periodic scan schedules a batch of
// task-completion events, and every completion schedules a follow-up from
// inside its own callback (some at its own timestamp). This is the
// re-entrant pattern the production daemons drive the kernel with.
void BM_ScheduleFromCallback(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t completions = 0;
    sim.start_periodic(60, 60, [&sim, &completions](SimTime t) {
      for (int k = 0; k < 32; ++k) {
        const SimTime done = t + 1 + (k * 7) % 59;
        sim.schedule_at(done, [&sim, &completions, done] {
          ++completions;
          sim.schedule_at(done, [] {});  // follow-up dispatch, same timestamp
        });
      }
    });
    sim.run_until(4 * kHour);
    benchmark::DoNotOptimize(completions);
  }
  state.SetItemsProcessed(state.iterations() * 240 * 32 * 2);
}
BENCHMARK(BM_ScheduleFromCallback);

void BM_SwfRoundTrip(benchmark::State& state) {
  const workload::Trace trace = workload::make_nasa_ipsc(42);
  std::ostringstream out;
  workload::write_swf(out, trace.to_swf());
  const std::string text = out.str();
  for (auto _ : state) {
    auto parsed = workload::parse_swf_string(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_SwfRoundTrip);

void BM_TraceGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto trace = workload::make_sdsc_blue(seed++);
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_MontageGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto dag = workflow::make_paper_montage(seed++);
    benchmark::DoNotOptimize(dag);
  }
}
BENCHMARK(BM_MontageGeneration);

void BM_SchedulerSelect(benchmark::State& state) {
  const auto queue_size = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<sched::Job> jobs(queue_size);
  for (std::size_t i = 0; i < queue_size; ++i) {
    jobs[i].id = static_cast<sched::JobId>(i);
    jobs[i].nodes = rng.uniform_int(1, 64);
    jobs[i].runtime = rng.uniform_int(60, 7200);
  }
  std::vector<const sched::Job*> queue;
  for (const auto& job : jobs) queue.push_back(&job);
  const sched::FirstFitScheduler first_fit;
  const sched::EasyBackfillScheduler backfill;
  for (auto _ : state) {
    auto a = first_fit.select(queue, {}, 128, 0);
    auto b = backfill.select(queue, {}, 128, 0);
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queue_size));
}
BENCHMARK(BM_SchedulerSelect)->Arg(64)->Arg(1024);

void BM_FullSystemRun(benchmark::State& state) {
  const auto model = static_cast<core::SystemModel>(state.range(0));
  const auto workload = core::paper_consolidation();
  for (auto _ : state) {
    auto result = core::run_system(model, workload);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullSystemRun)
    ->Arg(static_cast<int>(core::SystemModel::kDcs))
    ->Arg(static_cast<int>(core::SystemModel::kDrp))
    ->Arg(static_cast<int>(core::SystemModel::kDawningCloud))
    ->Unit(benchmark::kMillisecond);

// Self-profiled, fully traced DawningCloud run. The elapsed time bounds
// the cost of running with every observability hook on; the profiler's
// counter block (profile_dispatch_ns, ...) is published as user counters
// so bench_to_json carries the kernel phase breakdown into
// BENCH_kernel.json alongside the throughput numbers.
void BM_ProfiledSystemRun(benchmark::State& state) {
  const auto workload = core::paper_consolidation();
  obs::PhaseProfiler profiler;
  obs::TraceSink sink;
  core::RunOptions options;
  options.profile = &profiler;
  options.trace = &sink;
  for (auto _ : state) {
    auto result =
        core::run_system(core::SystemModel::kDawningCloud, workload, options);
    benchmark::DoNotOptimize(result);
  }
  for (const auto& [name, value] : profiler.counters()) {
    state.counters[name] = value;
  }
  state.counters["trace_events_emitted"] =
      static_cast<double>(sink.emitted());
}
BENCHMARK(BM_ProfiledSystemRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
