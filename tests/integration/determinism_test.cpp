// Seed-determinism regression: one seed, one answer — regardless of how
// many threads a parallel sweep uses. Runs the full four-system experiment
// plus invoice generation at 1 and at 4 threads and asserts every rendered
// artifact (tables, CSV, invoices) is byte-identical, pinning the
// reproducibility contract that dc-lint enforces statically
// (docs/STATIC_ANALYSIS.md).
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault/fault_domain.hpp"
#include "core/htc_server.hpp"
#include "core/mtc_server.hpp"
#include "core/systems.hpp"
#include "cost/invoice.hpp"
#include "metrics/report.hpp"
#include "sched/fcfs.hpp"
#include "sched/first_fit.hpp"
#include "sim/simulator.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "workflow/montage.hpp"
#include "workload/models.hpp"

namespace dc {
namespace {

// FNV-1a, the digest we'd publish next to result artifacts.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

core::ConsolidationWorkload make_workload() {
  workload::SyntheticTraceSpec trace_spec;
  trace_spec.name = "det";
  trace_spec.capacity_nodes = 32;
  trace_spec.period = 2 * kDay;
  trace_spec.submit_margin = 2 * kHour;
  trace_spec.jobs_per_day = 150;
  trace_spec.width_weights = {{1, 0.4}, {2, 0.3}, {4, 0.2}, {8, 0.08}, {32, 0.02}};
  trace_spec.hyper_p = 0.9;
  trace_spec.hyper_mean1 = 500;
  trace_spec.hyper_mean2 = 4000;

  core::HtcWorkloadSpec htc;
  htc.name = "det";
  htc.trace = workload::generate_trace(trace_spec, /*seed=*/11);
  htc.fixed_nodes = 32;
  htc.policy = core::ResourceManagementPolicy::htc(8, 1.5, 32);

  workflow::MontageParams params;
  params.inputs = 20;
  core::MtcWorkloadSpec mtc;
  mtc.name = "wf";
  mtc.dag = workflow::make_montage(params, /*seed=*/5);
  mtc.submit_time = 6 * kHour;
  mtc.fixed_nodes = 20;
  mtc.policy = core::ResourceManagementPolicy::mtc(4, 8.0);

  core::ConsolidationWorkload workload;
  workload.htc.push_back(std::move(htc));
  workload.mtc.push_back(std::move(mtc));
  return workload;
}

// An elastic HTC scenario that exercises demand-driven leasing, so the
// invoice has real DR line items, generated inside a parallel region.
std::string elastic_invoice(std::size_t variant) {
  sim::Simulator sim;
  core::ResourceProvisionService provision{cluster::ResourcePool::unbounded()};
  sched::FirstFitScheduler scheduler;
  core::HtcServer::Config config;
  config.name = "elastic-" + std::to_string(variant);
  config.policy = core::ResourceManagementPolicy::htc(4, 1.5, 64);
  config.scheduler = &scheduler;
  core::HtcServer server(sim, provision, std::move(config));
  sim.schedule_at(0, [&] {
    server.start();
    for (std::size_t j = 0; j < 24; ++j) {
      // Deterministic arithmetic workload, distinct per variant.
      const SimDuration runtime =
          static_cast<SimDuration>(120 + 37 * j + 11 * variant);
      const std::int64_t nodes = static_cast<std::int64_t>(1 + (j + variant) % 8);
      sim.schedule_in(static_cast<SimDuration>(60 * j), [&server, runtime, nodes] {
        server.submit(runtime, nodes);
      });
    }
  });
  // Bounded run: the elastic scan timer keeps the event queue non-empty
  // forever, so run() would never return.
  sim.run_until(24 * kHour);
  const cost::Invoice invoice = cost::generate_summary_invoice(
      config.name, server.ledger(), /*horizon=*/24 * kHour, /*price=*/0.10);
  return cost::format_invoice(invoice);
}

struct Artifacts {
  std::string tables;
  std::string csv;
  std::string invoices;
  std::uint64_t digest = 0;
};

// googletest: ASSERT_* needs a void return, so results land in `out`.
void run_experiment(std::size_t threads, Artifacts* out) {
  *out = Artifacts{};
  const core::ConsolidationWorkload workload = make_workload();

  // The four systems evaluated concurrently, `threads` at a time — the same
  // shape as the figure benches.
  core::RunOptions options;
  const std::vector<core::SystemModel> models = {
      core::SystemModel::kDcs, core::SystemModel::kSsp, core::SystemModel::kDrp,
      core::SystemModel::kDawningCloud};
  const std::vector<core::SystemResult> systems =
      parallel_map_index<core::SystemResult>(
          models.size(),
          [&](std::size_t i) {
            return core::run_system(models[i], workload, options);
          },
          threads);

  Artifacts& artifacts = *out;
  artifacts.tables = metrics::format_htc_provider_table(systems, "det", "HTC");
  artifacts.tables += metrics::format_mtc_provider_table(systems, "wf", "MTC");
  artifacts.tables += metrics::format_resource_provider_report(systems);
  artifacts.tables += metrics::format_overhead_report(systems);

  const std::string csv_path = ::testing::TempDir() + "determinism_" +
                               std::to_string(threads) + ".csv";
  {
    CsvWriter csv(csv_path);
    ASSERT_TRUE(csv.ok()) << csv_path;
    metrics::write_results_csv(csv, systems);
  }
  std::ifstream in(csv_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  artifacts.csv = buf.str();
  ASSERT_FALSE(artifacts.csv.empty());

  const std::vector<std::string> invoices = parallel_map_index<std::string>(
      4, [](std::size_t i) { return elastic_invoice(i); }, threads);
  for (const std::string& invoice : invoices) artifacts.invoices += invoice;

  artifacts.digest =
      fnv1a(artifacts.tables + artifacts.csv + artifacts.invoices);
}

TEST(Determinism, SameSeedSameResultAcrossThreadCounts) {
  Artifacts single;
  Artifacts pooled;
  run_experiment(1, &single);
  run_experiment(4, &pooled);

  // Byte-identical first (the failure message names the artifact), then the
  // digest — the value a results pipeline would publish and diff.
  EXPECT_EQ(single.tables, pooled.tables);
  EXPECT_EQ(single.csv, pooled.csv);
  EXPECT_EQ(single.invoices, pooled.invoices);
  EXPECT_EQ(single.digest, pooled.digest);
}

// A Montage campaign on a fixed MTC server with a seeded failure domain
// injecting through the full failure -> repair lifecycle, rendered to a
// stable metrics line. Runs inside parallel regions, so any hidden global
// state in the fault subsystem would show up as cross-thread divergence.
std::string faulted_mtc_artifact(std::size_t variant) {
  sim::Simulator sim;
  core::ResourceProvisionService provision{cluster::ResourcePool::unbounded()};
  sched::FcfsScheduler fcfs;
  core::MtcServer::MtcConfig config;
  config.name = "wf-" + std::to_string(variant);
  config.fixed_nodes = 166;
  config.scheduler = &fcfs;
  core::MtcServer server(sim, provision, std::move(config));
  sim.schedule_at(0, [&] {
    server.start();
    server.submit_workflow(
        workflow::make_paper_montage(/*seed=*/7 + variant));
  });
  // The campaign is short (~380 s on 166 nodes, and the TRE destroys itself
  // at completion), so inject aggressively enough to overlap it.
  core::fault::FaultDomain::Config faults;
  faults.mean_time_between_failures = kMinute;
  faults.mean_time_to_repair = 2 * kMinute;
  faults.seed = 1337 + variant;
  core::fault::FaultDomain domain(sim, faults);
  domain.watch(&server);
  sim.schedule_at(1, [&] { domain.start(5 * kMinute); });
  sim.run_until(kDay);
  EXPECT_GT(domain.failure_events(), 0) << "the scenario must exercise faults";
  EXPECT_TRUE(server.all_workflows_complete());
  std::ostringstream out;
  out << config.name << " tasks=" << server.completed_tasks()
      << " retries=" << server.job_retries()
      << " failures=" << domain.failure_events()
      << " nodes_failed=" << domain.nodes_failed()
      << " nodes_repaired=" << domain.nodes_repaired()
      << " finish=" << server.last_finish() << " avail_ppb="
      << static_cast<std::int64_t>(server.availability(kDay) * 1e9) << "\n";
  return out.str();
}

TEST(Determinism, FaultedMtcRunsAreByteIdenticalAcrossThreadCounts) {
  auto run_all = [](std::size_t threads) {
    const std::vector<std::string> parts = parallel_map_index<std::string>(
        4, [](std::size_t i) { return faulted_mtc_artifact(i); }, threads);
    std::string all;
    for (const std::string& part : parts) all += part;
    return all;
  };
  const std::string single = run_all(1);
  const std::string pooled = run_all(4);
  EXPECT_EQ(single, pooled);
  EXPECT_EQ(fnv1a(single), fnv1a(pooled));
}

TEST(Determinism, MtcTaskFailureReplaysOnlyTheAffectedSubtree) {
  struct Outcome {
    std::int64_t submitted;
    std::int64_t completed;
    std::int64_t retries;
    SimTime finish;
  };
  auto run = [](bool inject) -> Outcome {
    sim::Simulator sim;
    core::ResourceProvisionService provision{
        cluster::ResourcePool::unbounded()};
    sched::FcfsScheduler fcfs;
    core::MtcServer::MtcConfig config;
    config.name = "wf";
    config.fixed_nodes = 166;
    config.scheduler = &fcfs;
    core::MtcServer server(sim, provision, std::move(config));
    sim.schedule_at(0, [&] {
      server.start();
      server.submit_workflow(workflow::make_paper_montage());
    });
    if (inject) {
      // Soak up the idle nodes, then take exactly one busy node down: one
      // running task dies and is transparently replaced.
      sim.schedule_at(60, [&] {
        const std::int64_t count = server.idle() + 1;
        EXPECT_EQ(server.fail_nodes(count), 1);
        server.repair_nodes(count);
      });
    }
    sim.run_until(kDay);
    EXPECT_TRUE(server.all_workflows_complete());
    return Outcome{server.submitted_jobs(), server.completed_tasks(),
                   server.job_retries(), server.last_finish()};
  };
  const Outcome baseline = run(false);
  const Outcome faulted = run(true);
  EXPECT_EQ(baseline.completed, 1000);
  EXPECT_EQ(faulted.completed, 1000);
  // Only the killed task replays: its descendants were merely delayed (their
  // dependencies had not released them yet), so no cascade of re-submission
  // and exactly one retry.
  EXPECT_EQ(faulted.retries, 1);
  EXPECT_EQ(faulted.submitted, baseline.submitted)
      << "a retry re-queues the same job, it does not mint new ones";
  EXPECT_GE(faulted.finish, baseline.finish);
}

TEST(Determinism, RepeatedRunIsStableWithinProcess) {
  // Same thread count, run twice: catches address-dependent ordering
  // (pointer-keyed containers, uninitialized reads) that varies run to run.
  Artifacts first;
  Artifacts second;
  run_experiment(4, &first);
  run_experiment(4, &second);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.tables, second.tables);
}

}  // namespace
}  // namespace dc
