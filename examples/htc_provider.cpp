// htc_provider: an HTC service provider evaluating its options.
//
// Scenario (the paper's introduction): a medium-size research organization
// runs batch jobs and must decide between buying a dedicated cluster (DCS),
// renting a fixed-size virtual cluster (SSP), letting each user lease VMs
// directly (DRP), or subscribing to a DawningCloud runtime environment
// (DSP). This example runs the organization's trace through all four and
// prints the provider-facing metrics plus the monthly bill.
//
// Usage: htc_provider [nasa|blue] [seed >= 0]
#include <cstdio>
#include <string>

#include "args.hpp"
#include "core/htc_server.hpp"
#include "core/job_emulator.hpp"
#include "core/paper.hpp"
#include "core/systems.hpp"
#include "cost/invoice.hpp"
#include "cost/tco.hpp"
#include "metrics/report.hpp"
#include "sched/first_fit.hpp"
#include "util/strings.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace dc;
  const std::string which = argc > 1 ? argv[1] : "nasa";
  if (which != "nasa" && which != "blue") {
    examples::refuse("htc_provider", "provider", which.c_str(),
                     "want nasa or blue");
    return 2;
  }
  const auto parsed_seed = examples::int_arg(
      "htc_provider", argc, argv, 2, "seed", 0,
      static_cast<std::int64_t>(which == "nasa" ? core::PaperSeeds{}.nasa
                                                : core::PaperSeeds{}.blue));
  if (!parsed_seed) return 2;
  const auto seed = static_cast<std::uint64_t>(*parsed_seed);

  core::HtcWorkloadSpec spec = which == "blue" ? core::paper_blue_spec(seed)
                                               : core::paper_nasa_spec(seed);
  std::printf("Service provider '%s' evaluating usage models\n\n",
              spec.name.c_str());
  std::fputs(workload::format_stats(spec.trace,
                                    workload::compute_stats(spec.trace))
                 .c_str(),
             stdout);
  std::printf("\nDawningCloud policy: B=%lld initial nodes, R=%.1f threshold, "
              "subscription %lld nodes\n\n",
              static_cast<long long>(spec.policy.initial_nodes),
              spec.policy.threshold_ratio,
              static_cast<long long>(spec.policy.max_nodes));

  const std::string provider = spec.name;
  const auto results =
      core::run_all_systems(core::single_htc_workload(std::move(spec)));

  std::puts(metrics::format_htc_provider_table(
                results, provider, "Provider metrics across usage models")
                .c_str());

  // Price each option: DCS via the ownership cost model scaled to this
  // provider's cluster size, the cloud options via on-demand node*hours
  // (two weeks scaled to a month).
  const std::int64_t dcs_nodes =
      metrics::result_for(results, core::SystemModel::kDcs)
          .provider(provider)
          .peak_nodes;
  std::puts("Monthly cost estimate:");
  std::printf("  %-14s $%8.0f  (ownership of %lld nodes: depreciation + "
              "maintenance + energy)\n",
              "DCS", cost::dcs_cost_for_nodes(dcs_nodes),
              static_cast<long long>(dcs_nodes));
  for (const auto& result : results) {
    if (result.model == core::SystemModel::kDcs) continue;
    const auto node_hours =
        result.provider(provider).consumption_node_hours;
    const double monthly =
        cost::consumption_cost_usd(node_hours) * 30.0 / 14.0;
    std::printf("  %-14s $%8.0f  (%lld node*hours over two weeks @ $0.10)\n",
                system_model_name(result.model), monthly,
                static_cast<long long>(node_hours));
  }

  // The DawningCloud bill, itemized: rerun the elastic server standalone to
  // get at its lease ledger and print the resource provider's invoice.
  {
    const core::HtcWorkloadSpec respec = which == "blue"
                                             ? core::paper_blue_spec(seed)
                                             : core::paper_nasa_spec(seed);
    sim::Simulator sim;
    core::ResourceProvisionService provision(cluster::ResourcePool::unbounded());
    sched::FirstFitScheduler first_fit;
    core::HtcServer::Config config;
    config.name = respec.name;
    config.policy = respec.policy;
    config.scheduler = &first_fit;
    core::HtcServer server(sim, provision, std::move(config));
    sim.schedule_at(0, [&server] { server.start(); });
    core::JobEmulator emulator(sim);
    emulator.emulate_trace(respec.trace, [&server](const workload::TraceJob& j) {
      server.submit(j.runtime, j.nodes);
    });
    const SimTime horizon = respec.trace.period();
    sim.run_until(horizon);
    server.shutdown();
    std::puts("");
    std::puts(cost::format_invoice(
                  cost::generate_summary_invoice(respec.name, server.ledger(),
                                                 horizon),
                  /*max_lines=*/10)
                  .c_str());
  }
  return 0;
}
