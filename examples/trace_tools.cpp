// trace_tools: generate, inspect and convert workload traces & workflows.
//
// Usage:
//   trace_tools nasa [seed >= 0]       print stats of the synthetic NASA trace
//   trace_tools blue [seed >= 0]       print stats of the synthetic BLUE trace
//   trace_tools gen-nasa <out.swf>     write the synthetic NASA trace as SWF
//   trace_tools gen-blue <out.swf>     write the synthetic BLUE trace as SWF
//   trace_tools stats <file.swf>       print stats of any SWF trace
//   trace_tools montage [inputs >= 2]  print structure of a Montage workflow
//   trace_tools gen-montage <out.wff>  write the paper Montage workflow
//
// The "billed/used" line is the hourly-quantum rounding factor that
// determines whether the DRP model wins or loses against fixed-size
// provisioning for a given trace (Tables 2 and 3).
#include <cstdio>
#include <string>

#include "args.hpp"
#include "util/time.hpp"
#include "workflow/montage.hpp"
#include "workflow/wff.hpp"
#include "workload/models.hpp"
#include "workload/swf.hpp"
#include "workload/trace_stats.hpp"

namespace {

using namespace dc;

void print_trace_report(const workload::Trace& trace) {
  const workload::TraceStats stats = workload::compute_stats(trace);
  std::fputs(workload::format_stats(trace, stats).c_str(), stdout);
  // Hourly-quantum billing factor: sum(w * ceil(rt/1h)) / sum(w * rt/1h).
  double billed = 0.0;
  for (const workload::TraceJob& job : trace.jobs()) {
    billed += static_cast<double>(job.nodes) *
              static_cast<double>(billed_hours(job.runtime));
  }
  std::printf("  DRP billed       %.0f node*hours (billed/used = %.2f)\n",
              billed,
              stats.demand_node_hours > 0 ? billed / stats.demand_node_hours
                                          : 0.0);
}

int run_montage(std::int64_t inputs) {
  workflow::MontageParams params;
  params.inputs = inputs;
  const workflow::Dag dag = workflow::make_montage(params, /*seed=*/7);
  std::printf("montage(%lld inputs): %zu tasks, %zu edges\n",
              static_cast<long long>(inputs), dag.size(), dag.edge_count());
  std::printf("  mean runtime   %.2f s\n", dag.mean_runtime());
  std::printf("  total work     %lld s\n",
              static_cast<long long>(dag.total_work()));
  std::printf("  critical path  %lld s\n",
              static_cast<long long>(dag.critical_path()));
  const auto levels = dag.levels();
  std::printf("  levels         %zu\n", levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    std::printf("    level %zu: %zu tasks (first: %s)\n", i, levels[i].size(),
                dag.task(levels[i].front()).name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dc;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s nasa|blue|gen-nasa|gen-blue|stats|montage|gen-montage ...\n",
                 argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "nasa" || cmd == "blue") {
    const auto seed = examples::int_arg("trace_tools", argc, argv, 2, "seed", 0,
                                        cmd == "nasa" ? 42 : 43);
    if (!seed) return 2;
    const auto trace_seed = static_cast<std::uint64_t>(*seed);
    const workload::Trace trace = cmd == "nasa"
                                      ? workload::make_nasa_ipsc(trace_seed)
                                      : workload::make_sdsc_blue(trace_seed);
    print_trace_report(trace);
    return 0;
  }
  if (cmd == "gen-nasa" || cmd == "gen-blue") {
    if (argc < 3) {
      std::fprintf(stderr, "missing output path\n");
      return 2;
    }
    const workload::Trace trace = cmd == "gen-nasa"
                                      ? workload::make_nasa_ipsc()
                                      : workload::make_sdsc_blue();
    const auto status = workload::write_swf_file(argv[2], trace.to_swf());
    if (!status.is_ok()) {
      std::fprintf(stderr, "%s\n", status.to_string().c_str());
      return 1;
    }
    std::printf("wrote %zu jobs to %s\n", trace.size(), argv[2]);
    return 0;
  }
  if (cmd == "stats") {
    if (argc < 3) {
      std::fprintf(stderr, "missing SWF path\n");
      return 2;
    }
    auto swf = workload::read_swf_file(argv[2]);
    if (!swf.is_ok()) {
      std::fprintf(stderr, "%s\n", swf.status().to_string().c_str());
      return 1;
    }
    auto trace = workload::Trace::from_swf(*swf, argv[2]);
    if (!trace.is_ok()) {
      std::fprintf(stderr, "%s\n", trace.status().to_string().c_str());
      return 1;
    }
    print_trace_report(*trace);
    return 0;
  }
  if (cmd == "montage") {
    const auto inputs =
        examples::int_arg("trace_tools", argc, argv, 2, "inputs", 2, 166);
    return inputs ? run_montage(*inputs) : 2;
  }
  if (cmd == "gen-montage") {
    if (argc < 3) {
      std::fprintf(stderr, "missing output path\n");
      return 2;
    }
    const workflow::Dag dag = workflow::make_paper_montage();
    const auto status = workflow::write_wff_file(argv[2], dag);
    if (!status.is_ok()) {
      std::fprintf(stderr, "%s\n", status.to_string().c_str());
      return 1;
    }
    std::printf("wrote %zu tasks to %s\n", dag.size(), argv[2]);
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
