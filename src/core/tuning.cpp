#include "core/tuning.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "core/paper.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace dc::core {
namespace {

/// Evaluates one (B, R) candidate; quality semantics depend on type.
TuningCandidate evaluate(const ConsolidationWorkload& workload,
                         WorkloadType type, const std::string& provider,
                         std::int64_t b, double r) {
  const auto result = run_system(SystemModel::kDawningCloud, workload);
  const ProviderResult& p = result.provider(provider);
  TuningCandidate candidate;
  candidate.b = b;
  candidate.r = r;
  candidate.consumption_node_hours = p.consumption_node_hours;
  candidate.quality = type == WorkloadType::kHtc
                          ? static_cast<double>(p.completed_jobs)
                          : p.tasks_per_second;
  return candidate;
}

bool better(const TuningCandidate& a, const TuningCandidate& b,
            double best_quality, double tolerance) {
  const double floor = best_quality * (1.0 - tolerance);
  const bool a_ok = a.quality >= floor;
  const bool b_ok = b.quality >= floor;
  if (a_ok != b_ok) return a_ok;
  if (a.consumption_node_hours != b.consumption_node_hours) {
    return a.consumption_node_hours < b.consumption_node_hours;
  }
  return a.quality > b.quality;
}

template <typename MakeWorkload>
TuningResult tune(WorkloadType type, const std::string& provider,
                  const ResourceManagementPolicy& base_policy,
                  MakeWorkload make_workload,
                  const std::vector<std::int64_t>& b_grid,
                  const std::vector<double>& r_grid,
                  const TuningObjective& objective) {
  assert(!b_grid.empty() && !r_grid.empty());
  TuningResult result;
  std::set<std::pair<std::int64_t, std::int64_t>> seen;  // (B, R*1000)

  auto evaluate_point = [&](std::int64_t b, double r) {
    if (b < 1 || r < 1.0) return;
    const auto key = std::make_pair(b, static_cast<std::int64_t>(r * 1000));
    if (!seen.insert(key).second) return;
    result.evaluated.push_back(
        evaluate(make_workload(b, r), type, provider, b, r));
  };

  // Grid phase: every point is independent (one Simulator each), so spread
  // it over parallel_map_index's threads; results land at fixed indices so
  // the output is identical to a sequential run.
  std::vector<std::pair<std::int64_t, double>> grid;
  for (std::int64_t b : b_grid) {
    for (double r : r_grid) {
      if (b < 1 || r < 1.0) continue;
      const auto key = std::make_pair(b, static_cast<std::int64_t>(r * 1000));
      if (seen.insert(key).second) grid.emplace_back(b, r);
    }
  }
  result.evaluated = parallel_map_index<TuningCandidate>(
      grid.size(), [&](std::size_t i) {
        const auto [b, r] = grid[i];
        return evaluate(make_workload(b, r), type, provider, b, r);
      });

  auto pick_best = [&]() -> TuningCandidate {
    double best_quality = 0.0;
    for (const auto& candidate : result.evaluated) {
      best_quality = std::max(best_quality, candidate.quality);
    }
    TuningCandidate best = result.evaluated.front();
    for (const auto& candidate : result.evaluated) {
      if (better(candidate, best, best_quality, objective.quality_tolerance)) {
        best = candidate;
      }
    }
    return best;
  };

  TuningCandidate best = pick_best();

  // Local refinement: probe half-step neighbours of the winner.
  const std::int64_t b_step = std::max<std::int64_t>(
      1, b_grid.size() > 1 ? (b_grid[1] - b_grid[0]) / 2 : 5);
  const double r_step =
      r_grid.size() > 1 ? (r_grid[1] - r_grid[0]) / 2.0 : 0.25;
  for (int round = 0; round < objective.refine_rounds; ++round) {
    for (std::int64_t db : {-b_step, std::int64_t{0}, b_step}) {
      for (double dr : {-r_step, 0.0, r_step}) {
        evaluate_point(best.b + db, best.r + dr);
      }
    }
    const TuningCandidate refined = pick_best();
    if (refined.b == best.b && refined.r == best.r) break;
    best = refined;
  }

  result.best_candidate = best;
  result.best = base_policy;
  result.best.initial_nodes = best.b;
  result.best.threshold_ratio = best.r;
  return result;
}

}  // namespace

TuningResult tune_htc_policy(const HtcWorkloadSpec& spec,
                             const std::vector<std::int64_t>& b_grid,
                             const std::vector<double>& r_grid,
                             const TuningObjective& objective) {
  auto make_workload = [&spec](std::int64_t b, double r) {
    HtcWorkloadSpec candidate = spec;
    candidate.policy.initial_nodes = b;
    candidate.policy.threshold_ratio = r;
    return single_htc_workload(std::move(candidate));
  };
  return tune(WorkloadType::kHtc, spec.name, spec.policy, make_workload,
              b_grid, r_grid, objective);
}

TuningResult tune_mtc_policy(const MtcWorkloadSpec& spec,
                             const std::vector<std::int64_t>& b_grid,
                             const std::vector<double>& r_grid,
                             const TuningObjective& objective) {
  auto make_workload = [&spec](std::int64_t b, double r) {
    MtcWorkloadSpec candidate = spec;
    candidate.policy.initial_nodes = b;
    candidate.policy.threshold_ratio = r;
    return single_mtc_workload(std::move(candidate));
  };
  return tune(WorkloadType::kMtc, spec.name, spec.policy, make_workload,
              b_grid, r_grid, objective);
}

std::string format_tuning_report(const std::string& provider,
                                 const TuningResult& result) {
  std::string out = str_format(
      "%s: best policy B=%lld R=%.2f -> %lld node*hours at quality %.2f "
      "(%zu candidates evaluated)\n",
      provider.c_str(), static_cast<long long>(result.best.initial_nodes),
      result.best.threshold_ratio,
      static_cast<long long>(result.best_candidate.consumption_node_hours),
      result.best_candidate.quality, result.evaluated.size());
  return out;
}

}  // namespace dc::core
