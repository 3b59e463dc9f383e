#include "campaign/worker.hpp"

#include <csignal>
#include <cstdio>
#include <filesystem>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/description.hpp"
#include "core/system_runner.hpp"
#include "metrics/report.hpp"
#include "snapshot/format.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"

namespace dc::campaign {
namespace {

/// Exit codes the orchestrator maps back to failure reasons.
constexpr int kConfigError = 2;
constexpr int kPoisoned = 3;

int fail(const WorkerContext& ctx, const Status& status) {
  Log::raw(LogLevel::kError, "cell %llu (%s): %s",
           static_cast<unsigned long long>(ctx.cell.id),
           ctx.cell.key().c_str(), status.to_string().c_str());
  return kConfigError;
}

/// The liveness signal: a monotonic counter, atomically replaced so the
/// orchestrator never reads a torn value. Deliberately not a timestamp —
/// nothing wall-clock-derived may exist under a cell directory (dc-r13).
void touch_heartbeat(const std::string& path, std::uint64_t counter) {
  char text[32];
  std::snprintf(text, sizeof(text), "%llu\n",
                static_cast<unsigned long long>(counter));
  // Best effort: a lost heartbeat at worst costs one supervision timeout.
  (void)atomic_write_file(path, text, "campaign.heartbeat");
}

}  // namespace

std::string cell_result_path(const std::string& cell_dir) {
  return cell_dir + "/result.csv";
}

std::string cell_heartbeat_path(const std::string& cell_dir) {
  return cell_dir + "/heartbeat";
}

StatusOr<std::uint64_t> file_digest(const std::string& path) {
  auto bytes = read_file(path);
  if (!bytes.is_ok()) return bytes.status();
  return snapshot::fnv1a(*bytes);
}

int run_cell_worker(const WorkerContext& ctx) {
  if (ctx.drill_poison) {
    Log::raw(LogLevel::kWarn, "cell %llu (%s): poison drill — failing attempt %lld",
             static_cast<unsigned long long>(ctx.cell.id),
             ctx.cell.key().c_str(), static_cast<long long>(ctx.attempt));
    return kPoisoned;
  }

  auto workload = core::read_experiment_description(ctx.config_path);
  if (!workload.is_ok()) return fail(ctx, workload.status());
  auto plan = plan_cell(ctx.cell);
  if (!plan.is_ok()) return fail(ctx, plan.status());

  std::error_code ec;
  std::filesystem::create_directories(ctx.cell_dir, ec);
  if (ec) {
    return fail(ctx, Status::internal("cannot create cell directory '" +
                                      ctx.cell_dir + "': " + ec.message()));
  }
  const std::string heartbeat = cell_heartbeat_path(ctx.cell_dir);

  // The cell runs as `dawningcloud run --snapshot-every E --snapshot-dir
  // CELL_DIR --resume auto` does: a retried cell restarts from its newest
  // valid snapshot, and since chunk boundaries are fixed multiples of the
  // cadence, a resumed cell is byte-identical to an uninterrupted one
  // (docs/SNAPSHOT.md). Every chunk boundary touches the heartbeat.
  core::SnapshotPolicy policy;
  policy.every = ctx.snapshot_every;
  policy.dir = ctx.cell_dir;
  policy.resume = ctx.snapshot_every > 0;
  const SimTime horizon = workload->effective_horizon();
  std::uint64_t beats = 0;
  policy.on_boundary = [&](SimTime t) {
    touch_heartbeat(heartbeat, ++beats);
    if (ctx.attempt != 1 || t < horizon / 2) return;
    if (ctx.drill_kill_midway) {
      // Deterministic worker-crash injection: die at a chunk boundary
      // with snapshots on disk, so the retry exercises mid-cell resume.
      std::raise(SIGKILL);
    }
    if (ctx.drill_hang) {
      // Stop heartbeating without exiting: the orchestrator must detect
      // the stale heartbeat and SIGKILL us.
#ifndef _WIN32
      for (;;) ::pause();  // dc-wallclock: hang drill blocks on signals, no sim state involved
#endif
    }
  };
  touch_heartbeat(heartbeat, beats);
  auto result = core::run_system_snapshotted(plan->model, *workload,
                                             plan->options, policy);
  if (!result.is_ok()) return fail(ctx, result.status());

  // The artifact is written through the same atomic path as snapshots: a
  // SIGKILL between any two instructions leaves either no result.csv or a
  // complete one, never a torn file the orchestrator could digest.
  const std::string partial = cell_result_path(ctx.cell_dir) + ".partial";
  {
    CsvWriter csv(partial);
    if (!csv.ok()) {
      return fail(ctx, Status::internal("cannot write '" + partial + "'"));
    }
    metrics::write_results_csv(csv, {*result});
  }
  auto bytes = read_file(partial);
  if (!bytes.is_ok()) return fail(ctx, bytes.status());
  if (Status st = atomic_write_file(cell_result_path(ctx.cell_dir), *bytes,
                                    "campaign.cell.result");
      !st.is_ok()) {
    return fail(ctx, st);
  }
  std::filesystem::remove(partial, ec);
  return 0;
}

}  // namespace dc::campaign
