// One campaign cell, run to completion inside a forked worker process
// (docs/SWEEP.md).
//
// The worker is the deterministic half of the orchestrator split: it runs
// the cell through core::run_system_snapshotted, as `dawningcloud run
// --snapshot-every` does, so every attempt — fresh, retried, or resumed
// mid-cell from the newest valid snapshot — writes the same bytes.
// Heartbeats are the one concession to supervision: a monotonic *counter*
// (never a timestamp) touched at every chunk boundary, so nothing
// wall-clock-derived can leak into result artifacts while the
// orchestrator still gets a liveness signal to compare against its own
// clock.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/spec.hpp"
#include "util/status.hpp"

namespace dc::campaign {

/// Everything a worker needs; assembled by the orchestrator before fork.
struct WorkerContext {
  std::string config_path;       // the experiment every cell shares
  SimDuration snapshot_every = 0;  // per-cell snapshot cadence (0 = off)
  CellSpec cell;
  std::string cell_dir;  // snapshots, heartbeat, and result artifact
  std::int64_t attempt = 1;

  // Drill modes (deterministic fault injection for tests/CI).
  bool drill_kill_midway = false;  // attempt 1 SIGKILLs itself mid-horizon
  bool drill_poison = false;       // every attempt fails (quarantine path)
  bool drill_hang = false;         // attempt 1 stops heartbeating mid-horizon
};

/// Runs the cell and writes `<cell_dir>/result.csv` atomically.
/// Returns a process exit code: 0 success, 2 configuration/snapshot
/// error, 3 poisoned (drill). Designed to be called between fork() and
/// _exit() — it never throws and never returns to the caller's event
/// loop.
int run_cell_worker(const WorkerContext& ctx);

/// Artifact paths inside a cell directory.
std::string cell_result_path(const std::string& cell_dir);
std::string cell_heartbeat_path(const std::string& cell_dir);

/// FNV-1a digest of a file's bytes — the artifact fingerprint recorded in
/// `done` journal entries and re-verified on resume.
StatusOr<std::uint64_t> file_digest(const std::string& path);

}  // namespace dc::campaign
