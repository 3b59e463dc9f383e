// The crash-resilient sweep orchestrator (docs/SWEEP.md).
//
// run_campaign() expands a sweep spec into a deterministic cell grid,
// shards the cells across supervised worker subprocesses, and records
// every state transition in an append-only checksummed journal before
// acting on it. The orchestrator process is disposable by design:
// SIGKILL it at any instant and a `--resume` invocation reconstructs the
// campaign from the journal, re-runs only the incomplete cells, verifies
// completed cells by artifact digest, and produces byte-identical merged
// results.
//
// Separation of clocks: everything that lands in an artifact (cell ids,
// results, digests, the journal's state machine) is pure function of the
// spec. Wall-clock time exists only in the supervision layer — heartbeat
// staleness, retry backoff, poll intervals — and never flows into any
// output file (enforced by dc-lint rule dc-r13).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/spec.hpp"
#include "util/pidlock.hpp"
#include "util/status.hpp"

namespace dc::campaign {

/// Deterministic fault-injection modes for tests and CI.
enum class DrillMode {
  kNone,
  kKillOrchestrator,  // raise(SIGKILL) after `drill_after` cells are done
  kKillWorker,        // cell `drill_cell` SIGKILLs itself mid-horizon once
  kHangWorker,        // cell `drill_cell` stops heartbeating once
  kPoisonCell,        // cell `drill_cell` fails every attempt (quarantine)
};

struct OrchestratorConfig {
  std::string campaign_dir;  // journal, lock, cells/, merged results

  int workers = 2;            // parallel worker subprocesses (>= 1)
  int max_attempts = 3;       // per cell, before quarantine (>= 1)
  bool resume = false;        // continue an existing journal

  // Supervision timing (wall clock; never reaches artifacts).
  std::int64_t heartbeat_timeout_ms = 60000;  // stale-heartbeat SIGKILL
  std::int64_t poll_interval_ms = 25;         // supervision loop tick
  std::int64_t backoff_base_ms = 50;          // retry delay, attempt 1
  std::int64_t backoff_cap_ms = 2000;         // retry delay ceiling

  // Drill injection.
  DrillMode drill = DrillMode::kNone;
  std::uint64_t drill_cell = 0;   // kKillWorker / kHangWorker / kPoisonCell
  std::uint64_t drill_after = 1;  // kKillOrchestrator: die after N done
};

/// Terminal outcome of one cell after a campaign run.
struct CellOutcome {
  std::uint64_t cell = 0;
  std::string key;                    // "system=dcs,mttf=18h"
  CellState state = CellState::kDone;  // kDone or kQuarantined
  std::uint64_t artifact_digest = 0;   // kDone only
  std::string reason;                  // kQuarantined only
};

struct CampaignReport {
  std::uint64_t spec_digest = 0;
  std::uint64_t total_cells = 0;
  std::uint64_t done = 0;
  std::uint64_t quarantined = 0;
  /// Cells whose recorded artifact digest verified on resume and were not
  /// re-run.
  std::uint64_t verified_skipped = 0;
  std::vector<CellOutcome> outcomes;  // cell-id order
  std::string results_csv_path;
  std::string results_json_path;
};

/// Runs (or resumes) the campaign to a terminal state: every cell done or
/// quarantined, merged results written. Fails up front — before any
/// worker is forked — on an invalid spec, a digest-mismatched journal, a
/// corrupt journal, or a live concurrent orchestrator.
StatusOr<CampaignReport> run_campaign(const SweepSpec& spec,
                                      const OrchestratorConfig& config);

/// The journal folded into per-cell latest state — what `dc sweep report`
/// prints and what resume reconciles against.
struct CampaignStatus {
  std::uint64_t spec_digest = 0;
  std::uint64_t cell_count = 0;
  bool truncated_tail = false;
  struct CellView {
    CellState state = CellState::kClaimed;
    std::int64_t attempts = 0;  // highest attempt number observed
    std::int64_t pid = 0;       // last recorded worker pid
    std::uint64_t artifact_digest = 0;
    std::string reason;
  };
  std::map<std::uint64_t, CellView> cells;
};

/// Loads and folds `<campaign_dir>/journal.dcj`. Torn tails are dropped
/// with a warning; mid-file corruption is an error (see journal.hpp).
StatusOr<CampaignStatus> fold_campaign_journal(const std::string& campaign_dir);

/// Human-readable summary table for `dc sweep report`.
std::string format_campaign_status(const CampaignStatus& status);

/// Paths inside a campaign directory (single source of truth for the
/// orchestrator, the report subcommand, and the drill harness).
std::string campaign_journal_path(const std::string& campaign_dir);
std::string campaign_lock_path(const std::string& campaign_dir);
/// The campaign lock's diagnostics: a second orchestrator on a live lease
/// is refused with "campaign is already being orchestrated by live pid N".
PidLease::Wording campaign_lease_wording();
std::string campaign_cell_dir(const std::string& campaign_dir,
                              std::uint64_t cell);
std::string campaign_results_csv_path(const std::string& campaign_dir);
std::string campaign_results_json_path(const std::string& campaign_dir);

}  // namespace dc::campaign
