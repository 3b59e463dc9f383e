#include "campaign/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <thread>
#include <utility>

#ifndef _WIN32
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "campaign/worker.hpp"
#include "rundb/store.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dc::campaign {
namespace {

#ifndef _WIN32

// All wall-clock below is supervision-only: heartbeat staleness, retry
// backoff, poll cadence. None of it reaches an artifact (dc-r13).
using SupervisionClock = std::chrono::steady_clock;  // dc-wallclock: supervision timing only, never in artifacts

/// A cell waiting to run (or re-run after backoff).
struct PendingCell {
  CellSpec spec;
  std::int64_t attempts_done = 0;  // failed attempts so far
  SupervisionClock::time_point eligible_at;  // dc-wallclock: retry backoff gate
};

/// One forked worker under supervision.
struct ActiveWorker {
  pid_t pid = -1;
  CellSpec spec;
  std::int64_t attempt = 1;
  std::int64_t attempts_before = 0;
  std::string heartbeat_path;
  std::string last_beat;  // last observed heartbeat content
  SupervisionClock::time_point last_change;  // dc-wallclock: staleness reference point
  bool killed_by_us = false;  // our own timeout kill, not an external death
};

/// Deterministic exponential backoff: base * 2^(attempts_done-1), capped.
std::int64_t backoff_ms(const OrchestratorConfig& config,
                        std::int64_t attempts_done) {
  const int shift =
      static_cast<int>(std::clamp<std::int64_t>(attempts_done - 1, 0, 20));
  return std::min(config.backoff_cap_ms, config.backoff_base_ms << shift);
}

/// Waits for an orphan worker (recorded `running` by a dead orchestrator)
/// to exit before resuming, so two processes never write one cell
/// directory. Refuses to resume — rather than SIGKILLing what might be a
/// recycled pid — if it outlives the deadline.
Status wait_for_orphan(std::int64_t pid, std::int64_t timeout_ms) {
  if (pid <= 0) return Status::ok();
  const auto deadline =  // dc-wallclock: bounded wait for an orphaned worker pid
      SupervisionClock::now() + std::chrono::milliseconds(timeout_ms);
  bool waited = false;
  while (::kill(static_cast<pid_t>(pid), 0) == 0) {
    if (!waited) {
      Log::raw(LogLevel::kWarn,
               "campaign resume: waiting for orphaned worker pid %lld to exit",
               static_cast<long long>(pid));
      waited = true;
    }
    if (SupervisionClock::now() >= deadline) {  // dc-wallclock: orphan wait deadline
      return Status::failed_precondition(str_format(
          "worker pid %lld from the interrupted campaign is still alive "
          "after %lld ms; wait for it to exit (or kill it) before resuming",
          static_cast<long long>(pid), static_cast<long long>(timeout_ms)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // dc-wallclock: orphan poll interval
  }
  return Status::ok();
}

/// Merges the per-cell result.csv files into one long-format table,
/// prefixing every data row with the cell id and its axis assignment. Row
/// order is cell-id order, so the merged table is byte-identical however
/// the campaign was interrupted or resharded.
StatusOr<std::string> merge_results_csv(
    const std::string& campaign_dir,
    const std::vector<CellOutcome>& outcomes) {
  std::string merged;
  bool header_written = false;
  for (const CellOutcome& outcome : outcomes) {
    if (outcome.state != CellState::kDone) continue;
    auto bytes =
        read_file(cell_result_path(campaign_cell_dir(campaign_dir, outcome.cell)));
    if (!bytes.is_ok()) return bytes.status();
    const auto lines = split_char(*bytes, '\n');
    bool first = true;
    for (std::string_view line : lines) {
      while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty()) continue;
      if (first) {
        first = false;
        if (!header_written) {
          merged += "cell,cell_key,";
          merged.append(line);
          merged += "\n";
          header_written = true;
        }
        continue;
      }
      merged +=
          str_format("%llu,", static_cast<unsigned long long>(outcome.cell)) +
          csv_quote(outcome.key, /*always=*/true) + ",";
      merged.append(line);
      merged += "\n";
    }
  }
  return merged;
}

/// The machine-readable campaign summary. Only deterministic facts go in:
/// attempt counts and timings vary between an interrupted and an
/// uninterrupted campaign, so they live in the journal, not here.
std::string render_results_json(std::uint64_t spec_digest,
                                const std::vector<CellOutcome>& outcomes) {
  std::string json = "{\n";
  json += str_format("  \"spec_digest\": \"%016llx\",\n",
                     static_cast<unsigned long long>(spec_digest));
  json += str_format("  \"cell_count\": %zu,\n", outcomes.size());
  json += "  \"cells\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const CellOutcome& o = outcomes[i];
    json += str_format("    {\"cell\": %llu, \"key\": \"",
                       static_cast<unsigned long long>(o.cell));
    append_json_escaped(json, o.key);
    json += str_format("\", \"state\": \"%s\"", cell_state_name(o.state));
    if (o.state == CellState::kDone) {
      json += str_format(", \"artifact_digest\": \"%016llx\"",
                         static_cast<unsigned long long>(o.artifact_digest));
    } else {
      json += ", \"reason\": \"";
      append_json_escaped(json, o.reason);
      json += "\"";
    }
    json += (i + 1 < outcomes.size()) ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";
  return json;
}

/// Registers the merged campaign results into the campaign's run store
/// (`<campaign_dir>/rundb`, docs/OBSERVABILITY.md "Time-travel analysis"):
/// one record per (done cell × provider) row of the merged CSV, with the
/// cell's axis assignment plus the row's identity columns as params and
/// every numeric column as a metric. append_records dedups by content and
/// rewrites atomically, so a campaign resumed across any interruption
/// leaves a store byte-identical to the uninterrupted one.
Status register_campaign_store(const std::string& campaign_dir,
                               std::uint64_t digest,
                               const std::vector<CellSpec>& cells,
                               const std::string& merged_csv) {
  auto rows = parse_csv(merged_csv);
  if (!rows.is_ok()) return rows.status();
  if (rows->empty()) return Status::ok();  // nothing done, nothing to index
  const std::vector<std::string>& header = (*rows)[0];

  const std::string source =
      str_format("campaign:%016llx", static_cast<unsigned long long>(digest));
  std::vector<rundb::RunRecord> records;
  for (std::size_t r = 1; r < rows->size(); ++r) {
    const std::vector<std::string>& row = (*rows)[r];
    rundb::RunRecord record;
    record.kind = "campaign-cell";
    record.source = source;
    std::uint64_t cell_id = 0;
    std::string system, provider;
    for (std::size_t c = 0; c < header.size() && c < row.size(); ++c) {
      const std::string& name = header[c];
      if (name == "cell") {
        auto parsed = parse_int(row[c]);
        if (parsed.is_ok()) cell_id = static_cast<std::uint64_t>(*parsed);
        record.params.emplace_back(name, row[c]);
      } else if (name == "cell_key") {
        continue;  // redundant with the expanded axis params below
      } else if (name == "system" || name == "provider" || name == "type") {
        if (name == "system") system = row[c];
        if (name == "provider") provider = row[c];
        record.params.emplace_back(name, row[c]);
      } else {
        record.metrics.emplace_back(name, std::strtod(row[c].c_str(), nullptr));
      }
    }
    for (const CellSpec& cell : cells) {
      if (cell.id != cell_id) continue;
      for (const auto& [key, value] : cell.assignment) {
        record.params.emplace_back(key, value);
      }
      break;
    }
    record.label =
        str_format("cell-%06llu/%s/%s",
                   static_cast<unsigned long long>(cell_id), system.c_str(),
                   provider.c_str());
    records.push_back(std::move(record));
  }
  auto appended = rundb::append_records(campaign_dir + "/rundb", records);
  if (!appended.is_ok()) return appended.status();
  Log::raw(LogLevel::kInfo,
           "campaign: registered %llu run-store record(s) into %s/rundb "
           "(%zu already present)",
           static_cast<unsigned long long>(*appended), campaign_dir.c_str(),
           records.size() - static_cast<std::size_t>(*appended));
  return Status::ok();
}

#endif  // !_WIN32

}  // namespace

std::string campaign_journal_path(const std::string& campaign_dir) {
  return campaign_dir + "/journal.dcj";
}

std::string campaign_lock_path(const std::string& campaign_dir) {
  return campaign_dir + "/LOCK";
}

PidLease::Wording campaign_lease_wording() {
  return {"campaign.lock", "campaign is already being orchestrated by",
          "a campaign may have only one orchestrator — wait for it or kill "
          "it first"};
}

std::string campaign_cell_dir(const std::string& campaign_dir,
                              std::uint64_t cell) {
  return campaign_dir +
         str_format("/cells/cell-%06llu", static_cast<unsigned long long>(cell));
}

std::string campaign_results_csv_path(const std::string& campaign_dir) {
  return campaign_dir + "/results.csv";
}

std::string campaign_results_json_path(const std::string& campaign_dir) {
  return campaign_dir + "/results.json";
}

StatusOr<CampaignStatus> fold_campaign_journal(
    const std::string& campaign_dir) {
  auto journal = load_journal(campaign_journal_path(campaign_dir));
  if (!journal.is_ok()) return journal.status();

  CampaignStatus status;
  status.truncated_tail = journal->truncated_tail;
  for (const JournalEntry& entry : journal->entries) {
    if (entry.kind == JournalEntry::Kind::kCampaign) {
      status.spec_digest = entry.spec_digest;
      status.cell_count = entry.cell_count;
      continue;
    }
    CampaignStatus::CellView& view = status.cells[entry.cell];
    view.state = entry.state;
    view.attempts = std::max(view.attempts, entry.attempt);
    if (entry.state == CellState::kRunning) view.pid = entry.pid;
    if (entry.state == CellState::kDone) {
      view.artifact_digest = entry.artifact_digest;
    }
    if (entry.state == CellState::kFailed ||
        entry.state == CellState::kQuarantined) {
      view.reason = entry.reason;
    }
  }
  return status;
}

std::string format_campaign_status(const CampaignStatus& status) {
  std::uint64_t done = 0, quarantined = 0, failed = 0, in_flight = 0;
  for (const auto& [cell, view] : status.cells) {
    switch (view.state) {
      case CellState::kDone: ++done; break;
      case CellState::kQuarantined: ++quarantined; break;
      case CellState::kFailed: ++failed; break;
      case CellState::kClaimed:
      case CellState::kRunning: ++in_flight; break;
    }
  }
  const std::uint64_t untouched =
      status.cell_count >= status.cells.size()
          ? status.cell_count - status.cells.size()
          : 0;

  std::string out = str_format(
      "campaign: %llu cells (spec digest %016llx)\n"
      "  done %llu, quarantined %llu, failed-retryable %llu, interrupted "
      "%llu, not started %llu%s\n",
      static_cast<unsigned long long>(status.cell_count),
      static_cast<unsigned long long>(status.spec_digest),
      static_cast<unsigned long long>(done),
      static_cast<unsigned long long>(quarantined),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(in_flight),
      static_cast<unsigned long long>(untouched),
      status.truncated_tail ? " (journal had a torn tail)" : "");
  for (const auto& [cell, view] : status.cells) {
    out += str_format("  cell %06llu  %-12s attempts %lld",
                      static_cast<unsigned long long>(cell),
                      cell_state_name(view.state),
                      static_cast<long long>(view.attempts));
    if (view.state == CellState::kDone) {
      out += str_format("  digest %016llx",
                        static_cast<unsigned long long>(view.artifact_digest));
    } else if (!view.reason.empty()) {
      out += "  reason: " + view.reason;
    }
    out += "\n";
  }
  return out;
}

StatusOr<CampaignReport> run_campaign(const SweepSpec& spec,
                                      const OrchestratorConfig& config) {
#ifdef _WIN32
  (void)spec;
  (void)config;
  return Status::internal("campaign orchestrator: POSIX-only");
#else
  if (config.campaign_dir.empty()) {
    return Status::invalid_argument("campaign: --dir is required");
  }
  if (config.workers < 1) {
    return Status::invalid_argument("campaign: --workers must be >= 1");
  }
  if (config.max_attempts < 1) {
    return Status::invalid_argument("campaign: --max-attempts must be >= 1");
  }

  const std::vector<CellSpec> cells = expand_grid(spec);
  // Validate the whole grid before forking anything: one bad axis value
  // should fail the campaign in milliseconds, not quarantine every cell
  // one timeout at a time.
  for (const CellSpec& cell : cells) {
    if (auto plan = plan_cell(cell); !plan.is_ok()) return plan.status();
  }
  const std::uint64_t digest = spec_digest(spec);

  std::error_code ec;
  std::filesystem::create_directories(config.campaign_dir + "/cells", ec);
  if (ec) {
    return Status::internal("campaign: cannot create '" + config.campaign_dir +
                            "': " + ec.message());
  }

  // One orchestrator per campaign: the pid lease rejects double resume.
  auto lock = PidLease::acquire(campaign_lock_path(config.campaign_dir),
                                campaign_lease_wording());
  if (!lock.is_ok()) return lock.status();

  const std::string journal_path = campaign_journal_path(config.campaign_dir);
  bool journal_exists = std::filesystem::exists(journal_path);
  CampaignStatus prior;
  if (journal_exists) {
    if (!config.resume) {
      return Status::failed_precondition(
          "campaign journal '" + journal_path +
          "' already exists; pass --resume to continue the interrupted "
          "campaign, or remove the campaign directory to start over");
    }
    auto folded = fold_campaign_journal(config.campaign_dir);
    if (!folded.is_ok()) return folded.status();
    if (folded->spec_digest == 0 && folded->cell_count == 0 &&
        folded->cells.empty()) {
      // The file exists but no complete frame survived: a crash during the
      // very first (header) append. There is no campaign state to honor —
      // restart the journal as if the file were absent.
      Log::raw(LogLevel::kWarn,
               "campaign journal '%s' holds no complete entry (crash during "
               "the header append); starting the campaign afresh",
               journal_path.c_str());
      std::filesystem::remove(journal_path);
      journal_exists = false;
    } else if (folded->spec_digest != digest ||
               folded->cell_count != cells.size()) {
      return Status::failed_precondition(str_format(
          "campaign journal '%s' records a different sweep (spec digest "
          "%016llx over %llu cells; this invocation expands to %016llx over "
          "%zu cells) — refusing to mix campaigns",
          journal_path.c_str(),
          static_cast<unsigned long long>(folded->spec_digest),
          static_cast<unsigned long long>(folded->cell_count),
          static_cast<unsigned long long>(digest), cells.size()));
    }
    prior = *folded;
  }

  auto appender = JournalAppender::open(journal_path);
  if (!appender.is_ok()) return appender.status();
  if (!journal_exists) {
    if (Status st = appender->append(
            JournalEntry::campaign(digest, cells.size()));
        !st.is_ok()) {
      return st;
    }
  }

  CampaignReport report;
  report.spec_digest = digest;
  report.total_cells = cells.size();
  report.results_csv_path = campaign_results_csv_path(config.campaign_dir);
  report.results_json_path = campaign_results_json_path(config.campaign_dir);

  // Reconcile the journal against the grid: completed cells are kept only
  // if their artifact still matches the recorded digest; everything else
  // re-runs.
  std::map<std::uint64_t, CellOutcome> terminal;
  std::vector<PendingCell> queue;
  const auto start = SupervisionClock::now();  // dc-wallclock: backoff baseline for requeued cells
  for (const CellSpec& cell : cells) {
    const auto it = prior.cells.find(cell.id);
    if (it != prior.cells.end()) {
      const CampaignStatus::CellView& view = it->second;
      if (view.state == CellState::kDone) {
        auto disk = file_digest(
            cell_result_path(campaign_cell_dir(config.campaign_dir, cell.id)));
        if (disk.is_ok() && *disk == view.artifact_digest) {
          terminal[cell.id] = CellOutcome{cell.id, cell.key(), CellState::kDone,
                                          view.artifact_digest, ""};
          ++report.verified_skipped;
          continue;
        }
        Log::raw(LogLevel::kWarn,
                 "campaign resume: cell %llu (%s) is recorded done but its "
                 "artifact is missing or does not match digest %016llx — "
                 "re-running it",
                 static_cast<unsigned long long>(cell.id), cell.key().c_str(),
                 static_cast<unsigned long long>(view.artifact_digest));
      } else if (view.state == CellState::kQuarantined) {
        terminal[cell.id] = CellOutcome{cell.id, cell.key(),
                                        CellState::kQuarantined, 0, view.reason};
        continue;
      } else if (view.state == CellState::kRunning) {
        if (Status st =
                wait_for_orphan(view.pid, config.heartbeat_timeout_ms);
            !st.is_ok()) {
          return st;
        }
      }
      PendingCell pending;
      pending.spec = cell;
      // An interrupted claimed/running attempt never concluded, so it
      // does not count against the retry budget; a failed one does.
      pending.attempts_done = view.state == CellState::kFailed
                                  ? view.attempts
                                  : std::max<std::int64_t>(view.attempts - 1, 0);
      pending.eligible_at = start;
      queue.push_back(std::move(pending));
    } else {
      PendingCell pending;
      pending.spec = cell;
      pending.eligible_at = start;
      queue.push_back(std::move(pending));
    }
  }

  // The supervision loop: fork eligible cells up to the (sheddable)
  // parallelism cap, reap exits, and SIGKILL workers whose heartbeat
  // counter has stopped advancing.
  std::vector<ActiveWorker> active;
  int effective_workers = config.workers;
  std::uint64_t done_this_run = 0;
  const auto heartbeat_timeout =  // dc-wallclock: staleness threshold
      std::chrono::milliseconds(config.heartbeat_timeout_ms);

  while (!queue.empty() || !active.empty()) {
    // Fork while there is capacity and an eligible (backoff-expired) cell.
    for (;;) {
      if (static_cast<int>(active.size()) >= effective_workers) break;
      const auto now = SupervisionClock::now();  // dc-wallclock: backoff eligibility check
      auto it = std::find_if(queue.begin(), queue.end(),
                             [&](const PendingCell& p) {
                               return p.eligible_at <= now;
                             });
      if (it == queue.end()) break;
      PendingCell pending = std::move(*it);
      queue.erase(it);

      const std::int64_t attempt = pending.attempts_done + 1;
      if (Status st = appender->append(JournalEntry::cell_state(
              pending.spec.id, CellState::kClaimed, attempt));
          !st.is_ok()) {
        return st;
      }

      const std::string cell_dir =
          campaign_cell_dir(config.campaign_dir, pending.spec.id);
      const pid_t pid = ::fork();
      if (pid < 0) {
        return Status::internal("campaign: fork failed");
      }
      if (pid == 0) {
        WorkerContext ctx;
        ctx.config_path = spec.config_path;
        ctx.snapshot_every = spec.snapshot_every;
        ctx.cell = pending.spec;
        ctx.cell_dir = cell_dir;
        ctx.attempt = attempt;
        ctx.drill_kill_midway = config.drill == DrillMode::kKillWorker &&
                                pending.spec.id == config.drill_cell;
        ctx.drill_hang = config.drill == DrillMode::kHangWorker &&
                         pending.spec.id == config.drill_cell;
        ctx.drill_poison = config.drill == DrillMode::kPoisonCell &&
                           pending.spec.id == config.drill_cell;
        ::_exit(run_cell_worker(ctx));
      }

      JournalEntry running = JournalEntry::cell_state(
          pending.spec.id, CellState::kRunning, attempt);
      running.pid = pid;
      if (Status st = appender->append(running); !st.is_ok()) return st;

      ActiveWorker worker;
      worker.pid = pid;
      worker.spec = pending.spec;
      worker.attempt = attempt;
      worker.attempts_before = pending.attempts_done;
      worker.heartbeat_path = cell_heartbeat_path(cell_dir);
      worker.last_change = SupervisionClock::now();  // dc-wallclock: heartbeat staleness baseline
      active.push_back(std::move(worker));
    }

    // Reap finished workers.
    int wait_status = 0;
    pid_t reaped;
    while ((reaped = ::waitpid(-1, &wait_status, WNOHANG)) > 0) {
      const auto it = std::find_if(active.begin(), active.end(),
                                   [&](const ActiveWorker& w) {
                                     return w.pid == reaped;
                                   });
      if (it == active.end()) continue;
      ActiveWorker worker = std::move(*it);
      active.erase(it);
      const std::string cell_dir =
          campaign_cell_dir(config.campaign_dir, worker.spec.id);

      std::string reason;
      bool success = false;
      std::uint64_t artifact_digest = 0;
      if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0) {
        auto disk = file_digest(cell_result_path(cell_dir));
        if (disk.is_ok()) {
          success = true;
          artifact_digest = *disk;
        } else {
          reason = "result artifact unreadable: " + disk.status().message();
        }
      } else if (WIFEXITED(wait_status)) {
        reason = str_format("exit code %d", WEXITSTATUS(wait_status));
      } else if (WIFSIGNALED(wait_status)) {
        if (worker.killed_by_us) {
          reason = "heartbeat timeout";
        } else {
          reason = str_format("killed by signal %d", WTERMSIG(wait_status));
          // An external SIGKILL looks like the OOM killer: degrade
          // gracefully by shedding parallelism instead of thrashing.
          if (WTERMSIG(wait_status) == SIGKILL && effective_workers > 1) {
            --effective_workers;
            Log::raw(LogLevel::kWarn,
                     "campaign: worker for cell %llu was killed externally; "
                     "shedding parallelism to %d worker(s)",
                     static_cast<unsigned long long>(worker.spec.id),
                     effective_workers);
          }
        }
      } else {
        reason = "worker stopped unexpectedly";
      }

      if (success) {
        JournalEntry done = JournalEntry::cell_state(
            worker.spec.id, CellState::kDone, worker.attempt);
        done.artifact_digest = artifact_digest;
        if (Status st = appender->append(done); !st.is_ok()) return st;
        terminal[worker.spec.id] =
            CellOutcome{worker.spec.id, worker.spec.key(), CellState::kDone,
                        artifact_digest, ""};
        ++done_this_run;
        if (config.drill == DrillMode::kKillOrchestrator &&
            done_this_run >= config.drill_after) {
          // The drill: die without any cleanup the instant the Nth cell
          // completes. The journal entry above is already fsync'd.
          std::raise(SIGKILL);
        }
        continue;
      }

      const std::int64_t attempts_done = worker.attempts_before + 1;
      if (attempts_done >= config.max_attempts) {
        JournalEntry entry = JournalEntry::cell_state(
            worker.spec.id, CellState::kQuarantined, worker.attempt);
        entry.reason = reason;
        if (Status st = appender->append(entry); !st.is_ok()) return st;
        terminal[worker.spec.id] =
            CellOutcome{worker.spec.id, worker.spec.key(),
                        CellState::kQuarantined, 0, reason};
        Log::raw(LogLevel::kWarn,
                 "campaign: quarantining cell %llu (%s) after %lld attempts "
                 "(%s); the campaign continues without it",
                 static_cast<unsigned long long>(worker.spec.id),
                 worker.spec.key().c_str(),
                 static_cast<long long>(attempts_done), reason.c_str());
      } else {
        JournalEntry entry = JournalEntry::cell_state(
            worker.spec.id, CellState::kFailed, worker.attempt);
        entry.reason = reason;
        if (Status st = appender->append(entry); !st.is_ok()) return st;
        PendingCell retry;
        retry.spec = worker.spec;
        retry.attempts_done = attempts_done;
        retry.eligible_at =  // dc-wallclock: deterministic exponential retry backoff
            SupervisionClock::now() +
            std::chrono::milliseconds(backoff_ms(config, attempts_done));
        queue.push_back(std::move(retry));
        Log::raw(LogLevel::kWarn,
                 "campaign: cell %llu (%s) attempt %lld failed (%s); "
                 "retrying (%lld/%d attempts used)",
                 static_cast<unsigned long long>(worker.spec.id),
                 worker.spec.key().c_str(),
                 static_cast<long long>(worker.attempt), reason.c_str(),
                 static_cast<long long>(attempts_done), config.max_attempts);
      }
    }

    // Heartbeat supervision: a worker whose counter file has not changed
    // within the timeout is wedged — SIGKILL it and let the reap path
    // above account the attempt.
    const auto now = SupervisionClock::now();  // dc-wallclock: heartbeat staleness scan
    for (ActiveWorker& worker : active) {
      if (worker.killed_by_us) continue;
      auto beat = read_file(worker.heartbeat_path);
      if (beat.is_ok() && *beat != worker.last_beat) {
        worker.last_beat = *beat;
        worker.last_change = now;
        continue;
      }
      if (now - worker.last_change > heartbeat_timeout) {
        Log::raw(LogLevel::kWarn,
                 "campaign: worker pid %lld (cell %llu) heartbeat is stale; "
                 "killing it",
                 static_cast<long long>(worker.pid),
                 static_cast<unsigned long long>(worker.spec.id));
        ::kill(worker.pid, SIGKILL);
        worker.killed_by_us = true;
      }
    }

    if (!active.empty() || !queue.empty()) {
      std::this_thread::sleep_for(  // dc-wallclock: supervision poll interval
          std::chrono::milliseconds(config.poll_interval_ms));
    }
  }

  // Merge. Outcomes in cell-id order make the merged artifacts a pure
  // function of the spec — byte-identical across interruptions, resumes,
  // and worker counts.
  for (const CellSpec& cell : cells) {
    const auto it = terminal.find(cell.id);
    if (it == terminal.end()) {
      return Status::internal(str_format(
          "campaign: cell %llu reached no terminal state (orchestrator bug)",
          static_cast<unsigned long long>(cell.id)));
    }
    report.outcomes.push_back(it->second);
    if (it->second.state == CellState::kDone) ++report.done;
    else ++report.quarantined;
  }

  auto merged = merge_results_csv(config.campaign_dir, report.outcomes);
  if (!merged.is_ok()) return merged.status();
  if (Status st = atomic_write_file(report.results_csv_path, *merged,
                                    "campaign.results.csv");
      !st.is_ok()) {
    return st;
  }
  if (Status st = atomic_write_file(
          report.results_json_path,
          render_results_json(digest, report.outcomes),
          "campaign.results.json");
      !st.is_ok()) {
    return st;
  }
  if (Status st =
          register_campaign_store(config.campaign_dir, digest, cells, *merged);
      !st.is_ok()) {
    return st;
  }
  return report;
#endif
}

}  // namespace dc::campaign
