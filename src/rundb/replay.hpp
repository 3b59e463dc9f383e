// Time-travel replay (docs/OBSERVABILITY.md "Time-travel analysis").
//
// `dc replay` turns the snapshot layer's crash-consistency machinery into
// an analysis instrument: any auto-snapshot boundary of a finished run is
// a restorable instant, and because restore + run_until is byte-identical
// to the uninterrupted run, re-running a bounded window from a boundary
// *with a fresh trace sink attached* observes exactly the events the
// original run emitted in that window — even when the original run was
// never traced. That is the debugging move the divergence auditor
// (snapshot-diff) can only gesture at: not "the state differs at
// t=86400" but "here is every event between t=86400 and t=90000".
//
// The bisector composes the same pieces the other way: given two runs of
// the same experiment that should agree (a run and its golden, a 1-thread
// and a 4-thread run), it bisects their shared snapshot boundaries by
// section digest to localize the first divergence to one snapshot
// interval, then — when trace exports are available — walks both traces
// in lockstep to name the first diverging trace record inside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/system_runner.hpp"
#include "core/systems.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::rundb {

/// The outcome of one replayed window.
struct ReplayWindow {
  SimTime start = 0;  // the restored boundary instant
  SimTime end = 0;    // where the replay stopped (≤ horizon)
  /// Everything emitted in (start, end], in emission order, as recorded
  /// by the forced-on window sink.
  std::string chrome_json;
  std::string csv;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  /// Whether the restored run carried the periodic metrics sampler. The
  /// sampler timer is part of the kernel's pending set, so a replay
  /// cannot inject one into a run that never had it without changing the
  /// event sequence — callers warn instead.
  bool sampler_armed = false;
};

/// Restores `snapshot_file` into a freshly built `model` world (the same
/// workload and options as the original run — replay cannot change the
/// experiment, only watch it) and deterministically re-runs the window up
/// to `until` (0 or past-horizon = the horizon) with tracing forced on
/// into a private sink. `options.trace`/`options.replay` are overridden;
/// `capacity` bounds the window sink's ring (0 = default).
StatusOr<ReplayWindow> replay_window(core::SystemModel model,
                                     const core::ConsolidationWorkload& workload,
                                     core::RunOptions options,
                                     const std::string& snapshot_file,
                                     SimTime until, std::size_t capacity = 0,
                                     std::uint32_t trace_filter = 0xffffffffu);

/// Slices a full-run trace CSV (obs::TraceSink::csv) down to the rows a
/// replay of (start, end] reproduces: rows whose *emission* instant — the
/// completion time for spans, the instant itself otherwise — lies in
/// (start, end]. The replay byte-identity contract is
///   slice_trace_csv(golden_csv, w.start, w.end) == w.csv
/// for every boundary of the golden run (tests/rundb holds it).
std::string slice_trace_csv(const std::string& full_csv, SimTime start,
                            SimTime end);

/// Where two runs first part ways.
struct BisectReport {
  bool diverged = false;
  std::size_t boundaries = 0;          // shared boundaries compared
  SimTime last_common = -1;            // last boundary with equal digests
  SimTime first_divergent = -1;        // first boundary with a mismatch
  std::vector<std::string> diverging_sections;  // top-level section names
  std::string field_report;  // first diverging field (diff_snapshots)
  std::string trace_report;  // first diverging trace record (diff_traces)
  std::string summary;       // the rendered report, one line per finding
};

/// Bisects the shared snapshot boundaries of two run directories by
/// per-section digest to find the first instant their states disagree,
/// assuming divergence is persistent (deterministic replay: once the
/// event sequences part ways the states never re-converge byte-for-byte).
/// With both trace exports given, localizes further to the first
/// diverging trace record. Empty trace paths skip the trace phase.
StatusOr<BisectReport> bisect_divergence(const std::string& golden_dir,
                                         const std::string& other_dir,
                                         core::SystemModel model,
                                         const std::string& golden_trace = {},
                                         const std::string& other_trace = {});

}  // namespace dc::rundb
