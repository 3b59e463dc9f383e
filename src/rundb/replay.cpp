#include "rundb/replay.hpp"

#include <cstdlib>
#include <utility>

#include "snapshot/format.hpp"
#include "util/strings.hpp"

namespace dc::rundb {
namespace {

/// Digest lists compare equal only section-for-section: a section present
/// on one side only is a divergence too (a component appearing or
/// vanishing is the loudest possible state difference).
bool digests_equal(
    const std::vector<std::pair<std::string, std::uint64_t>>& a,
    const std::vector<std::pair<std::string, std::uint64_t>>& b) {
  return a == b;
}

std::vector<std::string> diverging_section_names(
    const std::vector<std::pair<std::string, std::uint64_t>>& golden,
    const std::vector<std::pair<std::string, std::uint64_t>>& other) {
  std::vector<std::string> names;
  std::size_t i = 0;
  while (i < golden.size() && i < other.size()) {
    if (golden[i].first != other[i].first) {
      // Section order itself diverged; everything from here is suspect.
      names.push_back(golden[i].first + " vs " + other[i].first);
      return names;
    }
    if (golden[i].second != other[i].second) names.push_back(golden[i].first);
    ++i;
  }
  for (; i < golden.size(); ++i) names.push_back(golden[i].first + " (golden only)");
  for (; i < other.size(); ++i) names.push_back(other[i].first + " (other only)");
  return names;
}

}  // namespace

StatusOr<ReplayWindow> replay_window(core::SystemModel model,
                                     const core::ConsolidationWorkload& workload,
                                     core::RunOptions options,
                                     const std::string& snapshot_file,
                                     SimTime until, std::size_t capacity,
                                     std::uint32_t trace_filter) {
  obs::TraceSink sink(capacity == 0 ? (1u << 16) : capacity);
  sink.set_filter(trace_filter);
  options.trace = &sink;
  options.replay = true;
  core::SystemRunner runner(model, workload, options,
                            core::SystemRunner::Mode::kRestore);
  if (Status st = runner.restore_file(snapshot_file); !st.is_ok()) return st;

  ReplayWindow window;
  window.start = runner.now();
  const SimTime horizon = runner.horizon();
  window.end = (until <= 0 || until > horizon) ? horizon : until;
  if (window.end < window.start) {
    return Status::invalid_argument(str_format(
        "replay window ends at t=%lld but the snapshot '%s' freezes "
        "t=%lld — time only moves forward; pick a later --until or an "
        "earlier boundary",
        static_cast<long long>(window.end), snapshot_file.c_str(),
        static_cast<long long>(window.start)));
  }
  runner.run_until(window.end);
  // Shutdown events (lease.close, provision.release) are part of the
  // horizon's trace slice, so a window reaching the horizon finalizes
  // too; the SystemResult itself is discarded — results come from the
  // original run or the run store, never from a replay.
  if (window.end == horizon) (void)runner.finalize();
  window.chrome_json = sink.chrome_json();
  window.csv = sink.csv();
  window.events = sink.emitted();
  window.dropped = sink.dropped();
  window.sampler_armed = runner.sampler_armed();
  return window;
}

std::string slice_trace_csv(const std::string& full_csv, SimTime start,
                            SimTime end) {
  std::string out;
  std::size_t pos = 0;
  bool header = true;
  while (pos < full_csv.size()) {
    std::size_t eol = full_csv.find('\n', pos);
    if (eol == std::string::npos) eol = full_csv.size();
    const std::string_view line(full_csv.data() + pos, eol - pos);
    pos = eol + 1;
    if (header) {
      out.append(line);
      out.push_back('\n');
      header = false;
      continue;
    }
    if (line.empty()) continue;
    // time,category,phase,name,actor,dur,a0,a1 — none of the first six
    // fields the slice needs can contain commas (times and durations are
    // integers, categories and phases come from fixed vocabularies).
    const long long time = std::strtoll(line.data(), nullptr, 10);
    std::size_t field = 0;
    std::size_t at = 0;
    std::string_view phase;
    long long dur = 0;
    while (at <= line.size() && field < 6) {
      std::size_t comma = line.find(',', at);
      if (comma == std::string_view::npos) comma = line.size();
      if (field == 2) phase = line.substr(at, comma - at);
      if (field == 5) dur = std::strtoll(line.data() + at, nullptr, 10);
      at = comma + 1;
      ++field;
    }
    const long long emitted = phase == "span" ? time + dur : time;
    if (emitted > start && emitted <= end) {
      out.append(line);
      out.push_back('\n');
    }
  }
  return out;
}

StatusOr<BisectReport> bisect_divergence(const std::string& golden_dir,
                                         const std::string& other_dir,
                                         core::SystemModel model,
                                         const std::string& golden_trace,
                                         const std::string& other_trace) {
  auto golden = core::list_snapshot_boundaries(golden_dir, model);
  if (!golden.is_ok()) return golden.status();
  auto other = core::list_snapshot_boundaries(other_dir, model);
  if (!other.is_ok()) return other.status();

  // The shared boundary grid: instants both runs snapshotted. Different
  // --snapshot-every values still intersect on common multiples.
  std::vector<std::pair<core::SnapshotBoundary, core::SnapshotBoundary>>
      shared;
  std::size_t gi = 0, oi = 0;
  while (gi < golden->size() && oi < other->size()) {
    if ((*golden)[gi].time < (*other)[oi].time) {
      ++gi;
    } else if ((*other)[oi].time < (*golden)[gi].time) {
      ++oi;
    } else {
      shared.emplace_back((*golden)[gi], (*other)[oi]);
      ++gi;
      ++oi;
    }
  }
  if (shared.empty()) {
    return Status::failed_precondition(str_format(
        "runs share no snapshot boundary: '%s' has %zu %s snapshots, '%s' "
        "has %zu — bisection needs both runs snapshotted at common "
        "instants (same --snapshot-every, or multiples)",
        golden_dir.c_str(), golden->size(), core::system_model_name(model),
        other_dir.c_str(), other->size()));
  }

  BisectReport report;
  report.boundaries = shared.size();

  // Bisect for the first boundary whose per-section digests disagree.
  // Deterministic replay makes divergence persistent — once the event
  // sequences part ways the states never re-converge byte-for-byte — so
  // agreement is a prefix and binary search applies. Digest lists are
  // memoized per probed index; a full bisection reads O(log n) snapshot
  // pairs, not n.
  std::vector<int> known(shared.size(), -1);  // -1 unknown, 0 differ, 1 equal
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> gdig(
      shared.size()),
      odig(shared.size());
  auto probe = [&](std::size_t i) -> StatusOr<bool> {
    if (known[i] < 0) {
      auto g = snapshot::section_digests(shared[i].first.path);
      if (!g.is_ok()) return g.status();
      auto o = snapshot::section_digests(shared[i].second.path);
      if (!o.is_ok()) return o.status();
      gdig[i] = std::move(*g);
      odig[i] = std::move(*o);
      known[i] = digests_equal(gdig[i], odig[i]) ? 1 : 0;
    }
    return known[i] == 1;
  };

  auto last = probe(shared.size() - 1);
  if (!last.is_ok()) return last.status();
  if (*last) {
    // States agree through the final shared boundary: any divergence (if
    // the traces show one) happened after it.
    report.last_common = shared.back().first.time;
  } else {
    std::size_t lo = 0, hi = shared.size() - 1;  // hi is known to differ
    auto first = probe(0);
    if (!first.is_ok()) return first.status();
    if (*first) {
      while (lo + 1 < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        auto equal = probe(mid);
        if (!equal.is_ok()) return equal.status();
        (*equal ? lo : hi) = mid;
      }
      report.last_common = shared[lo].first.time;
    } else {
      hi = 0;  // diverged before the very first shared boundary
    }
    report.diverged = true;
    report.first_divergent = shared[hi].first.time;
    report.diverging_sections = diverging_section_names(gdig[hi], odig[hi]);
    std::string field_report;
    auto same = snapshot::diff_snapshots(shared[hi].first.path,
                                         shared[hi].second.path, &field_report);
    if (same.is_ok() && !*same) report.field_report = field_report;
  }

  // Trace phase: localize inside the interval to one trace record.
  if (!golden_trace.empty() && !other_trace.empty()) {
    auto golden_events = obs::read_chrome_trace(golden_trace);
    if (!golden_events.is_ok()) return golden_events.status();
    auto other_events = obs::read_chrome_trace(other_trace);
    if (!other_events.is_ok()) return other_events.status();
    if (Status st = obs::validate_trace_nonempty(*golden_events, golden_trace);
        !st.is_ok()) {
      return st;
    }
    if (Status st = obs::validate_trace_nonempty(*other_events, other_trace);
        !st.is_ok()) {
      return st;
    }
    std::string trace_report;
    if (!obs::diff_traces(*golden_events, *other_events, &trace_report)) {
      report.diverged = true;
      report.trace_report = trace_report;
    }
  }

  // Render the verdict.
  if (!report.diverged) {
    report.summary = str_format(
        "no divergence: %zu shared snapshot boundaries have identical "
        "per-section digests (last at t=%lld)%s\n",
        report.boundaries, static_cast<long long>(report.last_common),
        golden_trace.empty() ? "" : " and the trace exports are identical");
    return report;
  }
  std::string out;
  if (report.first_divergent >= 0) {
    if (report.last_common >= 0) {
      out += str_format(
          "state diverges in the snapshot interval (t=%lld, t=%lld]: last "
          "agreeing boundary t=%lld, first diverging boundary t=%lld\n",
          static_cast<long long>(report.last_common),
          static_cast<long long>(report.first_divergent),
          static_cast<long long>(report.last_common),
          static_cast<long long>(report.first_divergent));
    } else {
      out += str_format(
          "state already diverges at the first shared snapshot boundary "
          "t=%lld — the runs parted ways before any snapshot was taken\n",
          static_cast<long long>(report.first_divergent));
    }
    out += "diverging sections:";
    for (const std::string& name : report.diverging_sections) {
      out += " " + name;
    }
    out += "\n";
    if (!report.field_report.empty()) {
      out += "first diverging field: " + report.field_report + "\n";
    }
    if (report.last_common >= 0) {
      out += str_format(
          "replay the interval from both runs to watch it happen:\n"
          "  dawningcloud replay window --snapshot-dir %s --from %lld "
          "--until %lld ...\n",
          other_dir.c_str(), static_cast<long long>(report.last_common),
          static_cast<long long>(report.first_divergent));
    }
  } else {
    out += str_format(
        "states agree at every shared snapshot boundary (%zu, last at "
        "t=%lld) but the traces diverge — the divergence is after the "
        "last boundary or invisible to state digests\n",
        report.boundaries, static_cast<long long>(report.last_common));
  }
  if (!report.trace_report.empty()) {
    out += "first diverging trace record: " + report.trace_report + "\n";
  }
  report.summary = out;
  return report;
}

}  // namespace dc::rundb
