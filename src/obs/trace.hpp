// Deterministic structured tracing (see docs/OBSERVABILITY.md).
//
// A TraceSink records typed, sim-time-stamped events — instants ("job
// arrived") and spans ("job ran for 40 min") — into a bounded binary ring
// buffer. Everything about a sink is a pure function of the simulated
// run: timestamps are SimTime seconds, names are interned in first-use
// order, and the ring drops oldest-first with an explicit counter, so two
// runs of the same experiment produce byte-identical exports regardless
// of how many sweep threads run beside them and regardless of
// snapshot/resume boundaries. That makes the trace a determinism oracle
// in its own right: `dawningcloud trace-summary --trace a.json --other
// b.json` reports the first diverging event the way snapshot-diff reports
// the first diverging field.
//
// Sinks are owned per run (one per Simulator), never global, so parallel
// parameter sweeps stay race-free: each sweep lane traces into its own
// sink or into none.
//
// Emission goes through the DC_TRACE_* macros. They compile to a
// null-pointer test plus a call — negligible off the kernel hot path,
// which is deliberately *not* instrumented (per-event tracing would tax
// EventQueueThroughput; the kernel exposes aggregate counters to the
// PhaseProfiler instead).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/format.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::obs {

/// Event taxonomy. Categories gate emission (see TraceSink::set_filter)
/// and become the Chrome trace_event "cat" field.
enum class TraceCategory : std::uint16_t {
  kJob = 0,         // submit / start / complete / kill
  kLease = 1,       // VM lease open / amend / close
  kProvision = 2,   // grant / wait / timeout / reject / release / swap
  kResize = 3,      // DR1/DR2 resize decisions
  kFault = 4,       // node fail / repair / retry
  kCheckpoint = 5,  // checkpoint salvage on kill
  kLifecycle = 6,   // TRE state transitions
  kKernel = 7,      // kernel milestones (run boundaries)
  kLog = 8,         // Log lines routed via Log::set_hook
  kCategoryCount = 9,
};

const char* trace_category_name(TraceCategory category);

/// Filter bit for a category.
constexpr std::uint32_t trace_category_bit(TraceCategory category) {
  return 1u << static_cast<std::uint32_t>(category);
}

/// All categories enabled.
inline constexpr std::uint32_t kTraceAll = 0xffffffffu;

/// Parses a comma-separated category list ("job,lease,fault" or "all")
/// into a filter mask. Unknown names are an error listing the valid set.
StatusOr<std::uint32_t> parse_trace_filter(std::string_view spec);

/// One recorded event. Fixed-size POD so the ring is a flat allocation;
/// names/actors are ids into the sink's interned string table.
struct TraceEvent {
  SimTime time = 0;      // start time (instant: the instant itself)
  SimDuration dur = 0;   // span duration; 0 and unused for instants
  std::int64_t a0 = 0;   // event-specific args (job id, node count, ...)
  std::int64_t a1 = 0;
  std::uint32_t name = 0;   // interned event name, e.g. "job.submit"
  std::uint32_t actor = 0;  // interned actor name, e.g. the provider
  std::uint16_t category = 0;
  std::uint16_t phase = 0;  // 0 = instant, 1 = span
};

/// The largest ring, in events, that a snapshot restore accepts.
inline constexpr std::size_t kMaxTraceCapacity = std::size_t{1} << 24;

/// An event decoded back out of a Chrome trace JSON export.
struct ParsedTraceEvent {
  std::string name;
  std::string category;
  std::string actor;
  char phase = 'i';  // 'i' instant, 'X' span
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::int64_t a0 = 0;
  std::int64_t a1 = 0;
};

/// A pre-internable event/actor name: the string plus a cached interned
/// id, validated against the owning sink's intern epoch. Hot emitters
/// keep one (a member for actor names, a function-local static for event
/// names — see DC_TRACE_INSTANT_C) so the steady-state emission path
/// skips the string-table lookup entirely: one epoch compare instead of
/// a map find per emission.
///
/// Determinism: the cache only memoizes intern() results — a name is
/// still interned lazily, at its first *recorded* emission into a given
/// sink — so id assignment order (and with it every export and snapshot)
/// is byte-identical to the uncached path. Epochs are process-unique per
/// sink lifetime (and re-drawn on snapshot restore, which rebuilds the
/// string table), so a stale cache can never leak an id across sinks.
class TraceName {
 public:
  explicit TraceName(std::string_view text) : text_(text) {}
  std::string_view text() const { return text_; }

 private:
  friend class TraceSink;
  std::string text_;
  mutable std::uint64_t epoch_ = 0;  // 0 = never resolved (epochs start at 1)
  mutable std::uint32_t id_ = 0;
};

/// Bounded, deterministic event recorder. Not thread-safe: a sink
/// belongs to exactly one run (all emission happens on the thread
/// driving that run's Simulator).
class TraceSink {
 public:
  /// `capacity` bounds the ring; once full the oldest events are dropped
  /// (dropped() counts them) so tracing never grows without bound.
  explicit TraceSink(std::size_t capacity = 1u << 16);

  /// Restricts recording to the categories in `mask` (kTraceAll keeps
  /// everything). Events outside the mask are never recorded or interned.
  void set_filter(std::uint32_t mask) { filter_ = mask; }
  std::uint32_t filter() const { return filter_; }
  bool wants(TraceCategory category) const {
    return (filter_ & trace_category_bit(category)) != 0;
  }

  /// Records a zero-duration event at `now`.
  void instant(SimTime now, TraceCategory category, std::string_view name,
               std::string_view actor, std::int64_t a0 = 0,
               std::int64_t a1 = 0);

  /// Records a completed span [start, start+dur). Spans are emitted at
  /// completion time, when the duration is known; ring order is emission
  /// order (Perfetto sorts by ts on load).
  void span(SimTime start, SimDuration dur, TraceCategory category,
            std::string_view name, std::string_view actor,
            std::int64_t a0 = 0, std::int64_t a1 = 0);

  /// Cached-name overloads (hot emitters). Identical semantics — the
  /// TraceName is resolved (and interned on first recorded use) only
  /// after the category filter passes, name before actor, so id order
  /// matches the string_view path exactly.
  void instant(SimTime now, TraceCategory category, const TraceName& name,
               const TraceName& actor, std::int64_t a0 = 0,
               std::int64_t a1 = 0);
  void instant(SimTime now, TraceCategory category, const TraceName& name,
               std::string_view actor, std::int64_t a0 = 0,
               std::int64_t a1 = 0);
  void span(SimTime start, SimDuration dur, TraceCategory category,
            const TraceName& name, const TraceName& actor,
            std::int64_t a0 = 0, std::int64_t a1 = 0);
  void span(SimTime start, SimDuration dur, TraceCategory category,
            const TraceName& name, std::string_view actor,
            std::int64_t a0 = 0, std::int64_t a1 = 0);

  /// Get-or-create id for a name. Ids are assigned in first-use order,
  /// which is deterministic because emission order is; after a snapshot
  /// restore, re-interning an already-known string yields its saved id.
  std::uint32_t intern(std::string_view text);
  const std::string& name_of(std::uint32_t id) const { return names_[id]; }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Events oldest-to-newest (unwraps the ring).
  std::vector<TraceEvent> events() const;

  /// Per-category recorded-event counts (indexed by TraceCategory).
  std::vector<std::uint64_t> category_counts() const;

  /// Chrome trace_event JSON (object form, traceEvents array). Sim
  /// seconds map to microseconds; actors become named tid tracks.
  std::string chrome_json() const;
  Status export_chrome_json(const std::string& path) const;

  /// Long-format CSV: time,category,phase,name,actor,dur,a0,a1.
  std::string csv() const;
  Status export_csv(const std::string& path) const;

  /// Snapshot round trip: the ring, string table, filter and counters
  /// are part of a run's resumable state, so a resumed run's export is
  /// byte-identical to the uninterrupted run's.
  Status save(snapshot::SnapshotWriter& writer) const;
  Status restore(snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  Status persist(Io& io);
  /// Packs the ring's events [from, to), counted from the oldest, into
  /// `out`, which has room for the longest encoding of each.
  std::string_view pack_events(char* out, std::size_t from,
                               std::size_t to) const;
  /// Pushes the `event_count` events of a `packed` payload onto the ring.
  Status unpack_events(const snapshot::SnapshotReader& reader,
                       std::uint64_t event_count, std::string_view packed);
  static Status capacity_error(const snapshot::SnapshotReader& reader,
                               std::uint64_t capacity,
                               std::uint64_t event_count);

  void push(const TraceEvent& event);
  /// Calls `visit` on each recorded event, oldest first: ring slots
  /// head_.. to the end, then the wrapped part from slot 0 (empty until
  /// the ring has filled).
  template <class F>
  void for_each_event(F&& visit) const {
    const std::size_t tail = std::min(size_, ring_.size() - head_);
    for (std::size_t i = head_; i < head_ + tail; ++i) visit(ring_[i]);
    for (std::size_t i = 0; i < size_ - tail; ++i) visit(ring_[i]);
  }
  /// Returns the cached id, re-interning when the cache belongs to a
  /// different sink lifetime (epoch mismatch).
  std::uint32_t resolve(const TraceName& name);

  /// The recorded events: filled from slot 0 up to the capacity, after
  /// which each new event overwrites the oldest. Only the slots in use
  /// are ever touched, so a ring larger than its run costs no memory.
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of oldest event
  std::size_t size_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t filter_ = kTraceAll;
  /// Process-unique id for this sink's intern table; re-drawn on restore.
  std::uint64_t epoch_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
};

/// Parses a Chrome trace JSON produced by chrome_json() back into its
/// event list (metadata records are skipped). Tolerates only the shape
/// this exporter writes plus whitespace; anything else is an error with
/// an offset. Used by the exporter round-trip test and trace-summary.
StatusOr<std::vector<ParsedTraceEvent>> parse_chrome_json(
    std::string_view json);

/// Reads and parses a Chrome trace JSON file.
StatusOr<std::vector<ParsedTraceEvent>> read_chrome_trace(
    const std::string& path);

/// Typed guard for trace-analysis inputs: an empty or header-only trace
/// export (zero parsed events) yields a failed_precondition naming
/// `label`, so "this file records nothing" is never mistaken for a
/// zero-row summary or a no-divergence verdict. Every consumer that
/// draws conclusions from a parsed trace (trace-summary, trace diff,
/// the replay bisector) checks this before reporting.
Status validate_trace_nonempty(const std::vector<ParsedTraceEvent>& events,
                               const std::string& label);

/// Per-category counts and span-duration percentiles, rendered as an
/// aligned table — the `trace-summary` report body.
std::string summarize_trace(const std::vector<ParsedTraceEvent>& events);

/// Walks two parsed traces in lockstep and reports the first diverging
/// event (index plus both sides' fields) into `report`. Returns true
/// when the traces are identical — the tracing twin of diff_snapshots.
bool diff_traces(const std::vector<ParsedTraceEvent>& golden,
                 const std::vector<ParsedTraceEvent>& other,
                 std::string* report);

}  // namespace dc::obs

// Emission macros. `sink` is a TraceSink* (may be null); they cost one
// pointer test when the sink is null.
#define DC_TRACE_INSTANT(sink, ...)                        \
  do {                                                     \
    if ((sink) != nullptr) (sink)->instant(__VA_ARGS__);   \
  } while (0)
#define DC_TRACE_SPAN(sink, ...)                           \
  do {                                                     \
    if ((sink) != nullptr) (sink)->span(__VA_ARGS__);      \
  } while (0)
// Cached-name variants: the event name is a literal, held in a per-site
// thread_local TraceName so repeated emissions skip the intern lookup
// (thread_local, not plain static, because parallel sweep lanes emit
// into per-lane sinks concurrently). `actor` may be a TraceName too —
// hot daemons keep one as a member for their own name.
#define DC_TRACE_INSTANT_C(sink, now, category, name_literal, ...)          \
  do {                                                                      \
    if ((sink) != nullptr) {                                                \
      static thread_local ::dc::obs::TraceName dc_trace_name_{name_literal}; \
      (sink)->instant((now), (category), dc_trace_name_, __VA_ARGS__);      \
    }                                                                       \
  } while (0)
#define DC_TRACE_SPAN_C(sink, start, dur, category, name_literal, ...)      \
  do {                                                                      \
    if ((sink) != nullptr) {                                                \
      static thread_local ::dc::obs::TraceName dc_trace_name_{name_literal}; \
      (sink)->span((start), (dur), (category), dc_trace_name_,              \
                   __VA_ARGS__);                                            \
    }                                                                       \
  } while (0)
