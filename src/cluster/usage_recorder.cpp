#include "cluster/usage_recorder.hpp"

#include <algorithm>
#include <cassert>

namespace dc::cluster {

void UsageRecorder::change(SimTime t, std::int64_t delta) {
  assert(t >= 0);
  assert(breakpoints_.empty() || t >= breakpoints_.back().time);
  current_ += delta;
  assert(current_ >= 0 && "usage went negative");
  peak_ = std::max(peak_, current_);
  if (!breakpoints_.empty() && breakpoints_.back().time == t) {
    breakpoints_.back().level = current_;
  } else {
    breakpoints_.push_back({t, current_});
  }
}

double UsageRecorder::node_hours(SimTime horizon) const {
  if (breakpoints_.empty()) return 0.0;
  assert(horizon >= breakpoints_.back().time);
  double node_seconds = 0.0;
  std::int64_t level = 0;
  SimTime prev = 0;
  for (const auto& bp : breakpoints_) {
    node_seconds += static_cast<double>(level) * static_cast<double>(bp.time - prev);
    level = bp.level;
    prev = bp.time;
  }
  node_seconds += static_cast<double>(level) * static_cast<double>(horizon - prev);
  return node_seconds / static_cast<double>(kHour);
}

std::vector<std::int64_t> UsageRecorder::hourly_peak_series(SimTime horizon) const {
  const auto hours = static_cast<std::size_t>(ceil_div(horizon, kHour));
  std::vector<std::int64_t> series(hours, 0);
  if (hours == 0) return series;
  std::int64_t level = 0;
  SimTime prev = 0;
  auto fill = [&](SimTime from, SimTime to, std::int64_t lvl) {
    if (from >= to) return;
    const auto first = static_cast<std::size_t>(from / kHour);
    // `to` is exclusive: a segment ending exactly on an hour boundary does
    // not touch the next hour.
    const auto last = static_cast<std::size_t>((to - 1) / kHour);
    for (std::size_t h = first; h <= last && h < series.size(); ++h) {
      series[h] = std::max(series[h], lvl);
    }
  };
  for (const auto& bp : breakpoints_) {
    fill(prev, std::min(bp.time, horizon), level);
    level = bp.level;
    prev = bp.time;
    if (prev >= horizon) break;
  }
  fill(prev, horizon, level);
  return series;
}

template <class Io>
Status UsageRecorder::persist(Io& io) {
  if (auto st = io.i64("current", current_); !st.is_ok()) return st;
  if (auto st = io.i64("peak", peak_); !st.is_ok()) return st;
  // A save falls between instants, after the last change at its own, so
  // every breakpoint is final: all of them are history.
  const auto breakpoint_rows = [&](Io& h, std::uint64_t first,
                                   std::uint64_t end) -> Status {
    if constexpr (!Io::kSaving) breakpoints_.resize(end);
    for (std::uint64_t i = first; i < end; ++i) {
      Breakpoint& bp = breakpoints_[i];
      if (auto st = h.i64("time", bp.time); !st.is_ok()) return st;
      if (auto st = h.i64("level", bp.level); !st.is_ok()) return st;
    }
    return Status::ok();
  };
  std::uint64_t breakpoint_count = breakpoints_.size();
  if constexpr (!Io::kSaving) breakpoints_.clear();
  return snapshot::table(io, "breakpoint_count", "breakpoints",
                         breakpoint_count, breakpoints_.size(),
                         breakpoint_rows);
}

Status UsageRecorder::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<UsageRecorder&>(*this).persist(writer);
}

Status UsageRecorder::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

std::vector<double> UsageRecorder::hourly_mean_series(SimTime horizon) const {
  const auto hours = static_cast<std::size_t>(ceil_div(horizon, kHour));
  std::vector<double> series(hours, 0.0);
  if (hours == 0) return series;
  std::int64_t level = 0;
  SimTime prev = 0;
  auto fill = [&](SimTime from, SimTime to, std::int64_t lvl) {
    while (from < to) {
      const auto h = static_cast<std::size_t>(from / kHour);
      const SimTime hour_end = (static_cast<SimTime>(h) + 1) * kHour;
      const SimTime seg_end = std::min(to, hour_end);
      if (h < series.size()) {
        series[h] += static_cast<double>(lvl) *
                     static_cast<double>(seg_end - from) /
                     static_cast<double>(kHour);
      }
      from = seg_end;
    }
  };
  for (const auto& bp : breakpoints_) {
    fill(prev, std::min(bp.time, horizon), level);
    level = bp.level;
    prev = bp.time;
    if (prev >= horizon) break;
  }
  fill(prev, horizon, level);
  return series;
}

}  // namespace dc::cluster
