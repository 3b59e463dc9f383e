#include "obs/metrics.hpp"

#include <charconv>

#include "util/csv.hpp"
#include "util/fsio.hpp"

namespace dc::obs {

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t delta) {
  auto it = counter_ids_.find(name);
  if (it == counter_ids_.end()) {
    counter_ids_.emplace(std::string(name), counters_.size());
    counters_.push_back({std::string(name), delta});
    return;
  }
  counters_[it->second].value += delta;
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counter_ids_.find(name);
  return it == counter_ids_.end() ? 0 : counters_[it->second].value;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  auto it = gauge_ids_.find(name);
  if (it == gauge_ids_.end()) {
    gauge_ids_.emplace(std::string(name), gauges_.size());
    gauges_.push_back({std::string(name), value});
    return;
  }
  gauges_[it->second].value = value;
}

double MetricsRegistry::gauge(std::string_view name) const {
  auto it = gauge_ids_.find(name);
  return it == gauge_ids_.end() ? 0.0 : gauges_[it->second].value;
}

RunningStats& MetricsRegistry::stats(std::string_view name) {
  auto it = stats_ids_.find(name);
  if (it == stats_ids_.end()) {
    stats_ids_.emplace(std::string(name), stats_.size());
    stats_.push_back({std::string(name), RunningStats()});
    return stats_.back().value;
  }
  return stats_[it->second].value;
}

const RunningStats* MetricsRegistry::find_stats(std::string_view name) const {
  auto it = stats_ids_.find(name);
  return it == stats_ids_.end() ? nullptr : &stats_[it->second].value;
}

Histogram& MetricsRegistry::histogram(std::string_view name, double lo,
                                      double hi, std::size_t bins) {
  auto it = histogram_ids_.find(name);
  if (it == histogram_ids_.end()) {
    histogram_ids_.emplace(std::string(name), histograms_.size());
    histograms_.push_back({std::string(name), Histogram(lo, hi, bins)});
    return histograms_.back().value;
  }
  return histograms_[it->second].value;
}

void MetricsRegistry::sample(SimTime now, std::string_view metric,
                             double value) {
  auto it = sample_ids_.find(metric);
  std::uint32_t id;
  if (it == sample_ids_.end()) {
    id = static_cast<std::uint32_t>(sample_names_.size());
    sample_ids_.emplace(std::string(metric), id);
    sample_names_.emplace_back(metric);
  } else {
    id = it->second;
  }
  samples_.push_back({now, id, value});
}

std::string MetricsRegistry::timeseries_csv() const {
  // A row apart from its name: a 20-character time, a value as %.10g
  // prints it (at most "-1.797693135e+308") and the separators.
  constexpr std::size_t kMaxRowBytes = 48;
  constexpr std::string_view kHeader = "time,metric,value\n";
  std::size_t bound = kHeader.size() + samples_.size() * kMaxRowBytes;
  for (const auto& row : samples_) bound += sample_names_[row.metric].size();
  std::string out;
  out.reserve(bound);
  out += kHeader;
  char buf[kMaxRowBytes];
  for (const auto& row : samples_) {
    char* p = std::to_chars(buf, buf + kMaxRowBytes,
                            static_cast<long long>(row.time)).ptr;
    *p++ = ',';
    out.append(buf, p);
    out += sample_names_[row.metric];
    buf[0] = ',';
    // General format at precision 10 is printf's %.10g, byte for byte.
    p = std::to_chars(buf + 1, buf + kMaxRowBytes, row.value,
                      std::chars_format::general, 10).ptr;
    *p++ = '\n';
    out.append(buf, p);
  }
  return out;
}

Status MetricsRegistry::export_timeseries_csv(const std::string& path) const {
  // Atomic tmp+fsync+rename (util/fsio): an interrupted export leaves
  // either the previous complete CSV or nothing — never a truncated file
  // a plotting script would silently accept.
  return atomic_write_file(path, timeseries_csv(), "obs.metrics.csv");
}

std::string MetricsRegistry::summary() const {
  TextTable table({"instrument", "kind", "value", "mean", "min", "max"});
  for (const auto& c : counters_) {
    table.cell(c.name).cell("counter")
        .cell(static_cast<std::int64_t>(c.value)).cell("").cell("").cell("");
    table.end_row();
  }
  for (const auto& g : gauges_) {
    table.cell(g.name).cell("gauge").cell(g.value).cell("").cell("").cell("");
    table.end_row();
  }
  for (const auto& s : stats_) {
    table.cell(s.name).cell("stats")
        .cell(static_cast<std::int64_t>(s.value.count()))
        .cell(s.value.mean()).cell(s.value.min()).cell(s.value.max());
    table.end_row();
  }
  for (const auto& h : histograms_) {
    table.cell(h.name).cell("histogram")
        .cell(static_cast<std::int64_t>(h.value.total()))
        .cell(h.value.p50()).cell(h.value.p95()).cell(h.value.p99());
    table.end_row();
  }
  return table.render("metrics");
}

}  // namespace dc::obs
