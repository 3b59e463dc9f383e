#include "obs/metrics.hpp"

#include <charconv>

#include "util/fsio.hpp"

namespace dc::obs {

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

}  // namespace dc::obs
