#include "campaign/spec.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/description.hpp"
#include "snapshot/format.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"

namespace dc::campaign {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool is_known_axis(std::string_view key) {
  const auto& keys = known_axis_keys();
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

/// Splits a comma-separated value list; empty items are an error.
StatusOr<std::vector<std::string>> split_values(std::string_view list,
                                               std::string_view key) {
  std::vector<std::string> values;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string_view item = trim(list.substr(start, comma - start));
    if (item.empty()) {
      return Status::invalid_argument(
          str_format("sweep spec: empty value in the '%.*s' list",
                     static_cast<int>(key.size()), key.data()));
    }
    values.emplace_back(item);
    start = comma + 1;
    if (comma == list.size()) break;
  }
  return values;
}

/// Replaces an axis wholesale, or appends it; canonical order is restored
/// afterwards by sort_axes.
void set_axis(SweepSpec& spec, std::string_view key,
              std::vector<std::string> values) {
  for (SweepAxis& axis : spec.axes) {
    if (axis.key == key) {
      axis.values = std::move(values);
      return;
    }
  }
  spec.axes.push_back({std::string(key), std::move(values)});
}

void sort_axes(SweepSpec& spec) {
  const auto& keys = known_axis_keys();
  std::sort(spec.axes.begin(), spec.axes.end(),
            [&keys](const SweepAxis& a, const SweepAxis& b) {
              const auto pa = std::find(keys.begin(), keys.end(), a.key);
              const auto pb = std::find(keys.begin(), keys.end(), b.key);
              return pa < pb;
            });
}

std::string resolve_path(std::string_view path, const std::string& base_dir) {
  if (path.empty() || path.front() == '/' || base_dir.empty()) {
    return std::string(path);
  }
  return base_dir + "/" + std::string(path);
}

/// One `key = values` assignment from a spec line or a CLI override.
Status apply_entry(SweepSpec& spec, std::string_view key,
                   std::string_view value_list, const std::string& base_dir,
                   int line) {
  const std::string where =
      line > 0 ? str_format("sweep spec line %d: ", line) : "sweep spec: ";
  if (key == "config") {
    const std::string_view value = trim(value_list);
    if (value.empty()) {
      return Status::invalid_argument(where + "config needs a file path");
    }
    spec.config_path = resolve_path(value, base_dir);
    return Status::ok();
  }
  if (key == "snapshot-every") {
    auto every = core::parse_duration(trim(value_list));
    if (!every.is_ok() || *every < 0) {
      return Status::invalid_argument(
          where + "snapshot-every wants a duration (e.g. 12h), got '" +
          std::string(trim(value_list)) + "'");
    }
    spec.snapshot_every = *every;
    return Status::ok();
  }
  if (!is_known_axis(key)) {
    std::string known = "config, snapshot-every";
    for (const std::string& k : known_axis_keys()) known += ", " + k;
    return Status::invalid_argument(where + "unknown key '" + std::string(key) +
                                    "' (known keys: " + known + ")");
  }
  auto values = split_values(value_list, key);
  if (!values.is_ok()) return values.status();
  set_axis(spec, key, std::move(*values));
  return Status::ok();
}

StatusOr<std::int64_t> parse_int(std::string_view text, const CellSpec& cell,
                                 std::string_view key) {
  const std::string buf(text);
  char* end = nullptr;
  const std::int64_t value = std::strtoll(buf.c_str(), &end, 10);
  if (end == buf.c_str() || *end != '\0') {
    return Status::invalid_argument(str_format(
        "cell %llu (%s): %.*s wants an integer, got '%s'",
        static_cast<unsigned long long>(cell.id), cell.key().c_str(),
        static_cast<int>(key.size()), key.data(), buf.c_str()));
  }
  return value;
}

StatusOr<SimDuration> parse_cell_duration(std::string_view text,
                                          const CellSpec& cell,
                                          std::string_view key) {
  auto value = core::parse_duration(text);
  if (!value.is_ok()) {
    return Status::invalid_argument(str_format(
        "cell %llu (%s): %.*s wants a duration, got '%.*s'",
        static_cast<unsigned long long>(cell.id), cell.key().c_str(),
        static_cast<int>(key.size()), key.data(), static_cast<int>(text.size()),
        text.data()));
  }
  return *value;
}

}  // namespace

const std::vector<std::string>& known_axis_keys() {
  static const std::vector<std::string> kKeys = {
      "system", "scheduler", "quantum", "capacity", "setup",
      "mttf",   "mttr",      "fault-seed"};
  return kKeys;
}

StatusOr<SweepSpec> parse_sweep_spec_string(std::string_view text,
                                            const std::string& base_dir) {
  SweepSpec spec;
  int line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(start, nl - start);
    ++line_no;
    const bool last = nl == text.size();
    start = nl + 1;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) {
      if (last) break;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::invalid_argument(
          str_format("sweep spec line %d: expected 'key = value[, value...]', "
                     "got '%.*s'",
                     line_no, static_cast<int>(line.size()), line.data()));
    }
    const std::string_view key = trim(line.substr(0, eq));
    for (const SweepAxis& axis : spec.axes) {
      if (axis.key == key) {
        return Status::invalid_argument(str_format(
            "sweep spec line %d: duplicate axis '%.*s'", line_no,
            static_cast<int>(key.size()), key.data()));
      }
    }
    if (Status st = apply_entry(spec, key, line.substr(eq + 1), base_dir,
                                line_no);
        !st.is_ok()) {
      return st;
    }
    if (last) break;
  }
  if (spec.config_path.empty()) {
    return Status::invalid_argument(
        "sweep spec: missing 'config = FILE' (the experiment description "
        "every cell runs)");
  }
  sort_axes(spec);
  return spec;
}

StatusOr<SweepSpec> read_sweep_spec(const std::string& path) {
  auto text = read_file(path);
  if (!text.is_ok()) {
    return Status::not_found("sweep spec: cannot read '" + path + "'");
  }
  const std::size_t slash = path.rfind('/');
  const std::string base_dir =
      slash == std::string::npos ? std::string() : path.substr(0, slash);
  auto spec = parse_sweep_spec_string(*text, base_dir);
  if (!spec.is_ok()) {
    return Status::invalid_argument(path + ": " + spec.status().message());
  }
  return spec;
}

Status apply_spec_overrides(SweepSpec& spec, std::string_view overrides) {
  std::size_t start = 0;
  while (start <= overrides.size()) {
    std::size_t semi = overrides.find(';', start);
    if (semi == std::string_view::npos) semi = overrides.size();
    const std::string_view item = trim(overrides.substr(start, semi - start));
    const bool last = semi == overrides.size();
    start = semi + 1;
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string_view::npos) {
        return Status::invalid_argument(
            "--set wants 'key=value[,value...]' items separated by ';', got '" +
            std::string(item) + "'");
      }
      if (Status st = apply_entry(spec, trim(item.substr(0, eq)),
                                  item.substr(eq + 1), {}, 0);
          !st.is_ok()) {
        return st;
      }
    }
    if (last) break;
  }
  sort_axes(spec);
  return Status::ok();
}

std::string CellSpec::key() const {
  std::string out;
  for (const auto& [k, v] : assignment) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

std::vector<CellSpec> expand_grid(const SweepSpec& spec) {
  std::uint64_t total = 1;
  for (const SweepAxis& axis : spec.axes) {
    total *= static_cast<std::uint64_t>(axis.values.size());
  }
  std::vector<CellSpec> cells;
  cells.reserve(total);
  for (std::uint64_t id = 0; id < total; ++id) {
    CellSpec cell;
    cell.id = id;
    // Row-major: the last axis varies fastest.
    std::uint64_t rest = id;
    std::uint64_t stride = total;
    for (const SweepAxis& axis : spec.axes) {
      stride /= static_cast<std::uint64_t>(axis.values.size());
      const std::uint64_t index = rest / stride;
      rest %= stride;
      cell.assignment.emplace_back(axis.key, axis.values[index]);
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::string canonical_spec_text(const SweepSpec& spec) {
  std::string out = "config=" + spec.config_path + "\n";
  out += str_format("snapshot-every=%lld\n",
                    static_cast<long long>(spec.snapshot_every));
  for (const SweepAxis& axis : spec.axes) {
    out += axis.key;
    out += '=';
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i != 0) out += ',';
      out += axis.values[i];
    }
    out += '\n';
  }
  return out;
}

std::uint64_t spec_digest(const SweepSpec& spec) {
  return snapshot::fnv1a(canonical_spec_text(spec));
}

StatusOr<CellPlan> plan_cell(const CellSpec& cell) {
  CellPlan plan;
  bool have_system = false;
  std::string mttf_text;
  std::string mttr_text;
  std::string fault_seed_text;
  for (const auto& [key, value] : cell.assignment) {
    if (key == "system") {
      if (value == "dcs") plan.model = core::SystemModel::kDcs;
      else if (value == "ssp") plan.model = core::SystemModel::kSsp;
      else if (value == "drp") plan.model = core::SystemModel::kDrp;
      else if (value == "dawningcloud") plan.model = core::SystemModel::kDawningCloud;
      else {
        return Status::invalid_argument(str_format(
            "cell %llu (%s): unknown system '%s' "
            "(dcs|ssp|drp|dawningcloud)",
            static_cast<unsigned long long>(cell.id), cell.key().c_str(),
            value.c_str()));
      }
      have_system = true;
    } else if (key == "scheduler") {
      if (value == "first-fit") {
        plan.options.htc_scheduler = core::HtcSchedulerKind::kFirstFit;
      } else if (value == "easy-backfill") {
        plan.options.htc_scheduler = core::HtcSchedulerKind::kEasyBackfill;
      } else if (value == "conservative-backfill") {
        plan.options.htc_scheduler = core::HtcSchedulerKind::kConservativeBackfill;
      } else if (value == "sjf") {
        plan.options.htc_scheduler = core::HtcSchedulerKind::kSjf;
      } else {
        return Status::invalid_argument(str_format(
            "cell %llu (%s): unknown scheduler '%s'",
            static_cast<unsigned long long>(cell.id), cell.key().c_str(),
            value.c_str()));
      }
    } else if (key == "quantum") {
      auto quantum = parse_cell_duration(value, cell, key);
      if (!quantum.is_ok()) return quantum.status();
      if (*quantum <= 0) {
        return Status::invalid_argument(str_format(
            "cell %llu (%s): quantum must be positive",
            static_cast<unsigned long long>(cell.id), cell.key().c_str()));
      }
      plan.options.billing_quantum = *quantum;
    } else if (key == "capacity") {
      auto capacity = parse_int(value, cell, key);
      if (!capacity.is_ok()) return capacity.status();
      plan.options.platform_capacity = *capacity;
    } else if (key == "setup") {
      auto setup = parse_cell_duration(value, cell, key);
      if (!setup.is_ok()) return setup.status();
      plan.options.setup_latency = *setup;
    } else if (key == "mttf") {
      mttf_text = value;
    } else if (key == "mttr") {
      mttr_text = value;
    } else if (key == "fault-seed") {
      fault_seed_text = value;
    }
  }
  if (!have_system) {
    return Status::invalid_argument(str_format(
        "cell %llu (%s): the grid needs a 'system' axis",
        static_cast<unsigned long long>(cell.id), cell.key().c_str()));
  }
  if (mttf_text.empty() != mttr_text.empty()) {
    return Status::invalid_argument(str_format(
        "cell %llu (%s): mttf and mttr must be swept (or fixed) together",
        static_cast<unsigned long long>(cell.id), cell.key().c_str()));
  }
  if (!fault_seed_text.empty() && mttf_text.empty()) {
    return Status::invalid_argument(str_format(
        "cell %llu (%s): fault-seed needs mttf/mttr",
        static_cast<unsigned long long>(cell.id), cell.key().c_str()));
  }
  if (!mttf_text.empty()) {
    auto mttf = parse_cell_duration(mttf_text, cell, "mttf");
    if (!mttf.is_ok()) return mttf.status();
    auto mttr = parse_cell_duration(mttr_text, cell, "mttr");
    if (!mttr.is_ok()) return mttr.status();
    if (*mttf <= 0 || *mttr <= 0) {
      return Status::invalid_argument(str_format(
          "cell %llu (%s): mttf/mttr must be positive",
          static_cast<unsigned long long>(cell.id), cell.key().c_str()));
    }
    core::fault::FaultDomain::Config faults;
    faults.mean_time_between_failures = *mttf;
    faults.mean_time_to_repair = *mttr;
    if (!fault_seed_text.empty()) {
      auto seed = parse_int(fault_seed_text, cell, "fault-seed");
      if (!seed.is_ok()) return seed.status();
      faults.seed = static_cast<std::uint64_t>(*seed);
    }
    plan.options.faults = faults;
  }
  return plan;
}

}  // namespace dc::campaign
