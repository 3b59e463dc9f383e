#include "campaign/spec.hpp"

#include <algorithm>

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

/// Splits a comma-separated value list; empty items are an error.
StatusOr<std::vector<std::string>> split_values(std::string_view list,
                                               std::string_view key) {
  std::vector<std::string> values;
  for (const std::string_view raw : split_char(list, ',')) {
    const std::string_view item = trim(raw);
    if (item.empty()) {
      return Status::invalid_argument(
          str_format("sweep spec: empty value in the '%.*s' list",
                     static_cast<int>(key.size()), key.data()));
    }
    values.emplace_back(item);
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
  const auto& keys = core::run_setting_keys();
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
  const auto& keys = core::run_setting_keys();
  if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
    return Status::invalid_argument(
        where + "unknown key '" + std::string(key) +
        "' (known keys: config, snapshot-every, " +
        join(keys, ", ") + ")");
  }
  auto values = split_values(value_list, key);
  if (!values.is_ok()) return values.status();
  set_axis(spec, key, std::move(*values));
  return Status::ok();
}

}  // namespace

StatusOr<SweepSpec> parse_sweep_spec_string(std::string_view text,
                                            const std::string& base_dir) {
  SweepSpec spec;
  int line_no = 0;
  for (std::string_view line : split_char(text, '\n')) {
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
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
  for (const std::string_view raw : split_char(overrides, ';')) {
    const std::string_view item = trim(raw);
    if (item.empty()) continue;
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
  const auto refuse = [&cell](StatusCode code, const std::string& why) {
    return Status(code, str_format("cell %llu (%s): %s",
                                   static_cast<unsigned long long>(cell.id),
                                   cell.key().c_str(), why.c_str()));
  };
  auto settings = core::parse_run_settings(cell.assignment);
  if (!settings.is_ok()) {
    return refuse(settings.status().code(), settings.status().message());
  }
  if (!settings->model.has_value()) {
    return refuse(StatusCode::kInvalidArgument,
                  "the grid needs a 'system' axis");
  }
  return CellPlan{*settings->model, std::move(settings->options)};
}

}  // namespace dc::campaign
