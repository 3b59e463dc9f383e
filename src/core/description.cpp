#include "core/description.hpp"

#include <fstream>
#include <istream>
#include <limits>
#include <sstream>

#include "snapshot/format.hpp"
#include "util/strings.hpp"
#include "workflow/montage.hpp"
#include "workflow/wff.hpp"
#include "workload/models.hpp"
#include "workload/swf.hpp"

namespace dc::core {
namespace {

// A provider's name becomes its snapshot section name, "htc:<name>",
// "mtc:<name>" or "drp:<name>" (core/system_runner.cpp), so it must fit
// the format's record-name limit together with that prefix.
constexpr std::size_t kLongestProviderName =
    snapshot::kMaxRecordNameBytes - std::string_view("htc:").size();

std::string resolve(const std::string& base_dir, std::string_view path) {
  if (base_dir.empty() || path.empty() || path.front() == '/') {
    return std::string(path);
  }
  return base_dir + "/" + std::string(path);
}

struct ProviderStanza {
  std::string name;
  std::string workload_type;  // "htc" | "mtc"
  std::int64_t initial_nodes = 40;
  double threshold_ratio = 1.5;
  std::int64_t subscription = 0;
  std::int64_t fixed_nodes = 0;
  SimTime submit_time = 0;
  std::string os = "linux";
  int priority = 0;
  std::string trace_source;     // swf:<path> | synthetic:nasa|blue
  std::string workflow_source;  // wff:<path> | montage:<inputs>
  std::uint64_t seed = 42;
};

Status apply_stanza(const ProviderStanza& stanza, const std::string& base_dir,
                    ConsolidationWorkload& workload, std::size_t line_no) {
  if (stanza.workload_type == "htc") {
    if (stanza.trace_source.empty()) {
      return Status::invalid_argument(str_format(
          "provider '%s' (ended line %zu): HTC provider needs a trace",
          stanza.name.c_str(), line_no));
    }
    HtcWorkloadSpec spec;
    spec.name = stanza.name;
    spec.policy = ResourceManagementPolicy::htc(
        stanza.initial_nodes, stanza.threshold_ratio, stanza.subscription);
    spec.priority = stanza.priority;
    const auto parts = split_char(stanza.trace_source, ':');
    if (parts.size() == 2 && parts[0] == "swf") {
      auto swf = workload::read_swf_file(resolve(base_dir, parts[1]));
      if (!swf.is_ok()) return swf.status();
      auto trace = workload::Trace::from_swf(*swf, stanza.name);
      if (!trace.is_ok()) return trace.status();
      spec.trace = std::move(*trace);
    } else if (parts.size() == 2 && parts[0] == "synthetic") {
      if (parts[1] == "nasa") {
        spec.trace = workload::make_nasa_ipsc(stanza.seed);
      } else if (parts[1] == "blue") {
        spec.trace = workload::make_sdsc_blue(stanza.seed);
      } else {
        return Status::invalid_argument(
            str_format("unknown synthetic trace '%.*s'",
                       static_cast<int>(parts[1].size()), parts[1].data()));
      }
    } else {
      return Status::invalid_argument(
          "trace source must be swf:<path> or synthetic:<name>");
    }
    spec.fixed_nodes =
        stanza.fixed_nodes > 0 ? stanza.fixed_nodes : spec.trace.capacity_nodes();
    workload.htc.push_back(std::move(spec));
    return Status::ok();
  }
  if (stanza.workload_type == "mtc") {
    if (stanza.workflow_source.empty()) {
      return Status::invalid_argument(str_format(
          "provider '%s' (ended line %zu): MTC provider needs a workflow",
          stanza.name.c_str(), line_no));
    }
    MtcWorkloadSpec spec;
    spec.name = stanza.name;
    spec.submit_time = stanza.submit_time;
    spec.policy = ResourceManagementPolicy::mtc(
        stanza.initial_nodes, stanza.threshold_ratio, stanza.subscription);
    spec.priority = stanza.priority;
    const auto parts = split_char(stanza.workflow_source, ':');
    if (parts.size() == 2 && parts[0] == "wff") {
      auto dag = workflow::read_wff_file(resolve(base_dir, parts[1]));
      if (!dag.is_ok()) return dag.status();
      spec.dag = std::move(*dag);
    } else if (parts.size() == 2 && parts[0] == "montage") {
      auto inputs = parse_int(parts[1]);
      if (!inputs.is_ok() || *inputs < 2) {
        return Status::invalid_argument("montage:<inputs> needs inputs >= 2");
      }
      workflow::MontageParams params;
      params.inputs = *inputs;
      spec.dag = workflow::make_montage(params, stanza.seed);
    } else {
      return Status::invalid_argument(
          "workflow source must be wff:<path> or montage:<inputs>");
    }
    // Default RE size: the workflow's initially-ready width, which is the
    // paper's sizing for Montage (166, the steady-state demand) rather
    // than the transient mDiffFit maximum.
    spec.fixed_nodes = stanza.fixed_nodes > 0
                           ? stanza.fixed_nodes
                           : static_cast<std::int64_t>(spec.dag.roots().size());
    workload.mtc.push_back(std::move(spec));
    return Status::ok();
  }
  return Status::invalid_argument(str_format(
      "provider '%s': workload must be 'htc' or 'mtc', got '%s'",
      stanza.name.c_str(), stanza.workload_type.c_str()));
}

}  // namespace

StatusOr<SimDuration> parse_duration(std::string_view token) {
  if (token.empty()) return Status::invalid_argument("empty duration");
  const std::string_view text = token;
  SimDuration multiplier = 1;
  switch (token.back()) {
    case 's': multiplier = kSecond; token.remove_suffix(1); break;
    case 'm': multiplier = kMinute; token.remove_suffix(1); break;
    case 'h': multiplier = kHour; token.remove_suffix(1); break;
    case 'd': multiplier = kDay; token.remove_suffix(1); break;
    default: break;
  }
  auto value = parse_int(token);
  if (!value.is_ok()) return value.status();
  if (*value < 0) return Status::invalid_argument("negative duration");
  if (*value > std::numeric_limits<SimDuration>::max() / multiplier) {
    return Status::out_of_range("duration out of range: " +
                                std::string(text));
  }
  return *value * multiplier;
}

StatusOr<ConsolidationWorkload> parse_experiment_description(
    std::istream& in, const std::string& base_dir) {
  ConsolidationWorkload workload;
  ProviderStanza stanza;
  bool in_stanza = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip trailing comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    const auto tokens = split_ws(line);
    if (tokens.empty()) continue;
    const std::string_view key = tokens[0];

    if (key == "provider") {
      if (in_stanza) {
        return Status::invalid_argument(
            str_format("line %zu: nested provider stanza", line_no));
      }
      if (tokens.size() != 2) {
        return Status::invalid_argument(
            str_format("line %zu: provider needs a name", line_no));
      }
      if (tokens[1].size() > kLongestProviderName) {
        return Status::invalid_argument(str_format(
            "line %zu: provider name is %zu bytes, longer than the %zu a "
            "snapshot section name leaves for it",
            line_no, tokens[1].size(), kLongestProviderName));
      }
      stanza = ProviderStanza{};
      stanza.name = std::string(tokens[1]);
      in_stanza = true;
      continue;
    }
    if (key == "end") {
      if (!in_stanza) {
        return Status::invalid_argument(
            str_format("line %zu: 'end' outside a provider stanza", line_no));
      }
      if (auto status = apply_stanza(stanza, base_dir, workload, line_no);
          !status.is_ok()) {
        return status;
      }
      in_stanza = false;
      continue;
    }
    if (!in_stanza) {
      return Status::invalid_argument(str_format(
          "line %zu: '%.*s' outside a provider stanza", line_no,
          static_cast<int>(key.size()), key.data()));
    }
    if (tokens.size() != 2) {
      return Status::invalid_argument(
          str_format("line %zu: expected 'key value'", line_no));
    }
    const std::string_view value = tokens[1];
    auto parse_positive = [&](std::int64_t& out) -> Status {
      auto parsed = parse_int(value);
      if (!parsed.is_ok() || *parsed < 0) {
        return Status::invalid_argument(
            str_format("line %zu: invalid number", line_no));
      }
      out = *parsed;
      return Status::ok();
    };

    if (key == "workload") {
      stanza.workload_type = std::string(value);
    } else if (key == "initial-nodes") {
      if (auto s = parse_positive(stanza.initial_nodes); !s.is_ok()) return s;
    } else if (key == "threshold-ratio") {
      auto parsed = parse_double(value);
      if (!parsed.is_ok() || *parsed <= 0) {
        return Status::invalid_argument(
            str_format("line %zu: invalid threshold-ratio", line_no));
      }
      stanza.threshold_ratio = *parsed;
    } else if (key == "subscription") {
      if (auto s = parse_positive(stanza.subscription); !s.is_ok()) return s;
    } else if (key == "fixed-nodes") {
      if (auto s = parse_positive(stanza.fixed_nodes); !s.is_ok()) return s;
    } else if (key == "submit-time") {
      auto parsed = parse_duration(value);
      if (!parsed.is_ok()) {
        return Status::invalid_argument(
            str_format("line %zu: %s", line_no,
                       parsed.status().message().c_str()));
      }
      stanza.submit_time = *parsed;
    } else if (key == "os") {
      stanza.os = std::string(value);
    } else if (key == "trace") {
      stanza.trace_source = std::string(value);
    } else if (key == "workflow") {
      stanza.workflow_source = std::string(value);
    } else if (key == "priority") {
      auto parsed = parse_int(value);
      if (!parsed.is_ok()) {
        return Status::invalid_argument(
            str_format("line %zu: invalid priority", line_no));
      }
      stanza.priority = static_cast<int>(*parsed);
    } else if (key == "seed") {
      auto parsed = parse_int(value);
      if (!parsed.is_ok() || *parsed < 0) {
        return Status::invalid_argument(
            str_format("line %zu: invalid seed", line_no));
      }
      stanza.seed = static_cast<std::uint64_t>(*parsed);
    } else {
      return Status::invalid_argument(str_format(
          "line %zu: unknown key '%.*s'", line_no,
          static_cast<int>(key.size()), key.data()));
    }
  }
  if (in_stanza) {
    return Status::invalid_argument("unterminated provider stanza (missing 'end')");
  }
  if (workload.htc.empty() && workload.mtc.empty()) {
    return Status::invalid_argument("description contains no providers");
  }
  return workload;
}

StatusOr<ConsolidationWorkload> parse_experiment_description_string(
    const std::string& text, const std::string& base_dir) {
  std::istringstream in(text);
  return parse_experiment_description(in, base_dir);
}

StatusOr<ConsolidationWorkload> read_experiment_description(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::not_found("cannot open description: " + path);
  std::string base_dir;
  if (const auto slash = path.find_last_of('/'); slash != std::string::npos) {
    base_dir = path.substr(0, slash);
  }
  return parse_experiment_description(in, base_dir);
}

std::string describe_experiment(const ConsolidationWorkload& workload) {
  std::string out = "# dawningcloud experiment description\n";
  for (const HtcWorkloadSpec& spec : workload.htc) {
    out += str_format(
        "provider %s\n  workload htc\n  initial-nodes %lld\n"
        "  threshold-ratio %g\n  subscription %lld\n  fixed-nodes %lld\n"
        "  # trace: %s (%zu jobs, %lld nodes) — attach a swf:/synthetic: source\n"
        "end\n",
        spec.name.c_str(), static_cast<long long>(spec.policy.initial_nodes),
        spec.policy.threshold_ratio,
        static_cast<long long>(spec.policy.max_nodes),
        static_cast<long long>(spec.fixed_nodes), spec.trace.name().c_str(),
        spec.trace.size(), static_cast<long long>(spec.trace.capacity_nodes()));
  }
  for (const MtcWorkloadSpec& spec : workload.mtc) {
    out += str_format(
        "provider %s\n  workload mtc\n  initial-nodes %lld\n"
        "  threshold-ratio %g\n  subscription %lld\n  fixed-nodes %lld\n"
        "  submit-time %llds\n"
        "  # workflow: %zu tasks — attach a wff:/montage: source\nend\n",
        spec.name.c_str(), static_cast<long long>(spec.policy.initial_nodes),
        spec.policy.threshold_ratio,
        static_cast<long long>(spec.policy.max_nodes),
        static_cast<long long>(spec.fixed_nodes),
        static_cast<long long>(spec.submit_time), spec.dag.size());
  }
  return out;
}

}  // namespace dc::core
