#include "rundb/report.hpp"

#include <cmath>
#include <utility>

#include "util/csv.hpp"
#include "util/strings.hpp"

namespace dc::rundb {
namespace {

/// %.10g keeps every metric the simulator produces exact (integers up to
/// 2^33, availabilities to 10 significant digits) while staying readable;
/// JSON uses %.17g so a value round-trips bit-exactly through a parser.
std::string num_text(double value) { return str_format("%.10g", value); }
std::string json_num_text(double value) { return str_format("%.17g", value); }

const double* find_metric(const RunRecord& record, const std::string& name) {
  for (const auto& [metric, value] : record.metrics) {
    if (metric == name) return &value;
  }
  return nullptr;
}

/// Union of param keys / metric names across `records`, first-seen order —
/// the deterministic column order when the query does not pin one.
std::vector<std::string> union_param_keys(
    const std::vector<RunRecord>& records) {
  std::vector<std::string> keys;
  for (const RunRecord& record : records) {
    for (const auto& [key, value] : record.params) {
      bool have = false;
      for (const std::string& k : keys) {
        if (k == key) {
          have = true;
          break;
        }
      }
      if (!have) keys.push_back(key);
    }
  }
  return keys;
}

std::vector<std::string> metric_columns(const std::vector<RunRecord>& records,
                                        const ReportQuery& query) {
  if (!query.select.empty()) return query.select;
  std::vector<std::string> names;
  for (const RunRecord& record : records) {
    for (const auto& [name, value] : record.metrics) {
      bool have = false;
      for (const std::string& n : names) {
        if (n == name) {
          have = true;
          break;
        }
      }
      if (!have) names.push_back(name);
    }
  }
  return names;
}

}  // namespace

StatusOr<ReportFormat> parse_report_format(std::string_view name) {
  if (name == "table") return ReportFormat::kTable;
  if (name == "csv") return ReportFormat::kCsv;
  if (name == "json") return ReportFormat::kJson;
  return Status::invalid_argument("unknown report format '" +
                                  std::string(name) +
                                  "' (expected table, csv, or json)");
}

std::vector<RunRecord> filter_records(const std::vector<RunRecord>& records,
                                      const ReportQuery& query) {
  std::vector<RunRecord> kept;
  for (const RunRecord& record : records) {
    if (!query.kind.empty() && record.kind != query.kind) continue;
    if (!query.source.empty() && record.source != query.source) continue;
    if (!query.label.empty() && record.label != query.label) continue;
    bool pass = true;
    for (const auto& [key, value] : query.filters) {
      if (record.param(key) != value) {
        pass = false;
        break;
      }
    }
    if (pass) kept.push_back(record);
  }
  return kept;
}

StatusOr<std::string> render_report(const std::vector<RunRecord>& records,
                                    const ReportQuery& query) {
  const std::vector<std::string> param_keys = union_param_keys(records);
  const std::vector<std::string> metrics = metric_columns(records, query);

  // Selected metrics must exist somewhere — a typo'd --select answering
  // an all-dash column would read as "metric is zero everywhere".
  for (const std::string& name : query.select) {
    bool found = false;
    for (const RunRecord& record : records) {
      if (find_metric(record, name) != nullptr) {
        found = true;
        break;
      }
    }
    if (!found && !records.empty()) {
      return Status::invalid_argument(
          "no selected record carries a metric named '" + name +
          "' — check --select against `dc report query` without a "
          "selection, which lists every metric present");
    }
  }

  switch (query.format) {
    case ReportFormat::kTable: {
      std::vector<std::string> header = {"kind", "label"};
      header.insert(header.end(), param_keys.begin(), param_keys.end());
      header.insert(header.end(), metrics.begin(), metrics.end());
      TextTable table(header);
      for (const RunRecord& record : records) {
        table.cell(record.kind).cell(record.label);
        for (const std::string& key : param_keys) {
          const std::string value = record.param(key);
          table.cell(value.empty() ? "-" : value);
        }
        for (const std::string& name : metrics) {
          const double* value = find_metric(record, name);
          if (value == nullptr) {
            table.cell("-");
          } else {
            table.cell(num_text(*value));
          }
        }
        table.end_row();
      }
      return table.render(str_format("run store: %zu record(s)",
                                     records.size()));
    }
    case ReportFormat::kCsv: {
      std::string out = "kind,label";
      for (const std::string& key : param_keys) out += "," + csv_quote(key);
      for (const std::string& name : metrics) out += "," + csv_quote(name);
      out += "\n";
      for (const RunRecord& record : records) {
        out += csv_quote(record.kind) + "," + csv_quote(record.label);
        for (const std::string& key : param_keys) {
          out += "," + csv_quote(record.param(key));
        }
        for (const std::string& name : metrics) {
          const double* value = find_metric(record, name);
          out += ",";
          if (value != nullptr) out += num_text(*value);
        }
        out += "\n";
      }
      return out;
    }
    case ReportFormat::kJson: {
      std::string out = "{\n  \"records\": [";
      const auto quoted = [&out](std::string_view text) {
        out += '"';
        append_json_escaped(out, text);
        out += '"';
      };
      bool first_record = true;
      for (const RunRecord& record : records) {
        out += first_record ? "\n" : ",\n";
        first_record = false;
        out += "    {\n      \"kind\": ";
        quoted(record.kind);
        out += ",\n      \"source\": ";
        quoted(record.source);
        out += ",\n      \"label\": ";
        quoted(record.label);
        out += ",\n      \"params\": {";
        bool first = true;
        for (const auto& [key, value] : record.params) {
          out += first ? "" : ", ";
          first = false;
          quoted(key);
          out += ": ";
          quoted(value);
        }
        out += "},\n      \"metrics\": {";
        first = true;
        for (const std::string& name : metrics) {
          const double* value = find_metric(record, name);
          if (value == nullptr) continue;
          out += first ? "" : ", ";
          first = false;
          quoted(name);
          out += ": " + json_num_text(*value);
        }
        out += "}";
        if (!record.trace_digest.empty() || record.trace_events != 0) {
          out += str_format(
              ",\n      \"trace\": {\"events\": %llu, \"dropped\": %llu, "
              "\"digest\": ",
              static_cast<unsigned long long>(record.trace_events),
              static_cast<unsigned long long>(record.trace_dropped));
          quoted(record.trace_digest);
          out += "}";
        }
        out += "\n    }";
      }
      out += records.empty() ? "],\n" : "\n  ],\n";
      out += str_format("  \"count\": %zu\n}\n", records.size());
      return out;
    }
  }
  return Status::internal("unreachable report format");
}

StatusOr<std::string> render_comparison(const std::vector<RunRecord>& a,
                                        const std::vector<RunRecord>& b,
                                        const ReportQuery& query,
                                        const std::string& name_a,
                                        const std::string& name_b,
                                        std::size_t* differing_out) {
  ReportQuery projection = query;
  if (projection.select.empty()) {
    // Compare over the union of both sides' metrics, a-side order first.
    std::vector<RunRecord> all = a;
    all.insert(all.end(), b.begin(), b.end());
    projection.select = metric_columns(all, query);
  }

  TextTable table({"label", "metric", name_a, name_b, "delta", "rel"});
  std::string first_divergence;
  std::string first_divergence_label;
  std::size_t matched = 0;
  std::size_t differing = 0;
  std::vector<std::string> only_a, only_b;

  for (const RunRecord& record : a) {
    const RunRecord* peer = nullptr;
    for (const RunRecord& candidate : b) {
      if (candidate.label == record.label) {
        peer = &candidate;
        break;
      }
    }
    if (peer == nullptr) {
      only_a.push_back(record.label);
      continue;
    }
    ++matched;
    for (const std::string& metric : projection.select) {
      const double* va = find_metric(record, metric);
      const double* vb = find_metric(*peer, metric);
      if (va == nullptr && vb == nullptr) continue;
      const double da = va != nullptr ? *va : 0.0;
      const double db = vb != nullptr ? *vb : 0.0;
      const double delta = db - da;
      table.cell(record.label).cell(metric);
      table.cell(va != nullptr ? num_text(da) : "-");
      table.cell(vb != nullptr ? num_text(db) : "-");
      table.cell(num_text(delta));
      if (da != 0.0) {
        table.cell(str_format("%+.3f%%", 100.0 * delta / da));
      } else {
        table.cell(delta == 0.0 ? "0%" : "n/a");
      }
      table.end_row();
      if (delta != 0.0 || (va == nullptr) != (vb == nullptr)) {
        ++differing;
        if (first_divergence.empty()) {
          first_divergence = metric;
          first_divergence_label = record.label;
        }
      }
    }
    // Trace digests: equal metrics with different event streams still
    // mean the runs took different paths — worth a divergence pointer.
    if (!record.trace_digest.empty() && !peer->trace_digest.empty() &&
        record.trace_digest != peer->trace_digest && first_divergence.empty()) {
      first_divergence = "trace digest";
      first_divergence_label = record.label;
      ++differing;
    }
  }
  for (const RunRecord& record : b) {
    bool found = false;
    for (const RunRecord& candidate : a) {
      if (candidate.label == record.label) {
        found = true;
        break;
      }
    }
    if (!found) only_b.push_back(record.label);
  }

  std::string out = table.render(
      str_format("compare: %s vs %s", name_a.c_str(), name_b.c_str()));
  out += str_format("\nmatched %zu label(s); %zu differing value(s)\n",
                    matched, differing);
  if (!only_a.empty()) {
    out += "only in " + name_a + ":";
    for (const std::string& label : only_a) out += " " + label;
    out += "\n";
  }
  if (!only_b.empty()) {
    out += "only in " + name_b + ":";
    for (const std::string& label : only_b) out += " " + label;
    out += "\n";
  }
  if (matched == 0) {
    out +=
        "no label matched both sides — nothing was compared; check the "
        "filters (labels must agree exactly)\n";
  } else if (differing == 0) {
    out += "no divergence: every compared metric agrees\n";
  } else {
    out += str_format(
        "first divergence: label %s, %s — localize it with\n"
        "  dawningcloud replay bisect --golden-dir <snapshots-A> "
        "--other-dir <snapshots-B> [--golden-trace A.json --other-trace "
        "B.json]\n",
        first_divergence_label.c_str(), first_divergence.c_str());
  }
  if (differing_out != nullptr) *differing_out = differing;
  return out;
}

}  // namespace dc::rundb
