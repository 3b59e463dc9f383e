#include "sarif.hpp"

#include <cstddef>
#include <cstdio>

namespace dc_lint {
namespace {

// Appends `text` as a quoted JSON string.
void append_quoted(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// SARIF levels are "error" | "warning" | "note" | "none"; dc-lint's two
// severities map onto the first two.
std::string_view sarif_level(std::string_view severity) {
  return severity == "error" ? "error" : "warning";
}

}  // namespace

std::string to_sarif(const std::vector<Diagnostic>& diagnostics,
                     const std::string& tool_version) {
  // Rule index lookup for result.ruleIndex (a SARIF nicety that saves
  // consumers a scan over the descriptor array).
  const std::vector<RuleInfo>& rules = rule_table();

  std::string out;
  out +=
      "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"dc-lint\",\"version\":";
  append_quoted(out, tool_version);
  out +=
      ",\"informationUri\":"
      "\"https://github.com/dc-sim/dc-sim/blob/main/docs/STATIC_ANALYSIS.md\","
      "\"rules\":[";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"id\":";
    append_quoted(out, rules[i].id);
    out += ",\"shortDescription\":{\"text\":";
    append_quoted(out, rules[i].summary);
    out += "},\"defaultConfiguration\":{\"level\":";
    append_quoted(out, sarif_level(rules[i].default_severity));
    out += "}}";
  }
  out += "]}},\"columnKind\":\"utf16CodeUnits\",\"results\":[";

  bool first = true;
  for (const Diagnostic& d : diagnostics) {
    if (!first) out += ',';
    first = false;
    out += "{\"ruleId\":";
    append_quoted(out, d.rule);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (d.rule == rules[i].id) {
        out += ",\"ruleIndex\":" + std::to_string(i);
        break;
      }
    }
    out += ",\"level\":";
    append_quoted(out, sarif_level(d.severity));
    out += ",\"message\":{\"text\":";
    append_quoted(out, d.message);
    out += "},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{"
           "\"uri\":";
    append_quoted(out, d.file);
    out += "},\"region\":{\"startLine\":";
    out += std::to_string(d.line > 0 ? d.line : 1);
    out += "}}}]}";
  }
  out += "]}]}";
  return out;
}

}  // namespace dc_lint
