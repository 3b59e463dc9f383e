// Shared diagnostic surface of dc-lint v2: the Diagnostic record every
// pass emits, the rule-metadata table (ids, default severities, summaries
// — the single source for SARIF rule descriptors and the docs table), the
// inline-waiver model, and the plain-text renderer.
//
// Every diagnostic carries one canonical rule id ("dc-r1" .. "dc-r14",
// or "dc-waiver" for the stale-suppression audit), and a waiver names
// the id it suppresses.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dc_lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;      // canonical id: "dc-r1" .. "dc-r14", "dc-waiver"
  std::string severity;  // "error" | "warning"
  std::string message;
};

/// Static metadata for one rule, consumed by the SARIF emitter, the
/// lexer's waiver harvest, and --help.
struct RuleInfo {
  const char* id;
  const char* default_severity;
  const char* summary;  // one line, imperative ("no wall clock ...")
};

/// All rules, in id order. dc-waiver (the stale-suppression audit) is
/// last.
const std::vector<RuleInfo>& rule_table();

/// The table row for `rule`, or nullptr for unknown ids.
const RuleInfo* find_rule(std::string_view rule);

/// One harvested suppression site. Sites created by the same comment share
/// a `group`; the unused-waiver audit only fires for groups where no site
/// was ever consumed (the dc-r4 `ordered-reduction` annotation registers
/// two target lines for one comment).
struct WaiverSite {
  std::string rule;    // "dc-r1" .. — as written in the comment
  int origin_line = 0; // line of the comment itself
  int target_line = 0; // line the waiver applies to
  int group = 0;       // comment identity for the unused audit
  bool used = false;   // consumed by at least one diagnostic
};

/// True when some site covers (`line`, `rule`). A hit marks every
/// matching site used (for the stale-suppression audit).
bool consume_waiver(std::vector<WaiverSite>& sites, int line,
                    std::string_view rule);

/// Sorts by (file, line, rule) — the stable order every renderer expects.
void sort_diagnostics(std::vector<Diagnostic>& diagnostics);

/// Renders diagnostics in `file:line: severity[rule]: message` form.
std::string to_human(const std::vector<Diagnostic>& diagnostics);

}  // namespace dc_lint
