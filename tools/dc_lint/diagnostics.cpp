#include "diagnostics.hpp"

#include <algorithm>

namespace dc_lint {

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {"dc-r1", "error",
       "no wall-clock or ambient RNG in simulation code; use "
       "sim::Simulator::now() and a seeded dc::Rng"},
      {"dc-r2", "error",
       "no iteration over unordered containers; hash order is unspecified "
       "and breaks reproducibility"},
      {"dc-r3", "error",
       "no raw new/delete/malloc in src/sim hot-path files; the event slab "
       "owns allocation there"},
      {"dc-r4", "error",
       "no floating-point reductions inside parallel callbacks; FP addition "
       "is non-associative across thread interleavings"},
      {"dc-r5", "warning",
       "header hygiene: include guard or #pragma once, and no "
       "'using namespace std' in headers"},
      {"dc-r7", "error",
       "no direct stdio output in src/core or src/sim; narrate through "
       "dc::Log or DC_TRACE_* macros"},
      {"dc-r8", "error",
       "no float/double math or unordered containers in scheduler-queue "
       "sources; ordering math stays integer-only"},
      {"dc-r9", "error",
       "snapshot semantic completeness: every data member of a class with a "
       "persist walk is named by the walk or marked // dc-volatile"},
      {"dc-r10", "error",
       "layering: a module may include only its declared dependencies, and "
       "the include graph must be acyclic"},
      {"dc-r11", "error",
       "sweep-race heuristic: no writes through captured references or "
       "pointers to state not indexed by the loop variable inside parallel "
       "callbacks"},
      {"dc-r12", "error",
       "trace/metrics name registry: no duplicate interned TraceName "
       "declarations, no literal used as both instant and span, no metric "
       "name registered under two types"},
      {"dc-r13", "error",
       "campaign artifacts must not depend on wall time: no clocks or "
       "sleeps in src/campaign except supervision plumbing annotated "
       "// dc-wallclock: <reason>"},
      {"dc-r14", "error",
       "durable-artifact paths (src/snapshot, src/campaign, src/rundb, "
       "src/obs) must write through util/fsio or util/faultfs, never raw "
       "ofstream/fopen/open; deliberate raw channels carry "
       "// dc-rawio: <reason>"},
      {"dc-waiver", "error",
       "stale suppression: a NOLINT(dc-rN) or dc-lint: annotation that no "
       "longer suppresses anything"},
  };
  return kRules;
}

const RuleInfo* find_rule(std::string_view rule) {
  for (const RuleInfo& info : rule_table()) {
    if (rule == info.id) return &info;
  }
  return nullptr;
}

bool consume_waiver(std::vector<WaiverSite>& sites, int line,
                    std::string_view rule) {
  bool hit = false;
  for (WaiverSite& site : sites) {
    if (site.target_line == line && site.rule == rule) {
      site.used = true;
      hit = true;  // keep scanning: duplicate sites all count as used
    }
  }
  return hit;
}

void sort_diagnostics(std::vector<Diagnostic>& diagnostics) {
  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

std::string to_human(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.file;
    out += ':';
    out += std::to_string(d.line);
    out += ": ";
    out += d.severity;
    out += '[';
    out += d.rule;
    out += "]: ";
    out += d.message;
    out += '\n';
  }
  return out;
}

}  // namespace dc_lint
