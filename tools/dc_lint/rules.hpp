// dc-lint local rules: the per-file half of the determinism & invariant
// contract. Full rationale in docs/STATIC_ANALYSIS.md; the rule table
// (ids, severities, one-line summaries) lives in diagnostics.hpp.
//
// Local rules, checked file-by-file from the token stream:
//   dc-r1  no wall-clock / ambient nondeterminism in simulation code:
//          std::chrono::system_clock, time(), clock(), gettimeofday(),
//          rand()/srand(), std::random_device.
//   dc-r2  no iteration over unordered_map/unordered_set — iteration
//          order is unspecified, and anything it feeds stops being
//          reproducible across standard libraries and runs.
//   dc-r3  no raw new/delete/malloc in src/sim hot-path files; the event
//          slab owns allocation there. Placement new and `= delete`
//          declarations are fine.
//   dc-r4  no float/double `+=` reductions inside parallel_for_index /
//          parallel_map_index callbacks without an ordered-reduction
//          annotation (syntax in lexer.hpp).
//   dc-r5  header hygiene: include guard or #pragma once, and no
//          `using namespace std` in headers.
//   dc-r7  no direct printf/fprintf/puts output in src/core or src/sim;
//          those subsystems speak through dc::Log or DC_TRACE_* macros.
//   dc-r8  no float/double math or unordered containers in
//          scheduler-queue sources; ordering math stays integer-only.
//   dc-r11 sweep-race heuristic: inside a parallel_for_index /
//          parallel_map_index callback, no write through a captured
//          reference or pointer to state that is not indexed by the
//          callback's loop variable.
//   dc-r13 no clocks or sleeps in src/campaign, except supervision
//          plumbing annotated `// dc-wallclock: <reason>`.
//   dc-r14 raw writes in durable-artifact paths: src/snapshot,
//          src/campaign, src/rundb, and src/obs must persist through
//          util/fsio / util/faultfs (crash-atomicity + fault-injection
//          coverage), not ofstream, fopen with a write mode, or ::open
//          with write-side O_* flags. `// dc-rawio: <reason>` waives a
//          reviewed line.
//
// The project-model rules (dc-r9, dc-r10, dc-r12) need the whole-tree
// join and live in project_model.hpp. analyze_file() feeds them by
// distilling each file into FileFacts alongside the local diagnostics.
//
// Every rule honors `// NOLINT(dc-rN)` on the flagged line and
// `// NOLINTNEXTLINE(dc-rN)` on the line above (see lexer.hpp).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "diagnostics.hpp"
#include "project_model.hpp"

namespace dc_lint {

/// Everything pass 1 learns about one file: the distilled facts the
/// project model joins, the local-rule diagnostics (already filtered by
/// inline waivers), and the waiver sites with their local `used` flags —
/// the driver consumes project-rule waivers against the same vector, then
/// audits for stale groups. It depends only on (path, content), never on
/// other files.
struct FileAnalysis {
  FileFacts facts;
  std::vector<Diagnostic> diagnostics;
  std::vector<WaiverSite> waivers;
  int waived = 0;  // local diagnostics suppressed by inline waivers
};

/// Pass 1: lexes `source`, runs the local rules, and distills FileFacts.
/// `display_path` selects path-sensitive rules (dc-r3 under src/sim,
/// dc-r5 for headers, dc-r7 under src/core|src/sim, dc-r8 for queue
/// sources) and is the `file` of every diagnostic.
FileAnalysis analyze_file(const std::string& display_path,
                          std::string_view source);

/// Compatibility shim over analyze_file() for callers that only want the
/// local diagnostics (the fixture tests pin rule behavior through it).
struct LintResult {
  std::vector<Diagnostic> diagnostics;
  int waived = 0;
};

LintResult lint_source(const std::string& display_path, std::string_view source);

}  // namespace dc_lint
