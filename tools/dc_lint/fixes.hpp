// Mechanical fixes for the rules whose remedy is textual and unambiguous:
//
//   dc-r5 (missing guard)  — insert `#pragma once` above the first
//                            non-comment line of the header.
//   dc-waiver (stale)      — delete the NOLINT / annotation comment that
//                            no longer suppresses anything (the whole
//                            line when nothing else is on it).
//
// Everything else (r1-r4, r7-r14) needs a human decision about *what the
// code should do instead*, so --fix leaves those diagnostics alone.
#pragma once

#include <string>
#include <vector>

#include "diagnostics.hpp"

namespace dc_lint {

struct FixResult {
  std::string text;     // rewritten file contents
  int applied = 0;      // fixes performed
  bool changed = false;
};

/// Applies the mechanical fixes among `file_diags` (all for one file) to
/// `text`. Diagnostics that were fixed are appended to `fixed` as
/// (rule, line) pairs so the driver can drop them from the report.
FixResult apply_fixes(const std::string& text,
                      const std::vector<Diagnostic>& file_diags,
                      std::vector<std::pair<std::string, int>>& fixed);

}  // namespace dc_lint
