// The dc-lint driver: everything between the CLI and the rules.
//
//   1. collect   — walk the root paths for C++ sources, sorted.
//   2. analyze   — pass 1, one file at a time in that order.
//   3. join      — build the ProjectModel and run dc-r9/r10/r12.
//   4. waivers   — consume inline waivers against project diagnostics,
//                  then audit for suppression comments that matched
//                  nothing anywhere (dc-waiver).
//   5. fix       — optionally apply the mechanical fixes in place.
#pragma once

#include <string>
#include <vector>

#include "diagnostics.hpp"

namespace dc_lint {

struct DriverOptions {
  std::vector<std::string> roots;  // files or directories
  bool fix = false;
};

struct DriverResult {
  std::vector<Diagnostic> diagnostics;  // final, sorted by (file,line,rule)
  std::vector<std::string> notes;       // informational (a failed --fix write)
  std::vector<std::string> errors;      // I/O problems → exit 2
  int files_scanned = 0;
  int waived = 0;
  int fixes_applied = 0;
};

DriverResult run_driver(const DriverOptions& options);

}  // namespace dc_lint
