// dc-lint: the project's determinism & invariant static-analysis pass.
//
//   dc_lint [--sarif] [--fix] <path>...     paths are files or directories
//
//   --sarif   SARIF 2.1.0 log (GitHub code scanning)
//   --fix     apply mechanical fixes in place (missing #pragma once,
//             stale suppression comments)
//
// Directories are walked recursively for C++ sources (.cpp/.cc/.cxx) and
// headers (.h/.hpp/.hxx/.hh). Exit status: 0 when no un-waived
// diagnostics were produced, 1 when there were diagnostics, 2 on usage or
// I/O errors.
//
// The CMake `lint` target (and the `dc_lint_tree` ctest) runs
// `dc_lint src tools bench` from the source root; CI fails on any
// diagnostic. Rules and waiver syntax: docs/STATIC_ANALYSIS.md.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "diagnostics.hpp"
#include "driver.hpp"
#include "sarif.hpp"

namespace {

constexpr const char* kVersion = "2.0.0";

constexpr const char* kUsage = "usage: dc_lint [--sarif] [--fix] <path>...\n";

}  // namespace

int main(int argc, char** argv) {
  bool sarif = false;
  dc_lint::DriverOptions options;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sarif") == 0) {
      sarif = true;
    } else if (std::strcmp(argv[i], "--fix") == 0) {
      options.fix = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf("%s\nrules:\n", kUsage);
      for (const dc_lint::RuleInfo& rule : dc_lint::rule_table()) {
        std::printf("  %-9s (%s) %s\n", rule.id, rule.default_severity,
                    rule.summary);
      }
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "dc-lint: unknown option: %s\n%s", argv[i], kUsage);
      return 2;
    } else {
      options.roots.emplace_back(argv[i]);
    }
  }
  if (options.roots.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  const dc_lint::DriverResult result = dc_lint::run_driver(options);
  for (const std::string& err : result.errors) {
    std::fprintf(stderr, "dc-lint: %s\n", err.c_str());
  }
  if (!result.errors.empty()) return 2;
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "dc-lint: %s\n", note.c_str());
  }

  if (sarif) {
    const std::string report = dc_lint::to_sarif(result.diagnostics, kVersion);
    std::fwrite(report.data(), 1, report.size(), stdout);
    std::fputc('\n', stdout);
  } else {
    const std::string report = dc_lint::to_human(result.diagnostics);
    std::fwrite(report.data(), 1, report.size(), stdout);
    std::printf("dc-lint: %d file(s), %zu diagnostic(s), %d waived\n",
                result.files_scanned, result.diagnostics.size(), result.waived);
  }
  return result.diagnostics.empty() ? 0 : 1;
}
