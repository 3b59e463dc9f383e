#include "driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "fixes.hpp"
#include "project_model.hpp"
#include "rules.hpp"

namespace dc_lint {
namespace {

namespace fs = std::filesystem;

bool lintable_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".h" ||
         ext == ".hpp" || ext == ".hxx" || ext == ".hh";
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

// Collects lintable files under `arg` (file or directory), in sorted order
// so output — and therefore CI diffs — are stable across filesystems.
bool collect(const std::string& arg, std::vector<std::string>& files,
             std::vector<std::string>& errors) {
  std::error_code ec;
  const fs::file_status status = fs::status(arg, ec);
  if (ec || status.type() == fs::file_type::not_found) {
    errors.push_back("no such file or directory: " + arg);
    return false;
  }
  if (fs::is_directory(status)) {
    std::vector<std::string> found;
    for (fs::recursive_directory_iterator it(arg, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file() && lintable_extension(it->path())) {
        found.push_back(it->path().generic_string());
      }
    }
    std::sort(found.begin(), found.end());
    files.insert(files.end(), found.begin(), found.end());
  } else {
    files.push_back(fs::path(arg).generic_string());
  }
  return true;
}

// Stale-suppression audit over one file's waiver sites. A comment (one
// waiver group) that suppressed nothing anywhere — local rules, project
// rules — is itself a finding: it documents an exemption that no longer
// exists, and it would silently swallow the next real diagnostic on that
// line.
void audit_waivers(const std::string& file, const std::vector<WaiverSite>& sites,
                   std::vector<Diagnostic>& out) {
  std::map<int, bool> group_used;
  for (const WaiverSite& site : sites) {
    auto [it, inserted] = group_used.emplace(site.group, site.used);
    if (!inserted) it->second = it->second || site.used;
  }
  std::map<int, bool> reported;
  for (const WaiverSite& site : sites) {
    if (group_used[site.group]) continue;
    if (!reported.emplace(site.group, true).second) continue;
    const char* why = find_rule(site.rule) != nullptr
                          ? " no longer matches any diagnostic"
                          : " names no dc-lint rule";
    out.push_back({file, site.origin_line, "dc-waiver", "error",
                   "suppression for " + site.rule + why +
                       "; remove the comment (dc_lint --fix does it "
                       "mechanically)"});
  }
}

}  // namespace

DriverResult run_driver(const DriverOptions& options) {
  DriverResult result;

  std::vector<std::string> files;
  for (const std::string& root : options.roots) {
    if (!collect(root, files, result.errors)) return result;
  }
  result.files_scanned = static_cast<int>(files.size());

  // Pass 1, file by file in sorted order.
  std::vector<FileAnalysis> analyses;
  analyses.reserve(files.size());
  for (const std::string& file : files) {
    std::string source;
    if (!read_file(file, source)) {
      result.errors.push_back("cannot read " + file);
      continue;
    }
    analyses.push_back(analyze_file(file, source));
  }
  if (!result.errors.empty()) return result;

  // Pass 2: the cross-TU join.
  std::vector<Diagnostic> all;
  std::map<std::string, std::size_t> index_of;
  std::vector<const FileFacts*> facts;
  facts.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    index_of[files[i]] = i;
    facts.push_back(&analyses[i].facts);
    result.waived += analyses[i].waived;
    all.insert(all.end(), analyses[i].diagnostics.begin(),
               analyses[i].diagnostics.end());
  }
  const ProjectModel model(facts);
  std::vector<Diagnostic> project = model.check_snapshot_semantics();
  {
    std::vector<Diagnostic> layering = model.check_layering();
    project.insert(project.end(), layering.begin(), layering.end());
    std::vector<Diagnostic> registry = model.check_name_registry();
    project.insert(project.end(), registry.begin(), registry.end());
  }
  for (Diagnostic& d : project) {
    const auto at = index_of.find(d.file);
    if (at != index_of.end() &&
        consume_waiver(analyses[at->second].waivers, d.line, d.rule)) {
      ++result.waived;
      continue;
    }
    all.push_back(std::move(d));
  }

  for (std::size_t i = 0; i < files.size(); ++i) {
    audit_waivers(files[i], analyses[i].waivers, all);
  }

  // Mechanical fixes.
  if (options.fix) {
    std::map<std::string, std::vector<Diagnostic>> by_file;
    for (const Diagnostic& d : all) {
      if (d.rule == "dc-waiver" ||
          (d.rule == "dc-r5" &&
           d.message.find("missing '#pragma once'") != std::string::npos)) {
        by_file[d.file].push_back(d);
      }
    }
    std::set<std::pair<std::string, std::pair<std::string, int>>> fixed_keys;
    for (auto& [file, diags] : by_file) {
      std::string source;
      if (!read_file(file, source)) continue;
      std::vector<std::pair<std::string, int>> fixed;
      const FixResult fix = apply_fixes(source, diags, fixed);
      if (fix.changed) {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        if (!out) {
          result.notes.push_back("could not rewrite " + file);
          continue;
        }
        out.write(fix.text.data(), static_cast<std::streamsize>(fix.text.size()));
        result.fixes_applied += fix.applied;
        for (const auto& key : fixed) fixed_keys.insert({file, key});
      }
    }
    if (!fixed_keys.empty()) {
      std::vector<Diagnostic> remaining;
      remaining.reserve(all.size());
      for (Diagnostic& d : all) {
        if (fixed_keys.count({d.file, {d.rule, d.line}}) != 0) continue;
        remaining.push_back(std::move(d));
      }
      all.swap(remaining);
    }
  }

  sort_diagnostics(all);
  result.diagnostics = std::move(all);
  return result;
}

}  // namespace dc_lint
