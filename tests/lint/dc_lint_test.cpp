// Pins down dc-lint's diagnostic surface against known-violation fixtures:
// exact counts, rule IDs, line numbers, waiver accounting, and the report
// shapes (plain text, SARIF 2.1.0). The project-model rules (dc-r9/r10/r12)
// are exercised both on fixtures and on the real tree sources — including
// seeded mutations that each rule family must catch.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "driver.hpp"
#include "fixes.hpp"
#include "project_model.hpp"
#include "rules.hpp"
#include "sarif.hpp"

namespace {

// Compile-time path to tests/lint/fixtures/, injected by CMake.
std::string fixture_path(const std::string& name) {
  return std::string(DC_LINT_FIXTURE_DIR) + "/" + name;
}

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing file: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string fixture(const std::string& name) {
  return read_file_or_die(fixture_path(name));
}

// A tree source, addressed relative to the repository root.
std::string real_source(const std::string& repo_relative) {
  return read_file_or_die(std::string(DC_LINT_FIXTURE_DIR) + "/../../../" +
                          repo_relative);
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "pattern not found: " << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

std::string temp_file(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "dc_lint_test_" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out.is_open()) << path;
  out << content;
  return path;
}

std::vector<int> lines_of(const std::vector<dc_lint::Diagnostic>& diagnostics) {
  std::vector<int> lines;
  for (const auto& d : diagnostics) lines.push_back(d.line);
  return lines;
}

std::vector<int> lines_of(const dc_lint::LintResult& result) {
  return lines_of(result.diagnostics);
}

void expect_all_rule(const std::vector<dc_lint::Diagnostic>& diagnostics,
                     const std::string& rule, const std::string& severity) {
  for (const auto& d : diagnostics) {
    EXPECT_EQ(d.rule, rule) << "at line " << d.line;
    EXPECT_EQ(d.severity, severity) << "at line " << d.line;
  }
}

void expect_all_rule(const dc_lint::LintResult& result, const std::string& rule,
                     const std::string& severity) {
  expect_all_rule(result.diagnostics, rule, severity);
}

// Mirrors the driver's project phase over in-memory (path, source) pairs:
// pass-1 analysis per file, the cross-TU join, then project diagnostics
// with inline-waiver consumption.
struct ProjectRun {
  std::vector<dc_lint::FileAnalysis> analyses;
  std::vector<dc_lint::Diagnostic> local;    // pass-1 diagnostics, all files
  std::vector<dc_lint::Diagnostic> project;  // r9/r10/r12 after waivers
  int waived = 0;                            // project-rule waivers only
};

ProjectRun join_project(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  ProjectRun run;
  run.analyses.reserve(sources.size());
  for (const auto& [path, text] : sources) {
    run.analyses.push_back(dc_lint::analyze_file(path, text));
    const auto& a = run.analyses.back();
    run.local.insert(run.local.end(), a.diagnostics.begin(),
                     a.diagnostics.end());
  }
  std::vector<const dc_lint::FileFacts*> facts;
  facts.reserve(run.analyses.size());
  for (const auto& a : run.analyses) facts.push_back(&a.facts);
  const dc_lint::ProjectModel model(facts);

  std::vector<dc_lint::Diagnostic> diags = model.check_snapshot_semantics();
  std::vector<dc_lint::Diagnostic> layering = model.check_layering();
  diags.insert(diags.end(), layering.begin(), layering.end());
  std::vector<dc_lint::Diagnostic> registry = model.check_name_registry();
  diags.insert(diags.end(), registry.begin(), registry.end());

  for (dc_lint::Diagnostic& d : diags) {
    bool consumed = false;
    for (auto& a : run.analyses) {
      if (a.facts.path == d.file &&
          dc_lint::consume_waiver(a.waivers, d.line, d.rule)) {
        consumed = true;
        break;
      }
    }
    if (consumed) {
      ++run.waived;
      continue;
    }
    run.project.push_back(std::move(d));
  }
  dc_lint::sort_diagnostics(run.project);
  return run;
}

// ---------------------------------------------------------------------------
// Local rules (pass 1), pinned through the lint_source shim.

TEST(DcLintR1, FlagsWallClockAndAmbientRng) {
  const auto result =
      dc_lint::lint_source("tests/lint/fixtures/r1_wall_clock.cpp",
                           fixture("r1_wall_clock.cpp"));
  expect_all_rule(result, "dc-r1", "error");
  EXPECT_EQ(lines_of(result), (std::vector<int>{9, 12, 13, 16, 19}));
  EXPECT_EQ(result.waived, 1);  // the NOLINT'd random_device
}

TEST(DcLintR1, FaultInjectionCodeMustUseSeededRng) {
  const auto result =
      dc_lint::lint_source("tests/lint/fixtures/r1_fault_injection.cpp",
                           fixture("r1_fault_injection.cpp"));
  expect_all_rule(result, "dc-r1", "error");
  EXPECT_EQ(lines_of(result), (std::vector<int>{10, 14, 18, 21}));
  EXPECT_EQ(result.waived, 1);  // the documented seed construction site
}

TEST(DcLintR1, RealFaultSubsystemIsClean) {
  // The shipped failure domain must itself satisfy the rule the fixture
  // demonstrates: every draw comes from the seeded util/rng.
  const auto result =
      dc_lint::lint_source("src/core/fault/fault_domain.cpp",
                           real_source("src/core/fault/fault_domain.cpp"));
  EXPECT_TRUE(result.diagnostics.empty())
      << dc_lint::to_human(result.diagnostics);
}

TEST(DcLintR2, FlagsUnorderedIterationIncludingAliases) {
  const auto result =
      dc_lint::lint_source("tests/lint/fixtures/r2_unordered_iteration.cpp",
                           fixture("r2_unordered_iteration.cpp"));
  expect_all_rule(result, "dc-r2", "error");
  // Range-for, explicit .begin(), and range-for over a `using` alias.
  EXPECT_EQ(lines_of(result), (std::vector<int>{13, 19, 30}));
  EXPECT_EQ(result.waived, 1);  // the NOLINTNEXTLINE'd sum
}

TEST(DcLintR3, FlagsRawAllocationOnlyUnderSrcSim) {
  const std::string source = fixture("r3_raw_allocation.cpp");

  // Linted as hot-path code: new / delete / malloc all fire.
  const auto hot = dc_lint::lint_source("src/sim/r3_raw_allocation.cpp", source);
  expect_all_rule(hot, "dc-r3", "error");
  EXPECT_EQ(lines_of(hot), (std::vector<int>{10, 12, 14}));
  EXPECT_EQ(hot.waived, 2);  // the NOLINT'd new/delete pair

  // The same source outside src/sim is clean: the rule is path-gated.
  const auto cold =
      dc_lint::lint_source("tests/lint/fixtures/r3_raw_allocation.cpp", source);
  EXPECT_TRUE(cold.diagnostics.empty());
  EXPECT_EQ(cold.waived, 0);
}

TEST(DcLintR4, FlagsFloatReductionsInParallelCallbacks) {
  const auto result =
      dc_lint::lint_source("tests/lint/fixtures/r4_parallel_reduction.cpp",
                           fixture("r4_parallel_reduction.cpp"));
  std::vector<int> r4_lines;
  std::vector<int> r11_lines;
  for (const auto& d : result.diagnostics) {
    EXPECT_EQ(d.severity, "error") << "at line " << d.line;
    if (d.rule == "dc-r4") r4_lines.push_back(d.line);
    else if (d.rule == "dc-r11") r11_lines.push_back(d.line);
    else ADD_FAILURE() << d.rule << " at line " << d.line;
  }
  // Scalar double += and vector<float> element -=.
  EXPECT_EQ(r4_lines, (std::vector<int>{16, 24}));
  // The captured-ref accumulations are also sweep races; the loop-indexed
  // bins[i % 8] store is not.
  EXPECT_EQ(r11_lines, (std::vector<int>{16, 43}));
  // The ordered-reduction annotation waives both rules on its line.
  EXPECT_EQ(result.waived, 2);
}

TEST(DcLintR5, FlagsMissingGuardAndUsingNamespaceStd) {
  const auto result = dc_lint::lint_source(
      "tests/lint/fixtures/r5_bad_header.hpp", fixture("r5_bad_header.hpp"));
  expect_all_rule(result, "dc-r5", "warning");
  EXPECT_EQ(lines_of(result), (std::vector<int>{1, 7}));
  EXPECT_EQ(result.waived, 0);
}

TEST(DcLintR5, AcceptsGuardedHeader) {
  const auto result = dc_lint::lint_source(
      "tests/lint/fixtures/r5_good_header.hpp", fixture("r5_good_header.hpp"));
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.waived, 0);
}

TEST(DcLintR7, FlagsDirectPrintOnlyUnderCoreAndSim) {
  const std::string source = fixture("r7_direct_print.cpp");

  // Linted as core code: every direct stdio output call fires.
  const auto core = dc_lint::lint_source("src/core/r7_direct_print.cpp", source);
  expect_all_rule(core, "dc-r7", "error");
  EXPECT_EQ(lines_of(core), (std::vector<int>{11, 14, 16, 18}));
  EXPECT_EQ(core.waived, 1);  // the NOLINT'd usage screen

  // src/sim is gated identically.
  const auto sim = dc_lint::lint_source("src/sim/r7_direct_print.cpp", source);
  EXPECT_EQ(lines_of(sim), (std::vector<int>{11, 14, 16, 18}));

  // The same source outside src/core and src/sim is clean: tools and
  // tests may print directly.
  const auto cold =
      dc_lint::lint_source("tests/lint/fixtures/r7_direct_print.cpp", source);
  EXPECT_TRUE(cold.diagnostics.empty()) << dc_lint::to_human(cold.diagnostics);
  EXPECT_EQ(cold.waived, 0);
}

TEST(DcLintR7, RealInstrumentedSubsystemsAreClean) {
  // The shipped core/sim sources must themselves satisfy dc-r7: all of
  // their narration goes through dc::Log or the DC_TRACE_* macros.
  for (const char* rel : {"src/core/htc_server.cpp",
                          "src/core/system_runner.cpp",
                          "src/sim/simulator.cpp"}) {
    const auto result = dc_lint::lint_source(rel, real_source(rel));
    EXPECT_TRUE(result.diagnostics.empty())
        << rel << ":\n" << dc_lint::to_human(result.diagnostics);
  }
}

TEST(DcLintR8, FlagsFloatMathAndHashStorageOnlyInQueueSources) {
  const std::string source = fixture("r8_queue_math.cpp");

  // Linted as a scheduler-queue source: double/float tokens and the
  // unordered_map all fire.
  const auto queue = dc_lint::lint_source("src/sim/r8_queue_math.cpp", source);
  expect_all_rule(queue, "dc-r8", "error");
  EXPECT_EQ(lines_of(queue), (std::vector<int>{13, 18, 24}));
  EXPECT_EQ(queue.waived, 1);  // the NOLINT'd stats-only average

  // The same source under a src/sim path WITHOUT "queue" in it is clean:
  // the rule only polices the pluggable event queues.
  const auto plain = dc_lint::lint_source("src/sim/r8_bucket_math.cpp", source);
  EXPECT_TRUE(plain.diagnostics.empty()) << dc_lint::to_human(plain.diagnostics);

  // And outside src/sim entirely (the fixture's real home) it is clean too.
  const auto cold =
      dc_lint::lint_source("tests/lint/fixtures/r8_queue_math.cpp", source);
  EXPECT_TRUE(cold.diagnostics.empty());
  EXPECT_EQ(cold.waived, 0);
}

TEST(DcLintR8, RealQueueSourcesAreIntegerOnly) {
  // The shipped event queue must satisfy the rule the fixture
  // demonstrates: all heap math is integer-only, no hash storage.
  for (const char* rel : {"src/sim/event_queue.hpp",
                          "src/sim/event_queue.cpp"}) {
    const auto result = dc_lint::lint_source(rel, real_source(rel));
    EXPECT_TRUE(result.diagnostics.empty())
        << rel << ":\n" << dc_lint::to_human(result.diagnostics);
  }
}

// ---------------------------------------------------------------------------
// dc-r9: snapshot semantic completeness across translation units.

TEST(DcLintR9, CrossTuMemberTheWalkNeverNames) {
  const auto run = join_project(
      {{"tests/lint/fixtures/r9_snapshot_drift.hpp",
        fixture("r9_snapshot_drift.hpp")},
       {"tests/lint/fixtures/r9_snapshot_drift.cpp",
        fixture("r9_snapshot_drift.cpp")}});
  EXPECT_TRUE(run.local.empty()) << dc_lint::to_human(run.local);
  expect_all_rule(run.project, "dc-r9", "error");
  ASSERT_EQ(run.project.size(), 1u) << dc_lint::to_human(run.project);

  // scratch_ is named by restore but not by the walk: reported at its
  // declaration in the header.
  EXPECT_EQ(run.project[0].file, "tests/lint/fixtures/r9_snapshot_drift.hpp");
  EXPECT_EQ(run.project[0].line, 23);
  EXPECT_NE(run.project[0].message.find("'scratch_'"), std::string::npos);
  EXPECT_NE(run.project[0].message.find("persist walk"), std::string::npos);

  // trace_ carries // dc-volatile and must not be flagged; WaivedDrift's
  // high_water_ is suppressed by its NOLINT(dc-r9).
  for (const auto& d : run.project) {
    EXPECT_EQ(d.message.find("trace_"), std::string::npos) << d.message;
    EXPECT_EQ(d.message.find("high_water"), std::string::npos) << d.message;
  }
  EXPECT_EQ(run.waived, 1);
}

TEST(DcLintR9, RealSnapshotPairIsCleanAndMutationIsCaught) {
  const std::string header = real_source("src/core/htc_server.hpp");
  const std::string body = real_source("src/core/htc_server.cpp");

  // The shipped pair is semantically complete.
  const auto clean = join_project({{"src/core/htc_server.hpp", header},
                                   {"src/core/htc_server.cpp", body}});
  std::vector<dc_lint::Diagnostic> r9;
  for (const auto& d : clean.project) {
    if (d.rule == "dc-r9") r9.push_back(d);
  }
  EXPECT_TRUE(r9.empty()) << dc_lint::to_human(r9);

  // Seeded mutation: delete owned_'s record from the walk. The member is
  // then neither saved nor restored, and is reported at its declaration.
  const std::string record =
      "  if (auto st = io.i64(\"owned\", owned_); !st.is_ok()) return st;\n";
  ASSERT_NE(body.find(record), std::string::npos);
  const std::string mutated = replace_once(body, record, "");
  const auto dropped = join_project({{"src/core/htc_server.hpp", header},
                                     {"src/core/htc_server.cpp", mutated}});
  std::vector<dc_lint::Diagnostic> caught;
  for (const auto& d : dropped.project) {
    if (d.rule == "dc-r9") caught.push_back(d);
  }
  ASSERT_EQ(caught.size(), 1u) << dc_lint::to_human(dropped.project);
  EXPECT_EQ(caught[0].file, "src/core/htc_server.hpp");
  EXPECT_NE(caught[0].message.find("'owned_'"), std::string::npos);
  const auto decl = static_cast<std::ptrdiff_t>(
      header.find("std::int64_t owned_ = 0;"));
  ASSERT_GE(decl, 0);
  EXPECT_EQ(caught[0].line,
            1 + std::count(header.begin(), header.begin() + decl, '\n'));
}

// ---------------------------------------------------------------------------
// dc-r10: layering against the declared module DAG + include cycles.

TEST(DcLintR10, LayeringViolationAgainstDeclaredDag) {
  const auto run = join_project(
      {{"src/sim/engine.hpp", "#pragma once\n#include \"core/server.hpp\"\n"},
       {"src/core/server.hpp", "#pragma once\n"}});
  ASSERT_EQ(run.project.size(), 1u) << dc_lint::to_human(run.project);
  EXPECT_EQ(run.project[0].rule, "dc-r10");
  EXPECT_EQ(run.project[0].file, "src/sim/engine.hpp");
  EXPECT_EQ(run.project[0].line, 2);
  EXPECT_NE(run.project[0].message.find("src/sim may not include src/core"),
            std::string::npos)
      << run.project[0].message;
}

TEST(DcLintR10, DeclaredDependenciesAndSameModuleAreAllowed) {
  const auto run = join_project(
      {{"src/obs/exporter.hpp",
        "#pragma once\n#include \"snapshot/format.hpp\"\n"
        "#include \"obs/trace.hpp\"\n"},
       {"src/snapshot/format.hpp", "#pragma once\n"},
       {"src/obs/trace.hpp", "#pragma once\n"}});
  EXPECT_TRUE(run.project.empty()) << dc_lint::to_human(run.project);
}

TEST(DcLintR10, RundbSitsAboveCoreButBelowCampaign) {
  // The run-store module may reach down into core/obs/snapshot/util (and
  // campaign may reach into it), but nothing below may include it.
  const auto ok = join_project(
      {{"src/rundb/replay.hpp",
        "#pragma once\n#include \"core/systems.hpp\"\n"
        "#include \"obs/trace.hpp\"\n"},
       {"src/campaign/orchestrator.cpp", "#include \"rundb/store.hpp\"\n"},
       {"src/rundb/store.hpp", "#pragma once\n"},
       {"src/core/systems.hpp", "#pragma once\n"},
       {"src/obs/trace.hpp", "#pragma once\n"}});
  EXPECT_TRUE(ok.project.empty()) << dc_lint::to_human(ok.project);

  const auto bad = join_project(
      {{"src/core/runner.cpp", "#include \"rundb/store.hpp\"\n"},
       {"src/rundb/store.hpp", "#pragma once\n"}});
  ASSERT_EQ(bad.project.size(), 1u) << dc_lint::to_human(bad.project);
  EXPECT_EQ(bad.project[0].rule, "dc-r10");
  EXPECT_NE(bad.project[0].message.find("src/core may not include src/rundb"),
            std::string::npos)
      << bad.project[0].message;
}

TEST(DcLintR10, SrcMayNotReachOutsideSrc) {
  const auto run = join_project(
      {{"src/util/helper.cpp",
        "#include \"../../tools/helper.hpp\"\n"},
       {"tools/helper.hpp", "#pragma once\n"}});
  ASSERT_EQ(run.project.size(), 1u) << dc_lint::to_human(run.project);
  EXPECT_EQ(run.project[0].rule, "dc-r10");
  EXPECT_NE(run.project[0].message.find("outside src/"), std::string::npos);
}

TEST(DcLintR10, UnknownModuleMustJoinTheDag) {
  const auto run = join_project(
      {{"src/newmod/thing.hpp", "#pragma once\n#include \"util/status.hpp\"\n"},
       {"src/util/status.hpp", "#pragma once\n"}});
  ASSERT_EQ(run.project.size(), 1u) << dc_lint::to_human(run.project);
  EXPECT_EQ(run.project[0].rule, "dc-r10");
  EXPECT_NE(run.project[0].message.find("not in the declared layering DAG"),
            std::string::npos);
}

TEST(DcLintR10, IncludeCycleIsReportedExactlyOnce) {
  const auto run = join_project(
      {{"src/util/a.hpp", "#pragma once\n#include \"util/b.hpp\"\n"},
       {"src/util/b.hpp", "#pragma once\n#include \"util/a.hpp\"\n"}});
  ASSERT_EQ(run.project.size(), 1u) << dc_lint::to_human(run.project);
  EXPECT_EQ(run.project[0].rule, "dc-r10");
  EXPECT_EQ(run.project[0].file, "src/util/a.hpp");
  EXPECT_NE(run.project[0].message.find(
                "include cycle: src/util/a.hpp -> src/util/b.hpp -> "
                "src/util/a.hpp"),
            std::string::npos)
      << run.project[0].message;
}

TEST(DcLintR10, ConditionalEdgesCannotFormCycles) {
  // Mutually exclusive #if branches cannot close a cycle in any single
  // build, so the back-edge under #ifdef is exempt.
  const auto run = join_project(
      {{"src/util/c1.hpp", "#pragma once\n#include \"util/c2.hpp\"\n"},
       {"src/util/c2.hpp",
        "#pragma once\n#ifdef DC_LOOP\n#include \"util/c1.hpp\"\n#endif\n"}});
  EXPECT_TRUE(run.project.empty()) << dc_lint::to_human(run.project);
}

TEST(DcLintProjectModel, IncludeResolutionWithinTheAnalyzedSet) {
  const auto a1 = dc_lint::analyze_file(
      "src/snapshot/writer.hpp",
      "#pragma once\n#include \"format.hpp\"\n#include <vector>\n"
      "#include \"util/status.hpp\"\n#include \"nowhere/missing.hpp\"\n");
  const auto a2 =
      dc_lint::analyze_file("src/snapshot/format.hpp", "#pragma once\n");
  const auto a3 =
      dc_lint::analyze_file("src/util/status.hpp", "#pragma once\n");
  const dc_lint::ProjectModel model({&a1.facts, &a2.facts, &a3.facts});

  // Directory-relative and src/-rooted spellings both resolve; angled and
  // unresolvable includes contribute no edges.
  EXPECT_EQ(model.includes_of("src/snapshot/writer.hpp"),
            (std::vector<std::string>{"src/snapshot/format.hpp",
                                      "src/util/status.hpp"}));
  EXPECT_EQ(model.edges().size(), 2u);
  EXPECT_TRUE(model.check_layering().empty());
}

// ---------------------------------------------------------------------------
// dc-r11: sweep-race heuristic.

TEST(DcLintR11, FlagsCapturedSharedWritesNotIndexedByLoopVar) {
  const auto result =
      dc_lint::lint_source("tests/lint/fixtures/r11_sweep_race.cpp",
                           fixture("r11_sweep_race.cpp"));
  expect_all_rule(result, "dc-r11", "error");
  // Captured-ref accumulate, captured struct field, captured pointer
  // target; the indexed store, the body-local, and the copy-captured
  // scalar stay quiet.
  EXPECT_EQ(lines_of(result), (std::vector<int>{13, 14, 15}));
  ASSERT_EQ(result.diagnostics.size(), 3u);
  EXPECT_NE(result.diagnostics[0].message.find("'total'"), std::string::npos);
  EXPECT_NE(result.diagnostics[1].message.find("'stats'"), std::string::npos);
  EXPECT_NE(result.diagnostics[2].message.find("'shared'"), std::string::npos);
  EXPECT_NE(result.diagnostics[0].message.find("loop variable 'i'"),
            std::string::npos);
  EXPECT_EQ(result.waived, 1);  // the NOLINT'd monotonic hint
}

TEST(DcLintR11, RealSweepIsCleanAndMutationIsCaught) {
  const std::string source = real_source("bench/fig09_blue_sweep.cpp");

  // The shipped sweep writes only callback-locals and its return value.
  const auto clean =
      dc_lint::lint_source("bench/fig09_blue_sweep.cpp", source);
  EXPECT_TRUE(clean.diagnostics.empty())
      << dc_lint::to_human(clean.diagnostics);

  // Seeded mutation: redirect a callback-local write onto the captured
  // sweep base — the unsynchronized shared write the rule exists for.
  const std::string mutated = replace_once(
      source, "core::HtcWorkloadSpec spec = base;",
      "core::HtcWorkloadSpec spec = base;\n        base = spec;");
  const auto raced =
      dc_lint::lint_source("bench/fig09_blue_sweep.cpp", mutated);
  ASSERT_EQ(raced.diagnostics.size(), 1u)
      << dc_lint::to_human(raced.diagnostics);
  EXPECT_EQ(raced.diagnostics[0].rule, "dc-r11");
  EXPECT_NE(raced.diagnostics[0].message.find("'base'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// dc-r12: trace/metric name-registry consistency.

TEST(DcLintR12, RegistryConflictsWithinOneFile) {
  const auto run =
      join_project({{"tests/lint/fixtures/r12_name_registry.cpp",
                     fixture("r12_name_registry.cpp")}});
  expect_all_rule(run.project, "dc-r12", "error");
  EXPECT_EQ(lines_of(run.project), (std::vector<int>{7, 14, 16}));
  ASSERT_EQ(run.project.size(), 3u);
  EXPECT_NE(run.project[0].message.find("duplicate TraceName"),
            std::string::npos);
  EXPECT_NE(run.project[0].message.find("'job.start'"), std::string::npos);
  EXPECT_NE(run.project[1].message.find("span here"), std::string::npos);
  EXPECT_NE(run.project[2].message.find("metric 'jobs.completed'"),
            std::string::npos);
  EXPECT_NE(run.project[2].message.find("gauge"), std::string::npos);
}

TEST(DcLintR12, DuplicateTraceNameAcrossFiles) {
  const auto run = join_project(
      {{"a.cpp", "const dc::obs::TraceName kA{\"evt.shared\"};\n"},
       {"b.cpp", "const dc::obs::TraceName kB{\"evt.shared\"};\n"}});
  ASSERT_EQ(run.project.size(), 1u) << dc_lint::to_human(run.project);
  EXPECT_EQ(run.project[0].rule, "dc-r12");
  EXPECT_EQ(run.project[0].file, "b.cpp");
  EXPECT_NE(run.project[0].message.find("a.cpp:1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// dc-r13: wall-clock dependence in campaign code.

TEST(DcLintR13, FlagsWallClockOnlyUnderSrcCampaign) {
  const std::string source = fixture("r13_campaign_wallclock.cpp");

  // Linted as campaign code: the unannotated clock type, sleeps, and the
  // filesystem timestamp all fire; the two `// dc-wallclock:` annotated
  // supervision lines stay quiet.
  const auto hot =
      dc_lint::lint_source("src/campaign/r13_campaign_wallclock.cpp", source);
  expect_all_rule(hot, "dc-r13", "error");
  EXPECT_EQ(lines_of(hot), (std::vector<int>{12, 17, 19, 21}));
  EXPECT_EQ(hot.waived, 1);  // the NOLINT'd pause()
  ASSERT_EQ(hot.diagnostics.size(), 4u);
  EXPECT_NE(hot.diagnostics[0].message.find("'steady_clock'"),
            std::string::npos);
  EXPECT_NE(hot.diagnostics[0].message.find("dc-wallclock"), std::string::npos);

  // The same source outside src/campaign is clean: the rule is path-gated.
  const auto cold = dc_lint::lint_source(
      "tests/lint/fixtures/r13_campaign_wallclock.cpp", source);
  EXPECT_TRUE(cold.diagnostics.empty()) << dc_lint::to_human(cold.diagnostics);
  EXPECT_EQ(cold.waived, 0);
}

TEST(DcLintR13, RealCampaignSourcesCarryAnnotatedSupervisionOnly) {
  // The shipped orchestrator/worker use wall time only on annotated
  // supervision lines — every diagnostic the rule would raise is already
  // covered by a `// dc-wallclock: <reason>`.
  for (const char* rel :
       {"src/campaign/spec.cpp", "src/campaign/journal.cpp",
        "src/campaign/orchestrator.cpp", "src/campaign/worker.cpp"}) {
    const auto result = dc_lint::lint_source(rel, real_source(rel));
    EXPECT_TRUE(result.diagnostics.empty())
        << rel << ":\n" << dc_lint::to_human(result.diagnostics);
  }
}

// ---------------------------------------------------------------------------
// dc-r14: raw writes in durable-artifact paths.

TEST(DcLintR14, FlagsRawWritesOnlyInDurableArtifactPaths) {
  const std::string source = fixture("r14_raw_io.cpp");

  // Linted as an obs source: the ofstream, the two write-mode/computed-mode
  // fopens, the write-flag open, and creat all fire; read-side I/O, the
  // project's own open() method, and the dc-rawio annotated channel stay
  // quiet.
  const auto hot = dc_lint::lint_source("src/obs/r14_raw_io.cpp", source);
  expect_all_rule(hot, "dc-r14", "error");
  EXPECT_EQ(lines_of(hot), (std::vector<int>{14, 19, 22, 27, 31}));
  EXPECT_EQ(hot.waived, 1);  // the NOLINT'd ofstream
  ASSERT_EQ(hot.diagnostics.size(), 5u);
  EXPECT_NE(hot.diagnostics[0].message.find("std::ofstream"),
            std::string::npos);
  EXPECT_NE(hot.diagnostics[0].message.find("dc-rawio"), std::string::npos);
  EXPECT_NE(hot.diagnostics[3].message.find("::open()"), std::string::npos);

  // The other durable-artifact subsystems are gated identically.
  expect_all_rule(dc_lint::lint_source("src/snapshot/r14_raw_io.cpp", source),
                  "dc-r14", "error");
  expect_all_rule(dc_lint::lint_source("src/campaign/r14_raw_io.cpp", source),
                  "dc-r14", "error");
  expect_all_rule(dc_lint::lint_source("src/rundb/r14_raw_io.cpp", source),
                  "dc-r14", "error");
  // The summary that SARIF and --help print names the same four paths.
  const dc_lint::RuleInfo* info = dc_lint::find_rule("dc-r14");
  ASSERT_NE(info, nullptr);
  EXPECT_NE(std::string(info->summary).find("src/rundb"), std::string::npos)
      << info->summary;

  // The same source outside those directories is clean.
  const auto cold =
      dc_lint::lint_source("tests/lint/fixtures/r14_raw_io.cpp", source);
  EXPECT_TRUE(cold.diagnostics.empty()) << dc_lint::to_human(cold.diagnostics);
  EXPECT_EQ(cold.waived, 0);
}

TEST(DcLintR14, RealDurableArtifactSourcesWriteThroughFsio) {
  // The shipped snapshot/campaign/rundb/obs writers all route through
  // util/fsio's atomic_write_file or the faultfs primitives — the rule
  // raises nothing against them.
  for (const char* rel :
       {"src/snapshot/format.cpp", "src/campaign/journal.cpp",
        "src/campaign/orchestrator.cpp", "src/campaign/worker.cpp",
        "src/rundb/store.cpp", "src/rundb/replay.cpp",
        "src/rundb/report.cpp", "src/obs/metrics.cpp",
        "src/obs/trace.cpp"}) {
    const auto result = dc_lint::lint_source(rel, real_source(rel));
    EXPECT_TRUE(result.diagnostics.empty())
        << rel << ":\n" << dc_lint::to_human(result.diagnostics);
  }
}

// ---------------------------------------------------------------------------
// Reports: human, SARIF 2.1.0.

TEST(DcLintClean, CleanFileProducesNoDiagnostics) {
  const auto result = dc_lint::lint_source("tests/lint/fixtures/clean.cpp",
                                           fixture("clean.cpp"));
  EXPECT_TRUE(result.diagnostics.empty()) << dc_lint::to_human(result.diagnostics);
  EXPECT_EQ(result.waived, 0);
}

TEST(DcLintOutput, HumanFormatIsFileLineSeverityRule) {
  const auto result =
      dc_lint::lint_source("tests/lint/fixtures/r1_wall_clock.cpp",
                           fixture("r1_wall_clock.cpp"));
  const std::string human = dc_lint::to_human(result.diagnostics);
  EXPECT_NE(human.find("tests/lint/fixtures/r1_wall_clock.cpp:9: error[dc-r1]: "),
            std::string::npos)
      << human;
}

TEST(DcLintSarif, EmitsTheSarif210Shape) {
  const auto result =
      dc_lint::lint_source("tests/lint/fixtures/r1_wall_clock.cpp",
                           fixture("r1_wall_clock.cpp"));
  const std::string sarif = dc_lint::to_sarif(result.diagnostics, "2.0.0");
  EXPECT_NE(sarif.find("\"$schema\":\"https://json.schemastore.org/"
                       "sarif-2.1.0.json\""),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"dc-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"version\":\"2.0.0\""), std::string::npos);
  // Every rule ships a descriptor, in table order, so ruleIndex is stable.
  for (const dc_lint::RuleInfo& rule : dc_lint::rule_table()) {
    EXPECT_NE(sarif.find("{\"id\":\"" + std::string(rule.id) + "\""),
              std::string::npos)
        << rule.id;
  }
  EXPECT_NE(sarif.find("\"ruleId\":\"dc-r1\",\"ruleIndex\":0,\"level\":"
                       "\"error\""),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"artifactLocation\":{\"uri\":\"tests/lint/fixtures/"
                       "r1_wall_clock.cpp\"}"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"region\":{\"startLine\":9}"), std::string::npos);
  EXPECT_NE(sarif.find("\"columnKind\":\"utf16CodeUnits\""), std::string::npos);
}

TEST(DcLintSarif, EscapesMessageText) {
  std::vector<dc_lint::Diagnostic> diags = {
      {"a.cpp", 1, "dc-r1", "error", "say \"hi\"\nnewline"}};
  const std::string sarif = dc_lint::to_sarif(diags, "2.0.0");
  EXPECT_NE(sarif.find("say \\\"hi\\\"\\nnewline"), std::string::npos) << sarif;
}

TEST(DcLintOutput, JsonEscapesSpecialCharacters) {
  // A diagnostic whose file path needs escaping must produce valid JSON; the
  // SARIF artifact uri and message both go through the JSON escaper.
  std::vector<dc_lint::Diagnostic> diags = {
      {"dir\\sub\"quoted\".cpp", 3, "dc-r1", "error", "msg with \"quotes\""}};
  const std::string sarif = dc_lint::to_sarif(diags, "2.0.0");
  EXPECT_NE(sarif.find("\"uri\":\"dir\\\\sub\\\"quoted\\\".cpp\""),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("msg with \\\"quotes\\\""), std::string::npos) << sarif;
}

// ---------------------------------------------------------------------------
// Mechanical fixes.

TEST(DcLintFixes, InsertsPragmaOnceAfterTheLeadingCommentBlock) {
  const std::string text =
      "// Header comment.\n"
      "// Second line.\n"
      "\n"
      "int value();\n";
  const std::vector<dc_lint::Diagnostic> diags = {
      {"h.hpp", 1, "dc-r5", "warning",
       "header is missing '#pragma once' (or a classic include guard)"}};
  std::vector<std::pair<std::string, int>> fixed;
  const dc_lint::FixResult result = dc_lint::apply_fixes(text, diags, fixed);
  EXPECT_TRUE(result.changed);
  EXPECT_EQ(result.applied, 1);
  EXPECT_EQ(result.text,
            "// Header comment.\n"
            "// Second line.\n"
            "\n"
            "#pragma once\n"
            "int value();\n");
}

TEST(DcLintFixes, StripsStaleWaiverComments) {
  const std::string text =
      "int a = 0;  // NOLINT(dc-r3)\n"
      "// NOLINTNEXTLINE(dc-r1)\n"
      "int b = 0;\n";
  const std::vector<dc_lint::Diagnostic> diags = {
      {"f.cpp", 1, "dc-waiver", "error", "stale"},
      {"f.cpp", 2, "dc-waiver", "error", "stale"}};
  std::vector<std::pair<std::string, int>> fixed;
  const dc_lint::FixResult result = dc_lint::apply_fixes(text, diags, fixed);
  EXPECT_TRUE(result.changed);
  EXPECT_EQ(result.applied, 2);
  // The trailing comment is trimmed; the full-line comment is deleted.
  EXPECT_EQ(result.text, "int a = 0;\nint b = 0;\n");
}

// ---------------------------------------------------------------------------
// Driver: end-to-end over real files, stale-waiver audit.

TEST(DcLintDriver, EndToEndOverTheFixturePair) {
  dc_lint::DriverOptions options;
  options.roots = {fixture_path("r9_snapshot_drift.hpp"),
                   fixture_path("r9_snapshot_drift.cpp")};
  const dc_lint::DriverResult result = dc_lint::run_driver(options);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.files_scanned, 2);
  EXPECT_EQ(result.diagnostics.size(), 1u)
      << dc_lint::to_human(result.diagnostics);
  expect_all_rule(result.diagnostics, "dc-r9", "error");
  EXPECT_EQ(result.waived, 1);  // the WaivedDrift NOLINT(dc-r9)
}

TEST(DcLintDriver, StaleWaiverIsAuditedAndFixed) {
  const std::string path = temp_file(
      "stale_waiver.cpp",
      "int answer() { return 42; }  // NOLINT(dc-r1)\n"
      "int other() { return 7; }\n");

  dc_lint::DriverOptions options;
  options.roots = {path};
  const dc_lint::DriverResult audited = dc_lint::run_driver(options);
  ASSERT_EQ(audited.diagnostics.size(), 1u)
      << dc_lint::to_human(audited.diagnostics);
  EXPECT_EQ(audited.diagnostics[0].rule, "dc-waiver");
  EXPECT_EQ(audited.diagnostics[0].line, 1);

  // --fix strips the comment, drops the diagnostic, and leaves the file
  // clean for the next run.
  options.fix = true;
  const dc_lint::DriverResult fixed = dc_lint::run_driver(options);
  EXPECT_EQ(fixed.fixes_applied, 1);
  EXPECT_TRUE(fixed.diagnostics.empty())
      << dc_lint::to_human(fixed.diagnostics);
  EXPECT_EQ(read_file_or_die(path),
            "int answer() { return 42; }\nint other() { return 7; }\n");

  options.fix = false;
  const dc_lint::DriverResult rerun = dc_lint::run_driver(options);
  EXPECT_TRUE(rerun.diagnostics.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Waivers.

TEST(DcLintWaivers, UnrelatedNolintDoesNotSuppress) {
  // A NOLINT for a different rule must not waive a dc-r1 diagnostic.
  const auto result = dc_lint::lint_source(
      "x.cpp", "long t() { return time(nullptr); }  // NOLINT(dc-r2)\n");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "dc-r1");
  EXPECT_EQ(result.waived, 0);
}

TEST(DcLintWaivers, UnusedSitesKeepTheirGroupForTheAudit) {
  const auto analysis = dc_lint::analyze_file(
      "x.cpp",
      "long t() { return time(nullptr); }  // NOLINT(dc-r1)\n"
      "int unused() { return 0; }  // NOLINT(dc-r2)\n");
  ASSERT_EQ(analysis.waivers.size(), 2u);
  EXPECT_TRUE(analysis.waivers[0].used);   // consumed by the dc-r1 hit
  EXPECT_FALSE(analysis.waivers[1].used);  // matched nothing: audit fodder
  EXPECT_NE(analysis.waivers[0].group, analysis.waivers[1].group);
}

TEST(DcLintWaivers, UnknownRuleIdsAreAuditedAndFixed) {
  dc_lint::DriverOptions options;
  options.roots = {fixture_path("unknown_waiver_ids.cpp")};
  const dc_lint::DriverResult audited = dc_lint::run_driver(options);
  ASSERT_EQ(audited.diagnostics.size(), 2u)
      << dc_lint::to_human(audited.diagnostics);
  expect_all_rule(audited.diagnostics, "dc-waiver", "error");
  EXPECT_EQ(lines_of(audited.diagnostics), (std::vector<int>{8, 10}));
  EXPECT_NE(audited.diagnostics[0].message.find(
                "suppression for dc-r6 names no dc-lint rule"),
            std::string::npos)
      << audited.diagnostics[0].message;
  EXPECT_NE(audited.diagnostics[1].message.find("dc-r99"), std::string::npos)
      << audited.diagnostics[1].message;

  // --fix strips both comments and leaves the clang-tidy waiver alone.
  const std::string path =
      temp_file("unknown_waiver_ids.cpp", fixture("unknown_waiver_ids.cpp"));
  options.roots = {path};
  options.fix = true;
  const dc_lint::DriverResult fixed = dc_lint::run_driver(options);
  EXPECT_EQ(fixed.fixes_applied, 2);
  EXPECT_TRUE(fixed.diagnostics.empty())
      << dc_lint::to_human(fixed.diagnostics);
  const std::string after = read_file_or_die(path);
  EXPECT_EQ(after.find("NOLINT(dc-r6)"), std::string::npos) << after;
  EXPECT_EQ(after.find("NOLINTNEXTLINE(dc-r99)"), std::string::npos) << after;
  EXPECT_NE(after.find("NOLINT(google-runtime-int, dc-rN)"), std::string::npos)
      << after;
  std::remove(path.c_str());
}

}  // namespace
