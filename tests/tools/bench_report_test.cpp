// Tests for the shared benchmark-report library (tools/bench_report.*):
// the JSON condenser that builds BENCH_*.json sections and the
// perf-regression gate that compares fresh reports against them. The
// fixtures deliberately use parameterized benchmark names with several
// '/' segments ("BM_EventQueueThroughput/calendar/65536") — names are
// opaque and must be carried and matched whole, never split on '/'.
#include "bench_report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

namespace dc_bench {
namespace {

// A google-benchmark style report: two real runs (one with a multi-'/'
// parameterized name and a user counter), one aggregate that must be
// dropped, and a context block.
const char* kFreshReport = R"({
  "context": {
    "date": "redacted",
    "host_name": "ci",
    "num_cpus": 8,
    "mhz_per_cpu": 3000,
    "cpu_scaling_enabled": false,
    "library_build_type": "release"
  },
  "benchmarks": [
    {
      "name": "BM_EventQueueThroughput/calendar/65536",
      "run_name": "BM_EventQueueThroughput/calendar/65536",
      "run_type": "iteration",
      "iterations": 100,
      "real_time": 5.0e6,
      "cpu_time": 4.9e6,
      "time_unit": "ns",
      "items_per_second": 2.0e7,
      "peak_pending": 4096.0
    },
    {
      "name": "BM_ProfiledSystemRun",
      "run_name": "BM_ProfiledSystemRun",
      "run_type": "iteration",
      "iterations": 10,
      "real_time": 9.0e6,
      "cpu_time": 8.8e6,
      "time_unit": "ns",
      "profile_dispatch_ns": 1.0e6
    },
    {
      "name": "BM_ProfiledSystemRun_mean",
      "run_name": "BM_ProfiledSystemRun",
      "run_type": "aggregate",
      "aggregate_name": "mean",
      "iterations": 3,
      "real_time": 9.1e6,
      "cpu_time": 8.9e6,
      "time_unit": "ns"
    }
  ]
})";

JsonPtr parse_or_die(const std::string& text) {
  std::string error;
  JsonPtr parsed = parse_json(text, &error);
  EXPECT_NE(parsed, nullptr) << error;
  return parsed;
}

// Builds a baseline file {"<label>": condense(report)} like bench_to_json.
JsonPtr baseline_from(const std::string& report_text,
                      const std::string& label) {
  JsonPtr report = parse_or_die(report_text);
  JsonPtr file = Json::make(Json::Kind::kObject);
  file->set(label, condense_report(*report));
  return file;
}

const Json* find_bench(const Json& section, const std::string& name) {
  const Json* benches = section.find("benchmarks");
  if (benches == nullptr) return nullptr;
  for (const JsonPtr& bench : benches->items) {
    const Json* n = bench->find("name");
    if (n != nullptr && n->text == name) return bench.get();
  }
  return nullptr;
}

TEST(CondenseReport, KeepsMultiSlashNamesWholeAndSkipsAggregates) {
  JsonPtr report = parse_or_die(kFreshReport);
  JsonPtr section = condense_report(*report);
  const Json* benches = section->find("benchmarks");
  ASSERT_NE(benches, nullptr);
  ASSERT_EQ(benches->items.size(), 2u);  // the _mean aggregate is dropped
  const Json* multi =
      find_bench(*section, "BM_EventQueueThroughput/calendar/65536");
  ASSERT_NE(multi, nullptr) << "multi-'/' name must be matched whole";
  // Numeric user counters ride along; structural fields do not.
  EXPECT_NE(multi->find("peak_pending"), nullptr);
  EXPECT_NE(multi->find("items_per_second"), nullptr);
  EXPECT_EQ(multi->find("run_type"), nullptr);
  EXPECT_EQ(find_bench(*section, "BM_ProfiledSystemRun_mean"), nullptr);
}

TEST(CondenseReport, ThrowsOnReportWithoutBenchmarks) {
  JsonPtr report = parse_or_die(R"({"context": {}})");
  EXPECT_THROW(condense_report(*report), std::exception);
}

TEST(ParseJson, ReportsErrorsInsteadOfCrashing) {
  std::string error;
  EXPECT_EQ(parse_json("{\"unterminated\": ", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(GateCompare, PassesWhenFreshMatchesBaseline) {
  JsonPtr baseline = baseline_from(kFreshReport, "current");
  JsonPtr fresh = parse_or_die(kFreshReport);
  GateReport report;
  std::string error;
  ASSERT_TRUE(gate_compare(*fresh, *baseline, GateOptions{}, &report, &error))
      << error;
  EXPECT_EQ(report.regressions, 0);
  EXPECT_TRUE(report.skipped.empty());
  // Both directions were checked: throughput and the profile_*_ns counter.
  bool saw_items = false;
  bool saw_profile = false;
  for (const GateComparison& cmp : report.comparisons) {
    if (cmp.metric == "items_per_second") saw_items = true;
    if (cmp.metric == "profile_dispatch_ns") saw_profile = true;
    EXPECT_FALSE(cmp.regressed) << cmp.name << " " << cmp.metric;
  }
  EXPECT_TRUE(saw_items);
  EXPECT_TRUE(saw_profile);
}

TEST(GateCompare, FlagsThroughputDropBeyondThreshold) {
  JsonPtr baseline = baseline_from(kFreshReport, "current");
  // Fresh run at half the baseline throughput on the multi-'/' bench.
  std::string slow = kFreshReport;
  const std::string from = "\"items_per_second\": 2.0e7";
  slow.replace(slow.find(from), from.size(), "\"items_per_second\": 1.0e7");
  JsonPtr fresh = parse_or_die(slow);
  GateReport report;
  std::string error;
  ASSERT_TRUE(gate_compare(*fresh, *baseline, GateOptions{}, &report, &error))
      << error;
  EXPECT_EQ(report.regressions, 1);
  bool found = false;
  for (const GateComparison& cmp : report.comparisons) {
    if (cmp.metric != "items_per_second") continue;
    EXPECT_EQ(cmp.name, "BM_EventQueueThroughput/calendar/65536");
    EXPECT_TRUE(cmp.regressed);
    EXPECT_NEAR(cmp.ratio, 0.5, 1e-9);
    found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_NE(format_gate_report(report).find("REGRESSED"), std::string::npos);
}

TEST(GateCompare, FlagsProfileNsGrowthButTolerGrowthWithinThreshold) {
  JsonPtr baseline = baseline_from(kFreshReport, "current");
  // profile_*_ns counters regress by growing. +10% passes at the default
  // 15% threshold; +50% fails.
  for (const auto& [replacement, want_regressions] :
       {std::pair<const char*, int>{"\"profile_dispatch_ns\": 1.1e6", 0},
        std::pair<const char*, int>{"\"profile_dispatch_ns\": 1.5e6", 1}}) {
    std::string text = kFreshReport;
    const std::string from = "\"profile_dispatch_ns\": 1.0e6";
    text.replace(text.find(from), from.size(), replacement);
    JsonPtr fresh = parse_or_die(text);
    GateReport report;
    std::string error;
    ASSERT_TRUE(
        gate_compare(*fresh, *baseline, GateOptions{}, &report, &error))
        << error;
    EXPECT_EQ(report.regressions, want_regressions) << replacement;
  }
}

TEST(GateCompare, SkipsBaselineBenchesMissingFromFreshRun) {
  JsonPtr baseline = baseline_from(kFreshReport, "current");
  // Fresh report from a filtered run: only the profiled bench was rerun.
  JsonPtr fresh = parse_or_die(R"({
    "benchmarks": [
      {
        "name": "BM_ProfiledSystemRun",
        "run_type": "iteration",
        "iterations": 10,
        "real_time": 9.0e6,
        "cpu_time": 8.8e6,
        "profile_dispatch_ns": 1.0e6
      }
    ]
  })");
  GateReport report;
  std::string error;
  ASSERT_TRUE(gate_compare(*fresh, *baseline, GateOptions{}, &report, &error))
      << error;
  EXPECT_EQ(report.regressions, 0);
  ASSERT_EQ(report.skipped.size(), 1u);
  EXPECT_EQ(report.skipped[0], "BM_EventQueueThroughput/calendar/65536");
}

TEST(GateCompare, ErrorsOnMissingBaselineLabel) {
  JsonPtr baseline = baseline_from(kFreshReport, "current");
  JsonPtr fresh = parse_or_die(kFreshReport);
  GateOptions options;
  options.label = "no-such-label";
  GateReport report;
  std::string error;
  EXPECT_FALSE(gate_compare(*fresh, *baseline, options, &report, &error));
  EXPECT_NE(error.find("no-such-label"), std::string::npos);
}

TEST(GateCompare, WiderThresholdTolersLargerDrop) {
  JsonPtr baseline = baseline_from(kFreshReport, "current");
  std::string slow = kFreshReport;
  const std::string from = "\"items_per_second\": 2.0e7";
  slow.replace(slow.find(from), from.size(), "\"items_per_second\": 1.5e7");
  JsonPtr fresh = parse_or_die(slow);
  GateReport strict;
  GateReport loose;
  std::string error;
  ASSERT_TRUE(gate_compare(*fresh, *baseline, GateOptions{}, &strict, &error));
  EXPECT_EQ(strict.regressions, 1);  // -25% fails the default 15%
  GateOptions wide;
  wide.threshold = 0.35;
  ASSERT_TRUE(gate_compare(*fresh, *baseline, wide, &loose, &error));
  EXPECT_EQ(loose.regressions, 0);
}

// load_json_file must name the broken-input shape, not just throw a parse
// error: an empty file (killed producer), a truncated document (killed
// mid-write), and plain non-JSON each get their own diagnostic.
std::string fixture_file(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(LoadJsonFile, MissingFileIsNamed) {
  std::string error;
  EXPECT_EQ(load_json_file(::testing::TempDir() + "no_such_report.json",
                           &error),
            nullptr);
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

TEST(LoadJsonFile, EmptyFileIsNamed) {
  std::string error;
  EXPECT_EQ(load_json_file(fixture_file("empty.json", ""), &error), nullptr);
  EXPECT_NE(error.find("is empty"), std::string::npos) << error;
  // Whitespace-only counts as empty too.
  error.clear();
  EXPECT_EQ(load_json_file(fixture_file("blank.json", " \n\t\n"), &error),
            nullptr);
  EXPECT_NE(error.find("is empty"), std::string::npos) << error;
}

TEST(LoadJsonFile, TruncatedDocumentIsNamed) {
  std::string error;
  EXPECT_EQ(load_json_file(
                fixture_file("truncated.json", "{\"context\": {\"num_cpus\": 8"),
                &error),
            nullptr);
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(LoadJsonFile, NonJsonIsNamed) {
  std::string error;
  EXPECT_EQ(load_json_file(
                fixture_file("notjson.txt", "benchmark exploded: SIGSEGV\n"),
                &error),
            nullptr);
  EXPECT_NE(error.find("not valid JSON"), std::string::npos) << error;
}

TEST(LoadJsonFile, ValidDocumentParses) {
  std::string error;
  JsonPtr parsed =
      load_json_file(fixture_file("ok.json", "{\"a\": [1, 2]}"), &error);
  ASSERT_NE(parsed, nullptr) << error;
  EXPECT_EQ(parsed->kind, Json::Kind::kObject);
}

}  // namespace
}  // namespace dc_bench
