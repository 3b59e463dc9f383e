#include "core/description.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "snapshot/format.hpp"
#include "workflow/montage.hpp"
#include "workflow/wff.hpp"
#include "workload/models.hpp"
#include "workload/swf.hpp"

namespace dc::core {
namespace {

constexpr const char* kTwoProviders = R"(# paper-style experiment
provider NASA
  workload        htc
  initial-nodes   40
  threshold-ratio 1.2
  subscription    128
  fixed-nodes     128
  trace           synthetic:nasa
  seed            42
end

provider Montage
  workload        mtc
  initial-nodes   10
  threshold-ratio 8
  fixed-nodes     166
  submit-time     206h
  workflow        montage:166
  seed            7
end
)";

TEST(Description, ParsesProvidersWithPolicies) {
  auto workload = parse_experiment_description_string(kTwoProviders);
  ASSERT_TRUE(workload.is_ok()) << workload.status().to_string();
  ASSERT_EQ(workload->htc.size(), 1u);
  ASSERT_EQ(workload->mtc.size(), 1u);

  const HtcWorkloadSpec& nasa = workload->htc[0];
  EXPECT_EQ(nasa.name, "NASA");
  EXPECT_EQ(nasa.policy.initial_nodes, 40);
  EXPECT_DOUBLE_EQ(nasa.policy.threshold_ratio, 1.2);
  EXPECT_EQ(nasa.policy.max_nodes, 128);
  EXPECT_EQ(nasa.fixed_nodes, 128);
  EXPECT_EQ(nasa.trace.size(), workload::make_nasa_ipsc(42).size());

  const MtcWorkloadSpec& montage = workload->mtc[0];
  EXPECT_EQ(montage.submit_time, 206 * kHour);
  EXPECT_EQ(montage.dag.size(), 1000u);
  EXPECT_EQ(montage.fixed_nodes, 166);
  EXPECT_EQ(montage.policy.scan_interval, 3) << "MTC default scan interval";
}

TEST(Description, ParsedWorkloadRunsLikeTheProgrammaticOne) {
  auto workload = parse_experiment_description_string(kTwoProviders);
  ASSERT_TRUE(workload.is_ok());
  const auto result = run_system(SystemModel::kDcs, *workload);
  EXPECT_EQ(result.provider("NASA").consumption_node_hours, 128 * 336);
  EXPECT_EQ(result.provider("Montage").consumption_node_hours, 166);
}

TEST(Description, LoadsTraceAndWorkflowFromFiles) {
  const std::string dir = ::testing::TempDir();
  const std::string swf_path = dir + "/d.swf";
  const std::string wff_path = dir + "/d.wff";
  ASSERT_TRUE(workload::write_swf_file(
                  swf_path, workload::make_nasa_ipsc(5).to_swf())
                  .is_ok());
  workflow::MontageParams params;
  params.inputs = 10;
  ASSERT_TRUE(
      workflow::write_wff_file(wff_path, workflow::make_montage(params, 1))
          .is_ok());

  const std::string text = R"(
provider H
  workload htc
  trace swf:d.swf
end
provider M
  workload mtc
  workflow wff:d.wff
end
)";
  auto workload = parse_experiment_description_string(text, dir);
  ASSERT_TRUE(workload.is_ok()) << workload.status().to_string();
  EXPECT_EQ(workload->htc[0].trace.size(), workload::make_nasa_ipsc(5).size());
  EXPECT_EQ(workload->mtc[0].dag.size(), 64u);  // 6*10+4
  // fixed-nodes defaulted from the sources.
  EXPECT_EQ(workload->htc[0].fixed_nodes, 128);
  EXPECT_EQ(workload->mtc[0].fixed_nodes,
            static_cast<std::int64_t>(workload->mtc[0].dag.roots().size()));
  std::remove(swf_path.c_str());
  std::remove(wff_path.c_str());
}

TEST(Description, RejectsMalformedInput) {
  EXPECT_FALSE(parse_experiment_description_string("").is_ok());
  EXPECT_FALSE(parse_experiment_description_string("workload htc\n").is_ok())
      << "key outside stanza";
  EXPECT_FALSE(
      parse_experiment_description_string("provider A\nprovider B\n").is_ok())
      << "nested stanza";
  EXPECT_FALSE(parse_experiment_description_string("provider A\n").is_ok())
      << "unterminated stanza";
  EXPECT_FALSE(parse_experiment_description_string(
                   "provider A\n workload htc\n trace synthetic:nasa\n"
                   " bogus-key 3\nend\n")
                   .is_ok())
      << "unknown key";
  EXPECT_FALSE(parse_experiment_description_string(
                   "provider A\n workload quantum\n end\n")
                   .is_ok())
      << "unknown workload type";
  EXPECT_FALSE(parse_experiment_description_string(
                   "provider A\n workload htc\nend\n")
                   .is_ok())
      << "HTC without trace";
  EXPECT_FALSE(parse_experiment_description_string(
                   "provider A\n workload mtc\n workflow montage:1\nend\n")
                   .is_ok())
      << "montage needs >= 2 inputs";
}

TEST(Description, ErrorsCarryLineNumbers) {
  auto result = parse_experiment_description_string(
      "provider A\n workload htc\n trace synthetic:nasa\n nonsense 1\nend\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("line 4"), std::string::npos);
}

TEST(Description, RefusesProviderNamesTooLongForASnapshotSection) {
  // A provider snapshots as the section "htc:<name>" (or mtc:, drp:), so
  // its name may use the record-name limit less that 4-byte prefix.
  const std::size_t longest = snapshot::kMaxRecordNameBytes - 4;
  auto describe = [](const std::string& name) {
    return "# one provider\nprovider " + name +
           "\n workload htc\n trace synthetic:nasa\nend\n";
  };
  EXPECT_TRUE(
      parse_experiment_description_string(describe(std::string(longest, 'P')))
          .is_ok());

  const std::string cfg_path = ::testing::TempDir() + "/long_name.dcfg";
  {
    std::ofstream out(cfg_path);
    out << describe(std::string(longest + 1, 'P'));
  }
  auto too_long = read_experiment_description(cfg_path);
  std::remove(cfg_path.c_str());
  ASSERT_FALSE(too_long.is_ok());
  EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_long.status().message().find("line 2"), std::string::npos)
      << too_long.status().message();
  EXPECT_FALSE(
      parse_experiment_description_string(describe(std::string(70000, 'P')))
          .is_ok());
}

TEST(ParseDuration, SuffixesAndPlainSeconds) {
  EXPECT_EQ(*parse_duration("90"), 90);
  EXPECT_EQ(*parse_duration("90s"), 90);
  EXPECT_EQ(*parse_duration("5m"), 300);
  EXPECT_EQ(*parse_duration("2h"), 7200);
  EXPECT_EQ(*parse_duration("1d"), kDay);
  EXPECT_FALSE(parse_duration("").is_ok());
  EXPECT_FALSE(parse_duration("abc").is_ok());
  EXPECT_FALSE(parse_duration("-5s").is_ok());
  // The largest day count that fits int64 seconds parses; one unit more
  // (in days or minutes), or a count past int64 itself, is out_of_range
  // rather than signed overflow.
  EXPECT_EQ(*parse_duration("106751991167300d"), 106751991167300 * kDay);
  for (const char* token : {"106751991167301d", "200000000000000d",
                            "153722867280912931m", "9223372036854775808"}) {
    auto overflow = parse_duration(token);
    ASSERT_FALSE(overflow.is_ok()) << token;
    EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange) << token;
  }
}

TEST(Description, DescribeRoundTripMentionsProviders) {
  auto workload = parse_experiment_description_string(kTwoProviders);
  ASSERT_TRUE(workload.is_ok());
  const std::string text = describe_experiment(*workload);
  EXPECT_NE(text.find("provider NASA"), std::string::npos);
  EXPECT_NE(text.find("provider Montage"), std::string::npos);
  EXPECT_NE(text.find("threshold-ratio 1.2"), std::string::npos);
  EXPECT_NE(text.find("submit-time 741600s"), std::string::npos);
}

TEST(Description, FuzzedGarbageNeverCrashes) {
  // Property: arbitrary byte soup either parses or returns an error — it
  // must never crash or hang. Mixes valid fragments with noise so some
  // inputs get deep into the parser.
  Rng rng(0xfadedULL);
  const std::vector<std::string> fragments = {
      "provider", "end", "workload", "htc", "mtc", "trace", "workflow",
      "synthetic:nasa", "montage:5", "initial-nodes", "threshold-ratio",
      "submit-time", "5h", "-3", "9999999999999999999999", "#", "\n", " ",
      "p", ":", "swf:/dev/null", "seed"};
  for (int round = 0; round < 300; ++round) {
    std::string input;
    const std::int64_t parts = rng.uniform_int(0, 40);
    for (std::int64_t i = 0; i < parts; ++i) {
      input += fragments[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(fragments.size()) - 1))];
      input += rng.bernoulli(0.3) ? "\n" : " ";
    }
    auto result = parse_experiment_description_string(input);
    if (result.is_ok()) {
      EXPECT_FALSE(result->htc.empty() && result->mtc.empty());
    }
  }
}

TEST(Description, ReadFromFileResolvesRelativePaths) {
  const std::string dir = ::testing::TempDir();
  const std::string swf_path = dir + "/rel.swf";
  ASSERT_TRUE(workload::write_swf_file(
                  swf_path, workload::make_nasa_ipsc(5).to_swf())
                  .is_ok());
  const std::string cfg_path = dir + "/exp.dcfg";
  {
    std::ofstream out(cfg_path);
    out << "provider H\n workload htc\n trace swf:rel.swf\nend\n";
  }
  auto workload = read_experiment_description(cfg_path);
  ASSERT_TRUE(workload.is_ok()) << workload.status().to_string();
  EXPECT_FALSE(workload->htc.empty());
  std::remove(swf_path.c_str());
  std::remove(cfg_path.c_str());
  EXPECT_FALSE(read_experiment_description(cfg_path).is_ok());
}

}  // namespace
}  // namespace dc::core
