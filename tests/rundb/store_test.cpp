// The run store's durability contract: canonical encoding round-trips,
// content-addressed dedup makes appends idempotent and byte-stable, torn
// tails are dropped loudly while mid-stream corruption refuses, and the
// derived index is pinned to the exact store bytes it indexes.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/report.hpp"
#include "rundb/store.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"

namespace dc {
namespace {

namespace fs = std::filesystem;

rundb::RunRecord sample_record(const std::string& label, double value) {
  rundb::RunRecord record;
  record.kind = "run";
  record.source = "tests/sample.dcfg";
  record.label = label;
  record.params = {{"system", "dcs"}, {"quantum", "15m"}};
  record.metrics = {{"completed", value}, {"makespan_seconds", 2 * value}};
  record.trace_events = 42;
  record.trace_dropped = 1;
  record.trace_digest = "00c0ffee00c0ffee";
  return record;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "rundb_" + name;
  fs::remove_all(dir);
  return dir;
}

TEST(RunStore, RecordRoundTripsThroughItsEncoding) {
  const rundb::RunRecord record = sample_record("DCS/NASA", 7.5);
  auto decoded = rundb::decode_run_record(rundb::encode_run_record(record));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->kind, record.kind);
  EXPECT_EQ(decoded->source, record.source);
  EXPECT_EQ(decoded->label, record.label);
  EXPECT_EQ(decoded->params, record.params);
  EXPECT_EQ(decoded->metrics, record.metrics);
  EXPECT_EQ(decoded->trace_events, record.trace_events);
  EXPECT_EQ(decoded->trace_dropped, record.trace_dropped);
  EXPECT_EQ(decoded->trace_digest, record.trace_digest);
  EXPECT_EQ(decoded->run_id(), record.run_id());
}

TEST(RunStore, RunIdIsContentSensitive) {
  const rundb::RunRecord a = sample_record("DCS/NASA", 7.5);
  rundb::RunRecord b = a;
  EXPECT_EQ(a.run_id(), b.run_id());
  b.metrics[0].second += 1.0;
  EXPECT_NE(a.run_id(), b.run_id());
  rundb::RunRecord c = a;
  c.params.emplace_back("scheduler", "sjf");
  EXPECT_NE(a.run_id(), c.run_id());
}

TEST(RunStore, AppendIsIdempotentAndByteStable) {
  const std::string dir = fresh_dir("idempotent");
  const std::vector<rundb::RunRecord> records = {
      sample_record("DCS/NASA", 7.5), sample_record("DCS/BLUE", 3.25)};

  auto first = rundb::append_records(dir, records);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(*first, 2u);
  auto bytes_after_first = read_file(rundb::store_data_path(dir));
  ASSERT_TRUE(bytes_after_first.is_ok());

  // Registering the same content again appends nothing and leaves the
  // store (and its index) byte-identical — the interrupted==uninterrupted
  // contract for registration.
  auto second = rundb::append_records(dir, records);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(*second, 0u);
  auto bytes_after_second = read_file(rundb::store_data_path(dir));
  ASSERT_TRUE(bytes_after_second.is_ok());
  EXPECT_EQ(*bytes_after_first, *bytes_after_second);
  EXPECT_TRUE(rundb::verify_store_index(dir).is_ok());

  auto loaded = rundb::load_store(dir);
  ASSERT_TRUE(loaded.is_ok());
  ASSERT_EQ(loaded->records.size(), 2u);
  EXPECT_EQ(loaded->records[0].label, "DCS/NASA");
  EXPECT_EQ(loaded->records[1].label, "DCS/BLUE");
  EXPECT_FALSE(loaded->truncated_tail);
}

TEST(RunStore, LoadingAMissingStoreIsEmptyNotAnError) {
  auto loaded = rundb::load_store(fresh_dir("missing"));
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_TRUE(loaded->records.empty());
}

TEST(RunStore, TornTrailingFrameIsDroppedAndReported) {
  const std::string dir = fresh_dir("torn");
  auto appended = rundb::append_records(
      dir, {sample_record("DCS/NASA", 7.5), sample_record("DCS/BLUE", 3.25)});
  ASSERT_TRUE(appended.is_ok());

  auto bytes = read_file(rundb::store_data_path(dir));
  ASSERT_TRUE(bytes.is_ok());
  const std::string torn = bytes->substr(0, bytes->size() - 5);
  auto parsed = rundb::parse_store(torn, "torn-store");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->records.size(), 1u);
  EXPECT_TRUE(parsed->truncated_tail);
}

TEST(RunStore, MidStreamCorruptionIsRefusedWithATypedError) {
  const std::string dir = fresh_dir("corrupt");
  auto appended = rundb::append_records(
      dir, {sample_record("DCS/NASA", 7.5), sample_record("DCS/BLUE", 3.25)});
  ASSERT_TRUE(appended.is_ok());

  auto bytes = read_file(rundb::store_data_path(dir));
  ASSERT_TRUE(bytes.is_ok());
  std::string corrupt = *bytes;
  corrupt[10] ^= 0x5a;  // inside the first frame's payload
  auto parsed = rundb::parse_store(corrupt, "corrupt-store");
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(parsed.status().message().find("corrupt"), std::string::npos)
      << parsed.status().message();
}

TEST(RunStore, IndexIsPinnedToTheStoreBytes) {
  const std::string dir = fresh_dir("index");
  ASSERT_TRUE(
      rundb::append_records(dir, {sample_record("DCS/NASA", 7.5)}).is_ok());
  EXPECT_TRUE(rundb::verify_store_index(dir).is_ok());

  // Keep the old index around, append, put the old index back: it now
  // pins different bytes and must be reported stale, not used.
  auto stale_index = read_file(rundb::store_index_path(dir));
  ASSERT_TRUE(stale_index.is_ok());
  ASSERT_TRUE(
      rundb::append_records(dir, {sample_record("DCS/BLUE", 3.25)}).is_ok());
  EXPECT_TRUE(rundb::verify_store_index(dir).is_ok());
  ASSERT_TRUE(atomic_write_file(rundb::store_index_path(dir), *stale_index,
                                "test.stale_index")
                  .is_ok());
  Status stale = rundb::verify_store_index(dir);
  ASSERT_FALSE(stale.is_ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);

  fs::remove(rundb::store_index_path(dir));
  Status missing = rundb::verify_store_index(dir);
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
}

TEST(RunStore, IndexEntriesLocateEveryFrame) {
  const std::string dir = fresh_dir("entries");
  const std::vector<rundb::RunRecord> records = {
      sample_record("DCS/NASA", 7.5), sample_record("DCS/BLUE", 3.25)};
  ASSERT_TRUE(rundb::append_records(dir, records).is_ok());

  auto bytes = read_file(rundb::store_data_path(dir));
  ASSERT_TRUE(bytes.is_ok());
  auto index_bytes = read_file(rundb::store_index_path(dir));
  ASSERT_TRUE(index_bytes.is_ok());
  auto index = rundb::parse_store_index(*index_bytes, "index");
  ASSERT_TRUE(index.is_ok()) << index.status().to_string();
  ASSERT_EQ(index->entries.size(), 2u);
  EXPECT_EQ(index->store_bytes, bytes->size());
  for (std::size_t i = 0; i < index->entries.size(); ++i) {
    const auto& entry = index->entries[i];
    EXPECT_EQ(entry.run_id, records[i].run_id()) << "entry " << i;
    EXPECT_EQ(entry.label, records[i].label) << "entry " << i;
    // The (offset, length) pair frames a decodable record payload.
    ASSERT_LE(entry.offset + 4 + entry.length, bytes->size());
    const std::string payload =
        bytes->substr(entry.offset + 4, entry.length);
    auto decoded = rundb::decode_run_record(payload);
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded->run_id(), records[i].run_id());
  }
}

// The run store's metric vocabulary and the results CSV are the same
// contract: provider_metrics must name exactly the numeric columns of
// metrics::write_results_csv, in column order. A drift here would make
// `dc report` and the CSV artifacts disagree about what a metric means.
TEST(RunStore, ProviderMetricNamesMatchTheResultsCsvHeader) {
  core::SystemResult result;
  result.model = core::SystemModel::kDcs;
  core::ProviderResult provider;
  provider.provider = "NASA";
  provider.type = core::WorkloadType::kHtc;
  result.providers.push_back(provider);

  const std::string path = ::testing::TempDir() + "rundb_header.csv";
  {
    CsvWriter csv(path);
    ASSERT_TRUE(csv.ok());
    metrics::write_results_csv(csv, {result});
  }
  auto rows = read_csv_file(path);
  ASSERT_TRUE(rows.is_ok()) << rows.status().to_string();
  ASSERT_GE(rows->size(), 2u);
  const std::vector<std::string>& header = (*rows)[0];

  const auto metric_pairs = rundb::provider_metrics(result, provider);
  std::vector<std::string> expected = {"system", "provider", "type"};
  for (const auto& [name, value] : metric_pairs) expected.push_back(name);
  EXPECT_EQ(header, expected);
}

TEST(RunStore, MakeRunRecordsCarriesIdentityParamsAndTrace) {
  core::SystemResult result;
  result.model = core::SystemModel::kSsp;
  core::ProviderResult htc;
  htc.provider = "NASA";
  htc.type = core::WorkloadType::kHtc;
  core::ProviderResult mtc;
  mtc.provider = "Montage";
  mtc.type = core::WorkloadType::kMtc;
  result.providers = {htc, mtc};

  const auto records = rundb::make_run_records(
      "tests/sample.dcfg", result, {{"quantum", "15m"}}, 99, 3, "deadbeef");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, "run");
  EXPECT_EQ(records[0].source, "tests/sample.dcfg");
  EXPECT_EQ(records[0].label, "SSP/NASA");
  EXPECT_EQ(records[1].label, "SSP/Montage");
  EXPECT_EQ(records[0].param("quantum"), "15m");
  EXPECT_EQ(records[0].param("system"), "SSP");
  EXPECT_EQ(records[0].param("provider"), "NASA");
  EXPECT_EQ(records[0].param("type"), "HTC");
  EXPECT_EQ(records[1].param("type"), "MTC");
  EXPECT_EQ(records[0].trace_events, 99u);
  EXPECT_EQ(records[0].trace_dropped, 3u);
  EXPECT_EQ(records[0].trace_digest, "deadbeef");
  EXPECT_EQ(records[0].metrics.size(),
            rundb::provider_metrics(result, htc).size());
}

}  // namespace
}  // namespace dc
