// The run store's durability contract: canonical encoding round-trips,
// content-addressed dedup makes appends idempotent and byte-stable, torn
// tails are dropped loudly while mid-stream corruption refuses, and an
// append writes the data file and nothing else — and, when it adds and
// heals nothing, not even that.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/report.hpp"
#include "rundb/store.hpp"
#include "snapshot/format.hpp"
#include "util/csv.hpp"
#include "util/faultfs.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

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
  // store byte-identical — the interrupted==uninterrupted contract for
  // registration. It takes the lease and writes nothing else: no
  // rundb.store op is reached.
  const std::string trace = dir + ".fault_trace";
  fs::remove(trace);
  faultfs::set_trace_path(trace);
  auto second = rundb::append_records(dir, records);
  faultfs::set_trace_path("");
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(*second, 0u);
  auto hits = read_file(trace);
  ASSERT_TRUE(hits.is_ok()) << hits.status().to_string();
  EXPECT_NE(hits->find("HIT rundb.lock "), std::string::npos) << *hits;
  EXPECT_EQ(hits->find("rundb.store"), std::string::npos) << *hits;
  auto bytes_after_second = read_file(rundb::store_data_path(dir));
  ASSERT_TRUE(bytes_after_second.is_ok());
  EXPECT_EQ(*bytes_after_first, *bytes_after_second);
  // The lease is released and no derived file is written beside the data.
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"store.dcrun"});

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

// --- The append path ---------------------------------------------------------
// append_records copies each stored frame that is already canonical and
// re-encodes only the ones that are not; these tests pin what that must
// keep: refusal of corrupt frames, healing of torn tails, canonical
// rewriting, and the bytes of the re-encoding algorithm it replaced.

constexpr std::size_t kHeaderBytes = 12;  // magic + version
constexpr std::size_t kFooterBytes = 8;   // FNV-1a of the body

/// `stream` behind its u32 LE length prefix: one store frame.
std::string frame_of(const std::string& stream) {
  std::string frame(4, '\0');
  snapshot::store_le(frame.data(), static_cast<std::uint32_t>(stream.size()));
  return frame + stream;
}

/// Seals an edited stream body (header + records) with its checksum
/// footer, so it verifies like a stream SnapshotWriter::finish() wrote.
std::string seal(std::string body) {
  const std::uint64_t sum = snapshot::fnv1a(body);
  body.resize(body.size() + kFooterBytes);
  snapshot::store_le(body.data() + body.size() - kFooterBytes, sum);
  return body;
}

std::string canonical_body(const rundb::RunRecord& record) {
  const std::string stream = rundb::encode_run_record(record);
  return stream.substr(0, stream.size() - kFooterBytes);
}

// Two streams that verify and decode to `record` without being its
// canonical encoding: the decoder ignores what follows the `trace`
// section and the names of section ends. A canonical body ends with the
// trace section's end and then the run section's end, 3 bytes each.
std::string with_extra_field(const rundb::RunRecord& record) {
  std::string body = canonical_body(record);
  snapshot::SnapshotWriter extra;
  extra.u64("extra", 7);
  body.insert(body.size() - 3, extra.buffer().substr(kHeaderBytes));
  return seal(body);
}

std::string with_named_section_end(const rundb::RunRecord& record) {
  std::string body = canonical_body(record);
  body.replace(body.size() - 6, 3, std::string("\x02\x03\x00" "end", 6));
  return seal(body);
}

void write_store(const std::string& dir, const std::string& bytes) {
  fs::create_directories(dir);
  ASSERT_TRUE(
      atomic_write_file(rundb::store_data_path(dir), bytes, "test.store")
          .is_ok());
}

std::string read_bytes(const std::string& path) {
  auto bytes = read_file(path);
  EXPECT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  return bytes.is_ok() ? *bytes : std::string();
}

TEST(RunStore, AppendRefusesACorruptFrameAndLeavesTheStoreAlone) {
  const std::string dir = fresh_dir("append_corrupt");
  ASSERT_TRUE(rundb::append_records(dir, {sample_record("DCS/NASA", 7.5),
                                          sample_record("DCS/BLUE", 3.25)})
                  .is_ok());
  std::string corrupt = read_bytes(rundb::store_data_path(dir));
  corrupt[10] ^= 0x5a;  // inside frame 0's stream
  write_store(dir, corrupt);

  auto appended =
      rundb::append_records(dir, {sample_record("SSP/Montage", 1.0)});
  ASSERT_FALSE(appended.is_ok());
  EXPECT_EQ(appended.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(appended.status().message().find("at record 0 (byte offset 0)"),
            std::string::npos)
      << appended.status().message();
  EXPECT_EQ(read_bytes(rundb::store_data_path(dir)), corrupt);
}

TEST(RunStore, AppendHealsATornTailToItsValidPrefix) {
  const std::string dir = fresh_dir("append_torn");
  const rundb::RunRecord nasa = sample_record("DCS/NASA", 7.5);
  const rundb::RunRecord montage = sample_record("SSP/Montage", 1.0);
  ASSERT_TRUE(
      rundb::append_records(dir, {nasa, sample_record("DCS/BLUE", 3.25)})
          .is_ok());
  const std::string bytes = read_bytes(rundb::store_data_path(dir));
  write_store(dir, bytes.substr(0, bytes.size() - 5));

  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  Log::set_stream(log);
  auto appended = rundb::append_records(dir, {montage});
  Log::set_stream(stderr);
  std::string warning(256, '\0');
  std::rewind(log);
  warning.resize(std::fread(warning.data(), 1, warning.size(), log));
  std::fclose(log);

  ASSERT_TRUE(appended.is_ok()) << appended.status().to_string();
  EXPECT_EQ(*appended, 1u);
  const std::string nasa_frame = frame_of(rundb::encode_run_record(nasa));
  EXPECT_NE(warning.find(str_format("torn trailing record at byte offset %zu",
                                    nasa_frame.size())),
            std::string::npos)
      << warning;
  EXPECT_EQ(read_bytes(rundb::store_data_path(dir)),
            nasa_frame + frame_of(rundb::encode_run_record(montage)));
}

TEST(RunStore, AppendRewritesNonCanonicalFramesInCanonicalForm) {
  const rundb::RunRecord nasa = sample_record("DCS/NASA", 7.5);
  const rundb::RunRecord blue = sample_record("DCS/BLUE", 3.25);
  const rundb::RunRecord montage = sample_record("SSP/Montage", 1.0);
  const std::pair<const char*, std::string> variants[] = {
      {"extra field after the trace section", with_extra_field(nasa)},
      {"named section end", with_named_section_end(nasa)},
  };
  for (const auto& [what, stream] : variants) {
    SCOPED_TRACE(what);
    ASSERT_NE(stream, rundb::encode_run_record(nasa));
    auto decoded = rundb::decode_run_record(stream);
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    ASSERT_EQ(decoded->run_id(), nasa.run_id());

    const std::string dir = fresh_dir("noncanonical");
    write_store(dir,
                frame_of(stream) + frame_of(rundb::encode_run_record(blue)));
    // `nasa` is already stored, under its canonical run id.
    auto appended = rundb::append_records(dir, {nasa, montage});
    ASSERT_TRUE(appended.is_ok()) << appended.status().to_string();
    EXPECT_EQ(*appended, 1u);
    const std::string store = read_bytes(rundb::store_data_path(dir));
    EXPECT_EQ(store, frame_of(rundb::encode_run_record(nasa)) +
                         frame_of(rundb::encode_run_record(blue)) +
                         frame_of(rundb::encode_run_record(montage)));

    auto again = rundb::append_records(dir, {nasa, montage});
    ASSERT_TRUE(again.is_ok()) << again.status().to_string();
    EXPECT_EQ(*again, 0u);
    EXPECT_EQ(read_bytes(rundb::store_data_path(dir)), store);
  }
}

/// The re-encoding append that build_store_image replaced, kept as its
/// reference: parse the store, re-encode every stored record, and append
/// each batch record whose run_id() is not yet present.
StatusOr<rundb::StoreImage> reference_image(
    const std::string& data, const std::string& label,
    const std::vector<rundb::RunRecord>& records) {
  auto contents = rundb::parse_store(data, label);
  if (!contents.is_ok()) return contents.status();
  rundb::StoreImage image;
  std::vector<std::uint64_t> seen;
  for (const rundb::RunRecord& record : contents->records) {
    seen.push_back(record.run_id());
    image.store += frame_of(rundb::encode_run_record(record));
  }
  for (const rundb::RunRecord& record : records) {
    const std::uint64_t id = record.run_id();
    if (std::find(seen.begin(), seen.end(), id) != seen.end()) continue;
    seen.push_back(id);
    image.store += frame_of(rundb::encode_run_record(record));
    ++image.appended;
  }
  return image;
}

rundb::RunRecord random_record(Rng& rng) {
  static const char* const kLabels[] = {"DCS/NASA", "SSP/BLUE", "DRP/Montage",
                                        "cell-000002/dcs/NASA"};
  rundb::RunRecord record;
  record.kind = rng.bernoulli(0.8) ? "run" : "campaign-cell";
  record.source = "tests/sample.dcfg";
  record.label = kLabels[rng.uniform_int(0, 3)];
  for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
    record.params.emplace_back("p" + std::to_string(i),
                               std::to_string(rng.uniform_int(0, 2)));
  }
  for (std::int64_t i = rng.uniform_int(0, 4); i > 0; --i) {
    const double value = 0.5 * static_cast<double>(rng.uniform_int(0, 3));
    record.metrics.emplace_back("m" + std::to_string(i), value);
  }
  record.trace_events = static_cast<std::uint64_t>(rng.uniform_int(0, 1));
  record.trace_digest = rng.bernoulli(0.5) ? "" : "00c0ffee00c0ffee";
  return record;
}

TEST(RunStore, BuildStoreImageMatchesTheReencodingReference) {
  const LogLevel level = Log::level();
  Log::set_level(LogLevel::kError);  // the torn-tail cases warn twice each
  int with_duplicates = 0, with_noncanonical = 0, with_torn_tail = 0,
      with_repeats = 0, refused = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<rundb::RunRecord> pool;  // stored, then batch, records
    std::string data;
    const std::int64_t stored = rng.uniform_int(0, 40);
    const std::int64_t odd = rng.bernoulli(0.3) ? rng.uniform_int(0, 40) : -1;
    bool duplicate = false, noncanonical = false;
    for (std::int64_t i = 0; i < stored; ++i) {
      const bool repeat = !pool.empty() && rng.bernoulli(0.15);
      const rundb::RunRecord record =
          repeat ? pool[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(pool.size()) - 1))]
                 : random_record(rng);
      duplicate = duplicate || repeat;
      std::string stream = rundb::encode_run_record(record);
      if (i == odd) {
        stream = rng.bernoulli(0.5) ? with_extra_field(record)
                                    : with_named_section_end(record);
        noncanonical = true;
      }
      data += frame_of(stream);
      pool.push_back(record);
    }
    const bool torn = rng.bernoulli(0.25);
    if (torn) {
      const std::string tail =
          frame_of(rundb::encode_run_record(random_record(rng)));
      const std::int64_t kept =
          rng.uniform_int(1, static_cast<std::int64_t>(tail.size()) - 1);
      data += tail.substr(0, static_cast<std::size_t>(kept));
    }
    if (!data.empty() && rng.bernoulli(0.05)) {
      data[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(data.size()) - 1))] ^= 0x20;
    }
    std::vector<rundb::RunRecord> batch;
    bool repeats = false;
    for (std::int64_t i = rng.uniform_int(0, 5); i > 0; --i) {
      const bool repeat = !pool.empty() && rng.bernoulli(0.35);
      batch.push_back(
          repeat ? pool[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(pool.size()) - 1))]
                 : random_record(rng));
      pool.push_back(batch.back());
      repeats = repeats || repeat;
    }

    const auto want = reference_image(data, "store", batch);
    const auto got = rundb::build_store_image(data, "store", batch);
    ASSERT_EQ(got.is_ok(), want.is_ok())
        << (got.is_ok() ? want.status() : got.status()).to_string();
    if (!want.is_ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
      EXPECT_EQ(got.status().message(), want.status().message());
      ++refused;
      continue;
    }
    EXPECT_EQ(got->store, want->store);
    EXPECT_EQ(got->appended, want->appended);
    with_duplicates += duplicate;
    with_noncanonical += noncanonical;
    with_torn_tail += torn;
    with_repeats += repeats;
  }
  Log::set_level(level);
  // The generator must reach every shape the reference is there to pin.
  EXPECT_GE(with_duplicates, 50);
  EXPECT_GE(with_noncanonical, 20);
  EXPECT_GE(with_torn_tail, 20);
  EXPECT_GE(with_repeats, 50);
  EXPECT_GE(refused, 1);
}

// The store's size and digest after a fixed append sequence, captured
// from the re-encoding append this one replaced: the bytes on disk are
// unchanged.
TEST(RunStore, ThreeBatchAppendSequenceKeepsItsPinnedBytes) {
  const std::string dir = fresh_dir("pinned");
  const rundb::RunRecord nasa = sample_record("DCS/NASA", 7.5);
  const rundb::RunRecord blue = sample_record("DCS/BLUE", 3.25);
  const rundb::RunRecord montage = sample_record("SSP/Montage", 1.0);
  rundb::RunRecord sjf = nasa;
  sjf.params.emplace_back("scheduler", "sjf");
  const std::vector<std::vector<rundb::RunRecord>> batches = {
      {nasa, blue}, {blue, montage, montage}, {nasa, sjf}};
  std::vector<std::uint64_t> appended;
  for (const auto& batch : batches) {
    auto count = rundb::append_records(dir, batch);
    ASSERT_TRUE(count.is_ok()) << count.status().to_string();
    appended.push_back(*count);
  }
  EXPECT_EQ(appended, (std::vector<std::uint64_t>{2, 1, 1}));
  const std::string store = read_bytes(rundb::store_data_path(dir));
  EXPECT_EQ(store.size(), 1521u);
  EXPECT_EQ(snapshot::fnv1a(store), 0xa43f9021eaebb1f4ULL);
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
