// Snapshot encoding regression: round trips for every field kind, the
// name/kind mismatch diagnostics, the whole-stream integrity checks
// (magic, version, checksum, truncation) that keep a damaged snapshot
// from ever restoring silently wrong state, and the v1 byte layout itself,
// pinned by a literal and by a byte-by-byte reference encoder.
#include "snapshot/format.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/fsio.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace dc::snapshot {
namespace {

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

/// Index of the first byte where `a` and `b` differ (npos when equal), so
/// a failed comparison of megabyte streams reports a position, not a dump.
std::size_t first_difference(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return a.size() == b.size() ? std::string::npos : n;
}

/// The v1 encoding written the slow, obvious way: one push_back per byte
/// and a plain FNV-1a loop. It shares no code with SnapshotWriter, so it
/// is an independent oracle for the bytes the writer must produce.
class ReferenceWriter {
 public:
  ReferenceWriter() {
    bytes_.append(kMagic, sizeof(kMagic));
    put(kFormatVersion, 4);
  }

  void record(RecordKind kind, std::string_view name) {
    put(static_cast<std::uint8_t>(kind), 1);
    put(name.size(), 2);
    bytes_.append(name);
  }
  void put(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void append(std::string_view bytes) { bytes_.append(bytes); }

  const std::string& bytes() const { return bytes_; }
  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes_) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    return h;
  }
  std::string finish() const {
    ReferenceWriter copy = *this;
    copy.put(digest(), 8);
    return copy.bytes_;
  }

 private:
  std::string bytes_;
};

std::string sample_stream() {
  SnapshotWriter writer;
  writer.begin_section("kernel");
  writer.u64("seq", 42);
  writer.i64("balance", -7);
  writer.end_section();
  writer.begin_section("server");
  writer.f64("hours", 1.5);
  writer.boolean("started", true);
  writer.str("name", "det");
  const char blob[] = {0x00, 0x7f, 0x01};
  writer.bytes("blob", std::string_view(blob, sizeof(blob)));
  writer.begin_section("ledger");
  writer.i64("opened", 3600);
  writer.end_section();
  writer.end_section();
  return writer.finish();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotFormat, RoundTripsEveryFieldKind) {
  auto reader = SnapshotReader::from_buffer(sample_stream());
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();

  ASSERT_TRUE(reader->begin_section("kernel").is_ok());
  std::uint64_t seq = 0;
  ASSERT_TRUE(reader->u64("seq", seq).is_ok());
  EXPECT_EQ(seq, 42u);
  std::int64_t balance = 0;
  ASSERT_TRUE(reader->i64("balance", balance).is_ok());
  EXPECT_EQ(balance, -7);
  ASSERT_TRUE(reader->end_section().is_ok());

  ASSERT_TRUE(reader->begin_section("server").is_ok());
  double hours = 0.0;
  ASSERT_TRUE(reader->f64("hours", hours).is_ok());
  EXPECT_DOUBLE_EQ(hours, 1.5);
  bool started = false;
  ASSERT_TRUE(reader->boolean("started", started).is_ok());
  EXPECT_TRUE(started);
  std::string name;
  ASSERT_TRUE(reader->str("name", name).is_ok());
  EXPECT_EQ(name, "det");
  std::string_view blob;
  ASSERT_TRUE(reader->bytes("blob", blob).is_ok());
  EXPECT_EQ(blob, std::string("\x00\x7f\x01", 3));
  ASSERT_TRUE(reader->begin_section("ledger").is_ok());
  SimTime opened = 0;
  ASSERT_TRUE(reader->i64("opened", opened).is_ok());
  EXPECT_EQ(opened, 3600);
  ASSERT_TRUE(reader->end_section().is_ok());
  ASSERT_TRUE(reader->end_section().is_ok());
}

TEST(SnapshotFormat, FieldNameMismatchNamesBothSides) {
  SnapshotWriter writer;
  writer.u64("actual", 1);
  auto reader = SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok());
  std::uint64_t out = 0;
  const Status status = reader->u64("expected", out);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("expected"), std::string::npos);
  EXPECT_NE(status.message().find("actual"), std::string::npos);
}

TEST(SnapshotFormat, FieldKindMismatchIsTyped) {
  SnapshotWriter writer;
  writer.u64("value", 9);
  auto reader = SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok());
  std::string out;
  const Status status = reader->str("value", out);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("value"), std::string::npos);
}

TEST(SnapshotFormat, SectionContextAppearsInErrors) {
  SnapshotWriter writer;
  writer.begin_section("outer");
  writer.begin_section("inner");
  writer.u64("x", 1);
  writer.end_section();
  writer.end_section();
  auto reader = SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok());
  ASSERT_TRUE(reader->begin_section("outer").is_ok());
  ASSERT_TRUE(reader->begin_section("inner").is_ok());
  std::uint64_t out = 0;
  const Status status = reader->u64("missing", out);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("outer.inner"), std::string::npos)
      << status.message();
}

TEST(SnapshotFormat, TruncatedStreamRejected) {
  std::string bytes = sample_stream();
  bytes.resize(bytes.size() - 5);
  auto reader = SnapshotReader::from_buffer(std::move(bytes));
  ASSERT_FALSE(reader.is_ok());
  EXPECT_NE(reader.status().message().find("checksum"), std::string::npos)
      << reader.status().message();
}

TEST(SnapshotFormat, FlippedByteRejected) {
  std::string bytes = sample_stream();
  bytes[bytes.size() / 2] ^= 0x40;
  auto reader = SnapshotReader::from_buffer(std::move(bytes));
  ASSERT_FALSE(reader.is_ok());
  EXPECT_NE(reader.status().message().find("corrupt"), std::string::npos)
      << reader.status().message();
}

TEST(SnapshotFormat, BadMagicRejected) {
  std::string bytes = sample_stream();
  bytes[0] = 'X';
  auto reader = SnapshotReader::from_buffer(std::move(bytes));
  ASSERT_FALSE(reader.is_ok());
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos);
}

TEST(SnapshotFormat, VersionSkewNamesBothVersions) {
  std::string bytes = sample_stream();
  // The u32 version sits right after the 8-byte magic (little-endian).
  bytes[sizeof(kMagic)] = static_cast<char>(kFormatVersion + 1);
  auto reader = SnapshotReader::from_buffer(std::move(bytes));
  ASSERT_FALSE(reader.is_ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reader.status().message().find("version"), std::string::npos);
}

TEST(SnapshotFormat, EmptyAndTinyStreamsRejected) {
  EXPECT_FALSE(SnapshotReader::from_buffer("").is_ok());
  EXPECT_FALSE(SnapshotReader::from_buffer("DCSNAP").is_ok());
}

TEST(SnapshotFormat, MissingFileIsNotFound) {
  const auto reader = SnapshotReader::from_file(temp_path("does_not_exist.dcsnap"));
  ASSERT_FALSE(reader.is_ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotFormat, WriteFileIsAtomicAndVerifies) {
  const std::string path = temp_path("atomic.dcsnap");
  SnapshotWriter writer;
  writer.u64("x", 7);
  ASSERT_TRUE(writer.write_file(path).is_ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "temp file must be renamed away";
  auto reader = SnapshotReader::from_file(path);
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  std::uint64_t x = 0;
  ASSERT_TRUE(reader->u64("x", x).is_ok());
  EXPECT_EQ(x, 7u);
}

TEST(SnapshotFormat, WriteFileFailureLeavesNoDebris) {
  // write_file goes through the fsync-hardened atomic_write_file path
  // (util/fsio.hpp): when the target's directory does not exist, the
  // write must fail without creating the directory, the file, or a stray
  // temp file — a crashed/failed snapshot write can never be mistaken for
  // a valid one.
  const std::string dir = temp_path("no_such_snapshot_dir");
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/chunk.dcsnap";
  SnapshotWriter writer;
  writer.u64("x", 7);
  const Status st = writer.write_file(path);
  ASSERT_FALSE(st.is_ok());
  EXPECT_FALSE(std::filesystem::exists(dir));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(SnapshotFormat, WriteFileOverwriteStaysValid) {
  // Overwriting an existing snapshot is all-or-nothing at the rename: the
  // new bytes must verify end-to-end afterwards.
  const std::string path = temp_path("overwrite.dcsnap");
  SnapshotWriter old_writer;
  old_writer.u64("x", 1);
  ASSERT_TRUE(old_writer.write_file(path).is_ok());
  SnapshotWriter new_writer;
  new_writer.u64("x", 2);
  new_writer.str("extra", "grown");
  ASSERT_TRUE(new_writer.write_file(path).is_ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto reader = SnapshotReader::from_file(path);
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  std::uint64_t x = 0;
  ASSERT_TRUE(reader->u64("x", x).is_ok());
  EXPECT_EQ(x, 2u);
}

TEST(SnapshotFormat, ReadRecordsDecodesTheWholeStream) {
  const std::string path = temp_path("records.dcsnap");
  write_bytes(path, sample_stream());
  auto records = read_records(path);
  ASSERT_TRUE(records.is_ok()) << records.status().to_string();
  ASSERT_FALSE(records->empty());
  bool found = false;
  for (const SnapshotRecord& record : *records) {
    if (record.name == "opened") {
      EXPECT_EQ(record.section, "server.ledger");
      EXPECT_EQ(record.value_text(), "3600");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SnapshotFormat, DiffReportsFirstDivergingField) {
  const std::string golden_path = temp_path("diff_golden.dcsnap");
  const std::string other_path = temp_path("diff_other.dcsnap");
  SnapshotWriter golden;
  golden.begin_section("server");
  golden.u64("owned", 32);
  golden.u64("busy", 4);
  golden.end_section();
  ASSERT_TRUE(golden.write_file(golden_path).is_ok());
  SnapshotWriter other;
  other.begin_section("server");
  other.u64("owned", 32);
  other.u64("busy", 5);
  other.end_section();
  ASSERT_TRUE(other.write_file(other_path).is_ok());

  std::string report;
  auto same = diff_snapshots(golden_path, other_path, &report);
  ASSERT_TRUE(same.is_ok()) << same.status().to_string();
  EXPECT_FALSE(*same);
  EXPECT_NE(report.find("server"), std::string::npos) << report;
  EXPECT_NE(report.find("busy"), std::string::npos) << report;

  report.clear();
  same = diff_snapshots(golden_path, golden_path, &report);
  ASSERT_TRUE(same.is_ok());
  EXPECT_TRUE(*same);
}

TEST(SnapshotFormat, SectionDigestsLocalizeDivergence) {
  const std::string a_path = temp_path("digest_a.dcsnap");
  const std::string b_path = temp_path("digest_b.dcsnap");
  auto make = [](std::uint64_t busy) {
    SnapshotWriter writer;
    writer.begin_section("kernel");
    writer.u64("seq", 10);
    writer.end_section();
    writer.begin_section("server");
    writer.u64("busy", busy);
    writer.end_section();
    return writer;
  };
  ASSERT_TRUE(make(4).write_file(a_path).is_ok());
  ASSERT_TRUE(make(5).write_file(b_path).is_ok());
  auto a = section_digests(a_path);
  auto b = section_digests(b_path);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_EQ(a->size(), 2u);
  ASSERT_EQ(b->size(), 2u);
  EXPECT_EQ((*a)[0].first, "kernel");
  EXPECT_EQ((*a)[0].second, (*b)[0].second) << "untouched section digests match";
  EXPECT_EQ((*a)[1].first, "server");
  EXPECT_NE((*a)[1].second, (*b)[1].second) << "diverged section digest differs";
}

TEST(SnapshotFormat, RollingDigestChangesWithEveryField) {
  SnapshotWriter writer;
  const std::uint64_t d0 = writer.digest();
  writer.u64("a", 1);
  const std::uint64_t d1 = writer.digest();
  writer.u64("b", 2);
  const std::uint64_t d2 = writer.digest();
  EXPECT_NE(d0, d1);
  EXPECT_NE(d1, d2);
}

// The v1 bytes of sample_stream(), pinned as captured from the original
// byte-by-byte encoder. The round-trip tests above compare the writer with
// its own reader; this one fails if the on-disk layout changes at all.
TEST(SnapshotFormat, SampleStreamMatchesPinnedV1Bytes) {
  EXPECT_EQ(to_hex(sample_stream()),
            "4443534e41500d0a" "01000000"                   // magic, version
            "0106006b65726e656c"                            // { kernel
            "030300736571" "2a00000000000000"               //   u64 seq
            "04070062616c616e6365" "f9ffffffffffffff"       //   i64 balance
            "020000"                                        // }
            "010600736572766572"                            // { server
            "050500686f757273" "000000000000f83f"           //   f64 hours
            "06070073746172746564" "01"                     //   bool started
            "0704006e616d65" "03000000" "646574"            //   str name
            "080400626c6f62" "03000000" "007f01"            //   bytes blob
            "0106006c6564676572"                            //   { ledger
            "0406006f70656e6564" "100e000000000000"         //     i64 opened
            "020000"                                        //   }
            "020000"                                        // }
            "04b0aa99e4ddfd26");                            // FNV-1a footer
}

// Thousands of random records of every kind (nested sections, empty
// names, names of the maximum length, empty and large payloads), encoded
// by SnapshotWriter and by the byte-by-byte reference: every byte, the
// rolling digest along the way, and the finished and written streams
// must agree.
TEST(SnapshotFormat, EncoderMatchesByteByByteReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    auto random_bytes = [&rng](std::size_t n) {
      std::string out(n, '\0');
      for (char& c : out) c = static_cast<char>(rng() & 0xff);
      return out;
    };
    auto random_name = [&]() {
      const std::uint64_t roll = rng() % 512;
      if (roll == 0) return random_bytes(kMaxRecordNameBytes);
      if (roll < 40) return std::string();
      return random_bytes(1 + rng() % 24);
    };
    auto random_payload = [&]() {
      const std::uint64_t roll = rng() % 512;
      if (roll == 0) return random_bytes(70000 + rng() % 1000);
      if (roll < 40) return std::string();
      if (roll < 80) return random_bytes(rng() % 4096);
      return random_bytes(rng() % 64);
    };

    SnapshotWriter writer;
    ReferenceWriter reference;
    std::size_t depth = 0;
    for (int i = 0; i < 4000; ++i) {
      const std::string name = random_name();
      switch (rng() % 8) {
        case 0:
          if (depth < 8) {
            writer.begin_section(name);
            reference.record(RecordKind::kSectionBegin, name);
            ++depth;
          }
          break;
        case 1:
          if (depth > 0) {
            writer.end_section();
            reference.record(RecordKind::kSectionEnd, "");
            --depth;
          }
          break;
        case 2: {
          const std::uint64_t v = rng();
          writer.u64(name, v);
          reference.record(RecordKind::kU64, name);
          reference.put(v, 8);
          break;
        }
        case 3: {
          const auto v = static_cast<std::int64_t>(rng());
          writer.i64(name, v);
          reference.record(RecordKind::kI64, name);
          reference.put(static_cast<std::uint64_t>(v), 8);
          break;
        }
        case 4: {
          double v = std::bit_cast<double>(rng());
          if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
          writer.f64(name, v);
          reference.record(RecordKind::kF64, name);
          reference.put(std::bit_cast<std::uint64_t>(v), 8);
          break;
        }
        case 5: {
          const bool v = (rng() & 1) != 0;
          writer.boolean(name, v);
          reference.record(RecordKind::kBool, name);
          reference.put(v ? 1 : 0, 1);
          break;
        }
        case 6: {
          const std::string v = random_payload();
          writer.str(name, v);
          reference.record(RecordKind::kStr, name);
          reference.put(v.size(), 4);
          reference.append(v);
          break;
        }
        default: {
          const std::string v = random_payload();
          writer.bytes(name, v);
          reference.record(RecordKind::kBytes, name);
          reference.put(v.size(), 4);
          reference.append(v);
          break;
        }
      }
      if (i % 97 == 0) {
        ASSERT_EQ(writer.buffer().size(), reference.bytes().size()) << i;
        ASSERT_EQ(writer.digest(), reference.digest()) << i;
      }
    }
    for (; depth > 0; --depth) {
      writer.end_section();
      reference.record(RecordKind::kSectionEnd, "");
    }

    EXPECT_EQ(first_difference(writer.buffer(), reference.bytes()),
              std::string::npos);
    EXPECT_EQ(writer.digest(), reference.digest());
    const std::string finished = writer.finish();
    EXPECT_EQ(first_difference(finished, reference.finish()),
              std::string::npos);
    const std::string path = temp_path("reference.dcsnap");
    ASSERT_TRUE(writer.write_file(path).is_ok());
    auto written = read_file(path);
    ASSERT_TRUE(written.is_ok()) << written.status().to_string();
    EXPECT_EQ(first_difference(*written, finished), std::string::npos);
    EXPECT_TRUE(decode_records(finished).is_ok());
  }
}

// --- Packed columns: LEB128 varints of zigzag deltas ------------------------

/// A finished stream holding one section 'table' with a bytes record
/// 'finish' of `payload`.
std::string column_stream(std::string_view payload) {
  SnapshotWriter writer;
  writer.begin_section("table");
  writer.bytes("finish", payload);
  writer.end_section();
  return writer.finish();
}

/// Reads column_stream's 'finish' as a packed column of `count` values.
Status read_column(const std::string& finished, std::uint64_t count,
                   std::vector<std::int64_t>& out) {
  auto reader = SnapshotReader::from_buffer(finished);
  if (!reader.is_ok()) return reader.status();
  if (Status s = reader->begin_section("table"); !s.is_ok()) return s;
  return reader->column("finish", count, out);
}

/// The payload PackedColumn writes for `values`.
std::string packed(std::initializer_list<std::int64_t> values) {
  PackedColumn column;
  for (const std::int64_t v : values) column.push(v);
  return std::string(column.bytes());
}

TEST(PackedColumn, BytesArePinned) {
  // 0, then +1, -2, +301 and -301 as zigzag varints: 0, 2, 3, 602, 601.
  EXPECT_EQ(to_hex(packed({0, 1, -1, 300, -1})), "00" "02" "03" "da04" "d904");
  // The largest delta takes ten bytes; the tenth holds bit 63 alone.
  EXPECT_EQ(to_hex(packed({std::numeric_limits<std::int64_t>::min()})),
            "ffffffffffffffffff01");
}

TEST(PackedColumn, RoundTripsEveryInt64Sequence) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> values = {0,    kMax, kMin, kMax, -1,   1,
                                      kMin, 0,    kMin, kMin, kMax, 63,
                                      64,   -64,  -65,  8191, 8192};
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const auto word = static_cast<std::int64_t>(rng());
    values.push_back(word >> (rng() % 64));  // every magnitude
  }
  PackedColumn column;
  for (const std::int64_t v : values) column.push(v);
  std::vector<std::int64_t> back;
  const Status st =
      read_column(column_stream(column.bytes()), values.size(), back);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(back, values);
}

TEST(PackedColumn, DeltasPastInt64WrapInsteadOfOverflowing) {
  // INT64_MAX, then a delta of +1: the running value wraps to INT64_MIN
  // in unsigned arithmetic (no signed overflow for UBSan to find).
  std::string payload = "\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01";
  payload += '\x02';
  std::vector<std::int64_t> back;
  const Status st = read_column(column_stream(payload), 2, back);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(back, (std::vector<std::int64_t>{
                      std::numeric_limits<std::int64_t>::max(),
                      std::numeric_limits<std::int64_t>::min()}));
}

TEST(PackedColumn, MalformedColumnsAreTypedErrors) {
  const std::string three = packed({1000, 2000, 3000});  // 2 bytes each
  const std::string eleven(10, '\x80');
  const struct {
    const char* what;
    std::string payload;
    std::uint64_t count;
    const char* names;
  } cases[] = {
      {"one value short", three, 4, "ends after 3"},
      {"one value long", three, 2, "2 bytes follow the last one"},
      {"a count the payload cannot hold", three, std::uint64_t{1} << 62,
       "6 bytes cannot hold them"},
      {"a truncated varint", three.substr(0, 5), 3, "cut short"},
      {"a lone continuation byte", "\x80", 1, "cut short"},
      {"an 11-byte varint", eleven + '\x00', 1, "runs past 10 bytes"},
      {"a tenth byte past bit 63", std::string(9, '\xff') + '\x02', 1,
       "runs past 10 bytes"},
      {"trailing bytes after the last value", packed({5}) + '\x00', 1,
       "1 bytes follow the last one"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    std::vector<std::int64_t> out;
    const Status st = read_column(column_stream(c.payload), c.count, out);
    ASSERT_FALSE(st.is_ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("packed column 'finish'"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find(c.names), std::string::npos) << st.message();
    EXPECT_NE(st.message().find("section 'table'"), std::string::npos)
        << st.message();
  }
}

TEST(VarintReader, ReadsTheLargestVarintAndRefusesPastIt) {
  const std::string payload = std::string(9, '\xff') + '\x01' + '\x00';
  VarintReader reader(payload);
  std::uint64_t value = 0;
  ASSERT_TRUE(reader.next(value).is_ok());
  EXPECT_EQ(value, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(reader.offset(), 10u);
  ASSERT_TRUE(reader.next(value).is_ok());
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(reader.at_end());
  // At the end, a further read is refused and the reader stays put.
  const Status past = reader.next(value);
  EXPECT_EQ(past.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(past.message().find("varint at byte 11"), std::string::npos)
      << past.message();
  EXPECT_EQ(reader.offset(), 11u);
}

}  // namespace
}  // namespace dc::snapshot
