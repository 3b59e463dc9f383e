// Crash-consistent snapshot encoding (see docs/SNAPSHOT.md).
//
// A snapshot is a flat, versioned, checksummed binary stream of *named,
// tagged* records grouped into nested sections — one section per simulation
// component. The format favours auditability over compactness:
//
//  * every scalar field carries its name, and a table is one named record
//    per column (a PackedColumn of varints, below), so a reader can report
//    "section 'server:det' field 'owned_nodes': expected u64, found str"
//    instead of desynchronizing silently;
//  * all record scalars are fixed-width little-endian (doubles are
//    bit-cast through u64), and packed payloads are LEB128 varints, so a
//    snapshot taken on one machine restores bit-exactly on another;
//  * the whole stream is covered by an FNV-1a checksum footer, and files
//    are written atomically (temp file + rename), so a crash mid-write can
//    never yield a file that both exists and passes verification;
//  * two snapshots of the same run at the same instant are byte-comparable
//    record by record — `diff_snapshots` walks both streams in lockstep and
//    reports the first diverging section/field, which is the divergence
//    auditor behind `dawningcloud snapshot-diff`.
//
// Truncation, corruption, bad magic, and version skew are all detected in
// SnapshotReader::from_file and reported through util/status.hpp with
// actionable messages; a malformed snapshot never crashes and never
// restores silently wrong state.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::snapshot {

/// First bytes of every snapshot file.
inline constexpr char kMagic[8] = {'D', 'C', 'S', 'N', 'A', 'P', '\r', '\n'};
/// Encoding version; bump on any incompatible layout change.
inline constexpr std::uint32_t kFormatVersion = 1;
/// Longest record name the format can carry (names are u16-length
/// prefixed). Names built from user input must be checked against it
/// where the input comes in; the writer only asserts it.
inline constexpr std::size_t kMaxRecordNameBytes = 0xffff;

/// Record tags. The payload layout is fixed per kind.
enum class RecordKind : std::uint8_t {
  kSectionBegin = 1,  // no payload
  kSectionEnd = 2,    // no payload, empty name
  kU64 = 3,           // 8 bytes LE
  kI64 = 4,           // 8 bytes LE (two's complement)
  kF64 = 5,           // 8 bytes LE (IEEE-754 bit pattern)
  kBool = 6,          // 1 byte (0/1)
  kStr = 7,           // u32 LE length + bytes
  kBytes = 8,         // u32 LE length + bytes
};

const char* record_kind_name(RecordKind kind);

/// Writes `value` at `p` as sizeof(T) little-endian bytes and returns the
/// byte after them — the scalar layout of every record and payload.
template <typename T>
char* store_le(char* p, T value) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &value, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<char>(value >> (8 * i));
    }
  }
  return p + sizeof(T);
}

/// Reads sizeof(T) little-endian bytes at `p`.
template <typename T>
T load_le(const char* p) {
  static_assert(std::is_unsigned_v<T>);
  T value = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&value, p, sizeof(T));
  } else {
    for (std::size_t i = sizeof(T); i-- > 0;) {
      value = static_cast<T>((value << 8) | static_cast<unsigned char>(p[i]));
    }
  }
  return value;
}

/// Longest LEB128 encoding of a u64: nine 7-bit groups and one 1-bit.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes `value` at `p` as an LEB128 varint — 7 bits a byte, low group
/// first, the high bit set on every byte but the last — and returns the
/// byte after it, at most kMaxVarintBytes on.
inline char* put_varint(char* p, std::uint64_t value) {
  while (value >= 0x80) {
    *p++ = static_cast<char>(value | 0x80);
    value >>= 7;
  }
  *p++ = static_cast<char>(value);
  return p;
}

/// Zigzag mapping of a two's-complement word: 0, -1, 1, -2, ... become
/// 0, 1, 2, 3, ..., so a small value of either sign is a short varint.
constexpr std::uint64_t zigzag(std::uint64_t bits) {
  return (bits << 1) ^ (0 - (bits >> 63));
}
constexpr std::uint64_t unzigzag(std::uint64_t word) {
  return (word >> 1) ^ (0 - (word & 1));
}

/// Bounded LEB128 reader over one payload, which it views and does not
/// copy: every call yields a value or an invalid_argument naming the byte
/// offset, and none reads past the payload.
class VarintReader {
 public:
  explicit VarintReader(std::string_view bytes) : bytes_(bytes) {}

  /// The next varint. Refuses one that the payload cuts short and one
  /// that runs past kMaxVarintBytes or 64 bits.
  Status next(std::uint64_t& out);
  /// The next varint as a zigzag difference, added to `value` in wrapping
  /// arithmetic: a PackedColumn's next value after `value`.
  Status next_delta(std::int64_t& value);

  bool at_end() const { return pos_ == bytes_.size(); }
  std::size_t offset() const { return pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// A column of int64 values, each stored as the zigzag varint of its
/// difference from the value before it (the first from 0). Differences
/// wrap, so every int64 sequence round-trips. SnapshotWriter::field_bytes
/// stores one as a `bytes` record; SnapshotReader::read_bytes with a count
/// reads it back.
class PackedColumn {
 public:
  void push(std::int64_t value) {
    const auto bits = static_cast<std::uint64_t>(value);
    char word[kMaxVarintBytes];
    bytes_.append(word, put_varint(word, zigzag(bits - last_)));
    last_ = bits;
  }
  std::string_view bytes() const { return bytes_; }

 private:
  std::string bytes_;
  std::uint64_t last_ = 0;
};

/// Accumulates an encoded snapshot stream in memory; `write_file` appends
/// the checksum footer and writes atomically. Each record grows the buffer
/// once (header, name and payload together) and stores its scalars as
/// whole little-endian words.
class SnapshotWriter {
 public:
  SnapshotWriter();

  void begin_section(std::string_view name);
  void end_section();

  void field_u64(std::string_view name, std::uint64_t value);
  void field_i64(std::string_view name, std::int64_t value);
  void field_f64(std::string_view name, double value);
  void field_bool(std::string_view name, bool value);
  void field_str(std::string_view name, std::string_view value);
  void field_bytes(std::string_view name, const void* data, std::size_t size);
  void field_bytes(std::string_view name, const PackedColumn& column) {
    field_bytes(name, column.bytes().data(), column.bytes().size());
  }
  /// SimTime / SimDuration are i64 seconds; alias kept for readability.
  void field_time(std::string_view name, SimTime value) {
    field_i64(name, value);
  }

  /// The encoded stream so far (header + records, no footer).
  const std::string& buffer() const { return buffer_; }

  /// FNV-1a digest of the stream so far — the rolling state digest the
  /// divergence auditor compares across runs.
  std::uint64_t digest() const;

  /// Finishes the stream (checksum footer) and writes it with one
  /// atomic_write_file call (util/fsio.hpp): the bytes land in
  /// `path + ".tmp"`, are fsync'd, renamed over `path`, and the directory
  /// is fsync'd, so a crash mid-write leaves either the previous complete
  /// file or a `.tmp` that readers ignore.
  Status write_file(const std::string& path) const;

  /// The finished stream (header + records + checksum footer), for tests
  /// and in-memory round trips. One copy of the buffer, sized for the
  /// footer up front; write_file writes exactly these bytes.
  std::string finish() const;

  std::size_t open_sections() const { return depth_; }

 private:
  /// Appends a record header for `name` plus `payload_size` bytes of room,
  /// returning where the payload goes.
  char* append_record(RecordKind kind, std::string_view name,
                      std::size_t payload_size);
  /// A u32-length-prefixed payload record (kStr, kBytes) with room for
  /// `size` payload bytes; returns where they go.
  char* append_sized(RecordKind kind, std::string_view name, std::size_t size);
  std::string buffer_;
  std::size_t depth_ = 0;
};

/// Sequential, name-checked decoder for a verified snapshot stream.
class SnapshotReader {
 public:
  /// Reads and verifies `path`: magic, version, checksum, truncation.
  static StatusOr<SnapshotReader> from_file(const std::string& path);
  /// Verifies an in-memory stream produced by SnapshotWriter::finish().
  static StatusOr<SnapshotReader> from_buffer(std::string buffer);

  Status begin_section(std::string_view name);
  Status end_section();

  Status read_u64(std::string_view name, std::uint64_t& out);
  /// A u64 element count that sizes the list read next. Refuses, before
  /// anything is allocated, a count the rest of the stream cannot hold:
  /// more than one element per 3 bytes, the size of the smallest record.
  /// Restores read a count here before they reserve room for it.
  Status read_count(std::string_view name, std::uint64_t& out);
  Status read_i64(std::string_view name, std::int64_t& out);
  Status read_f64(std::string_view name, double& out);
  Status read_bool(std::string_view name, bool& out);
  Status read_str(std::string_view name, std::string& out);
  Status read_bytes(std::string_view name, std::string& out);
  /// A PackedColumn of exactly `count` values. Refuses, before reserving
  /// room, a count the payload cannot hold (a value takes at least one
  /// byte); then a truncated or overlong varint, a column that ends early,
  /// and bytes after the last value.
  Status read_bytes(std::string_view name, std::uint64_t count,
                    std::vector<std::int64_t>& out);
  Status read_time(std::string_view name, SimTime& out) {
    return read_i64(name, out);
  }

  /// True when the next record closes the current section (or the stream
  /// is exhausted) — for decoding variable-length lists defensively.
  bool at_section_end() const;

  /// "section 'a.b' near offset N" — appended to every error.
  std::string context() const;

 private:
  explicit SnapshotReader(std::string buffer) : buffer_(std::move(buffer)) {}
  Status read_record(RecordKind want, std::string_view name,
                     std::string_view& payload);
  Status error(const std::string& message) const;

  std::string buffer_;
  std::size_t pos_ = 0;
  std::vector<std::string> section_stack_;
};

/// One decoded record, for the divergence auditor and `snapshot-diff`.
struct SnapshotRecord {
  RecordKind kind;
  std::string section;  // dotted path of enclosing sections
  std::string name;
  std::string payload;  // raw payload bytes
  /// Human-readable payload (decoded per kind).
  std::string value_text() const;
};

/// Decodes a verified snapshot file into its full record list.
StatusOr<std::vector<SnapshotRecord>> read_records(const std::string& path);

/// The verify-and-walk core of read_records, operating on an in-memory
/// buffer: checks magic/version/checksum via SnapshotReader, then decodes
/// every tagged record with section balancing. Exposed so the fuzzing
/// harness can drive the decoder without touching the filesystem.
StatusOr<std::vector<SnapshotRecord>> decode_records(std::string buffer);

/// Walks two snapshot files in lockstep and reports the first diverging
/// record (section, field, both values) into `report`. Returns true when
/// the snapshots are identical. Errors (unreadable/corrupt input) come
/// back through the Status.
StatusOr<bool> diff_snapshots(const std::string& golden,
                              const std::string& other, std::string* report);

/// Per-top-level-section FNV-1a digests of a snapshot file — the compact
/// rolling digest form of the divergence audit.
StatusOr<std::vector<std::pair<std::string, std::uint64_t>>> section_digests(
    const std::string& path);

/// FNV-1a 64-bit, the digest used across the snapshot subsystem.
std::uint64_t fnv1a(std::string_view bytes);
/// FNV-1a continued from the state `seed` over `bytes`: fnv1a(a + b) ==
/// fnv1a(b, fnv1a(a)). A finished stream's footer is fnv1a(body), so the
/// digest of the whole stream is fnv1a(footer bytes, footer value).
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed);

}  // namespace dc::snapshot
