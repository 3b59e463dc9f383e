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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.hpp"

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
/// wrap, so every int64 sequence round-trips. `column` on a writer stores
/// one as a `bytes` record; `column` on a reader unpacks it.
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

// One walk per component (docs/SNAPSHOT.md, "One walk per component").
// SnapshotWriter and SnapshotReader spell each record kind the same way,
// so a component writes one `template <class Io> Status persist(Io& io)`
// that names each of its records once: run over a writer it saves, over a
// reader it restores. The writer takes values and never fails; the reader
// takes references and fills them only from a record it has checked.
// Statements for one direction sit in `if constexpr (Io::kSaving)` blocks.
// A const save reaches the walk through a const_cast: the saving walk
// only reads, because every writer member takes its arguments by value.

/// What a SnapshotWriter member returns. A writer never fails, so a walk's
/// `if (auto st = io.u64(...); !st.is_ok()) return st;` folds away when it
/// saves, and `return st` still yields the walk's Status.
struct Written {
  static constexpr bool is_ok() { return true; }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator Status() const { return Status::ok(); }
};

// History (docs/SNAPSHOT.md, "History"). A table whose first rows can no
// longer change (trace events, finished jobs, closed leases) keeps those
// rows in the `history` section that follows `meta`: one chunk per save,
// holding the rows that became final since the save before. A run's
// snapshots share that history, so a save walks and hashes only its new
// chunk and the live sections; every file still holds all of it.

/// A history table's rows, as its walk passes them to `history`.
struct HistoryRows {
  /// Saving: rows [0, end) are final. Restoring: the table's row count,
  /// which its history must not pass.
  std::uint64_t end = 0;
  /// A ring's oldest row still held. Saving skips rows below it that the
  /// history lacks; restoring lets a ring's history skip rows.
  std::uint64_t kept_from = 0;
  bool ring = false;
};

class HistoryCache;

/// Accumulates an encoded snapshot stream in memory; `write_file` appends
/// the checksum footer and writes atomically. Each record grows the buffer
/// once (header, name and payload together) and stores its scalars as
/// whole little-endian words.
class SnapshotWriter {
 public:
  static constexpr bool kSaving = true;
  /// What a walk fills to save a packed column.
  using Column = PackedColumn;

  SnapshotWriter();

  Written begin_section(std::string_view name);
  Written end_section();

  /// Sends history rows to `cache`'s open chunk (null: every row is live).
  void attach_history(HistoryCache* cache) { history_ = cache; }
  /// Writes to the history chunk the rows of table `name` (the current
  /// section's) that became final since the previous save, `rows.end` now:
  /// rows [first, end), where first is where the history ends (for a ring,
  /// no lower than `rows.kept_from`). `body(writer, first, end)` writes
  /// their records. Sets `in_history` to the rows the history then holds,
  /// 0 with no history attached; the walk writes the rest as live rows.
  template <class Body>
  Status history(std::string_view name, const HistoryRows& rows,
                 std::uint64_t& in_history, Body&& body);
  /// The instant of the history chunk being written; 0 with no history.
  std::int64_t history_boundary() const;
  /// The `history` section of a save that keeps no history: empty.
  Written history_section() {
    begin_section("history");
    return end_section();
  }

  Written u64(std::string_view name, std::uint64_t value) {
    store_le(append_record(RecordKind::kU64, name, 8), value);
    return {};
  }
  Written i64(std::string_view name, std::int64_t value) {
    store_le(append_record(RecordKind::kI64, name, 8),
             static_cast<std::uint64_t>(value));
    return {};
  }
  Written f64(std::string_view name, double value) {
    store_le(append_record(RecordKind::kF64, name, 8),
             std::bit_cast<std::uint64_t>(value));
    return {};
  }
  Written boolean(std::string_view name, bool value) {
    *append_record(RecordKind::kBool, name, 1) = value ? 1 : 0;
    return {};
  }
  Written str(std::string_view name, std::string_view value) {
    append_sized(RecordKind::kStr, name, value);
    return {};
  }
  Written bytes(std::string_view name, std::string_view value) {
    append_sized(RecordKind::kBytes, name, value);
    return {};
  }
  /// A list's element count: a u64 record.
  Written count(std::string_view name, std::uint64_t value) {
    return u64(name, value);
  }
  /// A packed column of `count` values as one `bytes` record.
  Written column(std::string_view name, std::uint64_t count,
                 const PackedColumn& column) {
    return bytes(name, column.bytes());
  }

  /// `body`'s records inside section `name`.
  template <class Body>
  Status section(std::string_view name, Body&& body) {
    begin_section(name);
    if (Status st = part(body); !st.is_ok()) return st;
    end_section();
    return Status::ok();
  }
  /// The records of `body`: a callable returning Status, or a component,
  /// whose save() writes them.
  template <class Body>
  Status part(Body& body) {
    if constexpr (std::is_invocable_v<Body&>) {
      return body();
    } else {
      return body.save(*this);
    }
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

 private:
  friend class HistoryCache;
  /// Appends a record header for `name` plus `payload_size` bytes of room,
  /// returning where the payload goes.
  char* append_record(RecordKind kind, std::string_view name,
                      std::size_t payload_size);
  /// A u32-length-prefixed payload record (kStr, kBytes).
  void append_sized(RecordKind kind, std::string_view name,
                    std::string_view payload);
  std::string buffer_;
  /// Dotted path of the open sections, and its length before each.
  std::string path_;
  std::vector<std::size_t> path_marks_;
  HistoryCache* history_ = nullptr;
};

/// Sequential, name-checked decoder for a verified snapshot stream.
class SnapshotReader {
 public:
  static constexpr bool kSaving = false;
  /// What a walk reads a packed column into.
  using Column = std::vector<std::int64_t>;

  /// Reads and verifies `path`: magic, version, checksum, truncation.
  static StatusOr<SnapshotReader> from_file(const std::string& path);
  /// Verifies an in-memory stream produced by SnapshotWriter::finish().
  static StatusOr<SnapshotReader> from_buffer(std::string buffer);

  Status begin_section(std::string_view name);
  Status end_section();

  /// An integer record into `out`, which may be any integer type: a value
  /// that does not fit it is refused.
  template <class T>
  Status u64(std::string_view name, T& out) {
    std::uint64_t value = 0;
    if (Status st = read_word(RecordKind::kU64, name, value); !st.is_ok()) {
      return st;
    }
    return narrow(name, value, out);
  }
  template <class T>
  Status i64(std::string_view name, T& out) {
    std::uint64_t word = 0;
    if (Status st = read_word(RecordKind::kI64, name, word); !st.is_ok()) {
      return st;
    }
    return narrow(name, static_cast<std::int64_t>(word), out);
  }
  Status f64(std::string_view name, double& out);
  Status boolean(std::string_view name, bool& out);
  Status str(std::string_view name, std::string& out);
  /// A bytes record's payload, viewed in place: valid while the reader is.
  Status bytes(std::string_view name, std::string_view& out);
  /// A u64 element count that sizes the list read next. Refuses, before
  /// anything is allocated, a count the rest of the stream cannot hold:
  /// more than one element per 3 bytes, the size of the smallest record.
  Status count(std::string_view name, std::uint64_t& out);
  /// Refuses, as `count` does, a table of `count` rows whose rows after
  /// the first `in_history` the rest of the stream cannot hold.
  Status check_live_rows(std::string_view name, std::uint64_t count,
                         std::uint64_t in_history) const;
  /// A PackedColumn of exactly `count` values. Refuses, before reserving
  /// room, a count the payload cannot hold (a value takes at least one
  /// byte); then a truncated or overlong varint, a column that ends early,
  /// and bytes after the last value.
  Status column(std::string_view name, std::uint64_t count,
                std::vector<std::int64_t>& out);

  /// `body`'s records inside section `name`.
  template <class Body>
  Status section(std::string_view name, Body&& body) {
    if (Status st = begin_section(name); !st.is_ok()) return st;
    if (Status st = part(body); !st.is_ok()) return st;
    return end_section();
  }
  /// The records of `body`: a callable returning Status, or a component,
  /// whose restore() reads them.
  template <class Body>
  Status part(Body& body) {
    if constexpr (std::is_invocable_v<Body&>) {
      return body();
    } else {
      return body.restore(*this);
    }
  }

  /// Reads the `history` section: checks that its chunks' boundaries
  /// rise strictly and indexes each chunk's records by table, for
  /// `history` to apply as the live walk reaches each table.
  Status history_section();
  /// Applies table `name`'s history (the current section's), oldest chunk
  /// first: `body(reader, first, end)` reads each chunk's rows. Refuses,
  /// naming the chunk and the record, a chunk whose rows do not start
  /// where the chunks before it end (a ring's may skip rows) or pass
  /// `rows.end`, and records after a chunk's last row. Sets `in_history`
  /// to where the history ends, 0 without one.
  template <class Body>
  Status history(std::string_view name, const HistoryRows& rows,
                 std::uint64_t& in_history, Body&& body);
  /// Refuses history that no table applied (an unknown section or
  /// record), naming its chunk and record. Call after the live walk.
  Status finish_history() const;
  /// The boundary of the last history chunk, if any.
  std::optional<std::int64_t> last_history_boundary() const {
    return last_boundary_;
  }

  /// "section 'a.b' near offset N" — appended to every error. Inside a
  /// history chunk: "history chunk K (t=T) record 'a.b.rows' near offset N".
  std::string context() const;

 private:
  friend class HistoryCache;
  /// One chunk's rows of a history table: where its records lie.
  struct HistoryEntry {
    std::size_t chunk = 0;  // 1-based, in file order
    std::int64_t boundary = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  /// A history table: its entries, and once applied, where it ends and
  /// how many rows its entries hold.
  struct HistoryTableState {
    std::vector<HistoryEntry> entries;
    bool applied = false;
    std::uint64_t end = 0;
    std::uint64_t stored = 0;
  };

  explicit SnapshotReader(std::string buffer)
      : buffer_(std::move(buffer)), end_(buffer_.size()) {}
  Status read_record(RecordKind want, std::string_view name,
                     std::string_view& payload);
  /// The kind and name of the next record, without reading it.
  Status peek(RecordKind& kind, std::string_view& name) const;
  /// Skips the next record, and when it begins a section, the whole
  /// section up to and with its end.
  Status skip();
  /// "history chunk K (t=T) record 'key'".
  static std::string entry_name(const HistoryEntry& entry,
                                const std::string& key);
  /// The history key of table `name` in the current section.
  std::string history_key(std::string_view name) const;
  /// The 8-byte payload of a u64 or i64 record.
  Status read_word(RecordKind want, std::string_view name,
                   std::uint64_t& out);
  template <class T, class V>
  Status narrow(std::string_view name, V value, T& out) {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    if (!std::in_range<T>(value)) {
      return error("field '" + std::string(name) + "' holds " +
                   std::to_string(value) + ", which its type cannot hold");
    }
    out = static_cast<T>(value);
    return Status::ok();
  }
  Status error(const std::string& message) const;

  std::string buffer_;
  std::size_t pos_ = 0;
  /// Where the records being read end: the footer, or a history entry's
  /// end while `window_` names it.
  std::size_t end_ = 0;
  std::string window_;
  std::vector<std::string> section_stack_;
  std::map<std::string, HistoryTableState, std::less<>> history_;
  /// Offset of the history section's end record: a resumed run's history
  /// continues from the stream before it.
  std::size_t history_end_ = 0;
  std::optional<std::int64_t> last_boundary_;
};

/// The history a run's snapshots share, kept between saves by the runner
/// that writes them (docs/SNAPSHOT.md, "History"): the stream up to the
/// end of the last chunk, its FNV-1a state, and per history table where
/// its rows end and how many the chunks hold.
class HistoryCache {
 public:
  HistoryCache() { reset(); }
  bool empty() const { return stream_.buffer_.empty(); }
  /// Starts a history after `head`'s records (the run constants): its
  /// header and records become the start of every later stream.
  void start(SnapshotWriter head);
  /// Opens the chunk of a save at `boundary` and attaches `live` to it. A
  /// save at the last chunk's instant opens none: no row can have become
  /// final since.
  void open_chunk(std::int64_t boundary, SnapshotWriter& live);
  /// Whether a ring asked to start the history afresh (its history holds
  /// as many rows it has dropped as rows it keeps).
  bool rebase_requested() const { return rebase_; }
  /// Forgets the history; the next save starts it again.
  void reset();
  /// Writes, with one atomic_write_file call, the stream of the save that
  /// `live` holds the live records of: this history, its `history`
  /// section closed, `live`'s records and the checksum footer. Hashes
  /// only the bytes the previous write did not.
  Status write_file(const std::string& path, const SnapshotWriter& live);
  /// Continues the history of the stream `reader` restored from, taking
  /// over the reader's bytes: the reader reads nothing after it.
  void seed(SnapshotReader& reader);

 private:
  friend class SnapshotWriter;
  struct Table {
    std::uint64_t end = 0;
    std::uint64_t stored = 0;
  };
  /// Header, run constants, and the `history` section's begin record and
  /// chunks; inside the open chunk between open_chunk and write_file.
  SnapshotWriter stream_;
  std::size_t hashed_ = 0;  // bytes of stream_ that hash_ covers
  std::uint64_t hash_ = 0;
  std::map<std::string, Table, std::less<>> tables_;
  std::optional<std::int64_t> last_boundary_;
  bool chunk_open_ = false;
  bool rebase_ = false;
};

template <class Body>
Status SnapshotWriter::history(std::string_view name, const HistoryRows& rows,
                               std::uint64_t& in_history, Body&& body) {
  in_history = 0;
  if (history_ == nullptr) return Status::ok();
  std::string key = path_;
  key.append(".").append(name);
  auto it = history_->tables_.find(key);
  if (it == history_->tables_.end()) {
    it = history_->tables_.emplace(std::move(key), HistoryCache::Table{}).first;
  }
  HistoryCache::Table& table = it->second;
  const std::uint64_t first = std::max(table.end, rows.kept_from);
  if (rows.end < first) {
    return Status::internal("snapshot: history record '" + it->first +
                            "' holds rows up to " + std::to_string(first) +
                            " but only " + std::to_string(rows.end) +
                            " are final");
  }
  if (rows.end > first) {
    if (!history_->chunk_open_) {
      return Status::internal("snapshot: rows of '" + it->first +
                              "' became final at the instant of the last "
                              "history chunk");
    }
    SnapshotWriter& chunk = history_->stream_;
    chunk.begin_section(it->first);
    chunk.u64("first", first);
    chunk.u64("rows", rows.end - first);
    if (Status st = body(chunk, first, rows.end); !st.is_ok()) return st;
    chunk.end_section();
    table.stored += rows.end - first;
    table.end = rows.end;
  }
  // A ring holds only its last rows: once the rows its history holds that
  // it has dropped make up half of them, the history starts afresh.
  const std::uint64_t kept = table.end - std::min(table.end, rows.kept_from);
  if (rows.ring && table.stored > kept &&
      2 * (table.stored - kept) >= table.stored) {
    history_->rebase_ = true;
  }
  in_history = table.end;
  return Status::ok();
}

template <class Body>
Status SnapshotReader::history(std::string_view name, const HistoryRows& rows,
                               std::uint64_t& in_history, Body&& body) {
  in_history = 0;
  if (history_.empty()) return Status::ok();
  const std::string key = history_key(name);
  auto it = history_.find(key);
  if (it == history_.end()) return Status::ok();
  HistoryTableState& table = it->second;
  table.applied = true;
  for (const HistoryEntry& entry : table.entries) {
    // Read the entry's records as the window [entry.begin, entry.end),
    // named for errors by its chunk and record; the reader's place in the
    // live walk comes back however the entry ends.
    struct Window {
      SnapshotReader& reader;
      std::size_t pos, end;
      std::string window;
      std::vector<std::string> stack;
      ~Window() {
        reader.pos_ = pos;
        reader.end_ = end;
        reader.window_ = std::move(window);
        reader.section_stack_ = std::move(stack);
      }
    } restore{*this, pos_, end_, std::move(window_),
              std::move(section_stack_)};
    pos_ = entry.begin;
    end_ = entry.end;
    window_ = entry_name(entry, key);
    section_stack_.clear();
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    if (Status st = u64("first", first); !st.is_ok()) return st;
    // Every history row takes at least one record's 3 bytes (or three
    // packed values), so a row count the entry cannot hold is refused
    // before a table is sized to it.
    if (Status st = this->count("rows", count); !st.is_ok()) return st;
    if (first < in_history || (!rows.ring && first != in_history)) {
      return error("rows start at row " + std::to_string(first) +
                   ", but the chunks before end at row " +
                   std::to_string(in_history) +
                   (first < in_history
                        ? " — chunks out of boundary order or repeated"
                        : " — a chunk is missing"));
    }
    if (first > rows.end || count > rows.end - first) {
      return error("rows [" + std::to_string(first) + ", " +
                   std::to_string(first + count) + ") overrun the table's " +
                   std::to_string(rows.end) + " rows");
    }
    if (Status st = body(*this, first, first + count); !st.is_ok()) {
      return st;
    }
    if (pos_ != end_) {
      return error(std::to_string(end_ - pos_) +
                   " bytes of records follow its last row");
    }
    in_history = first + count;
    table.stored += count;
  }
  table.end = in_history;
  return Status::ok();
}

/// A list: its element count as the record `count_name`, then
/// `element(item)` for each item. Restoring reads the count with
/// SnapshotReader::count, so a count the stream cannot hold is refused
/// before `items` is resized to it.
template <class Io, class Items, class Element>
Status list(Io& io, std::string_view count_name, Items& items,
            Element&& element) {
  std::uint64_t count = items.size();
  if (Status st = io.count(count_name, count); !st.is_ok()) return st;
  if constexpr (!Io::kSaving) {
    items.clear();
    items.resize(count);
  }
  for (auto& item : items) {
    if (Status st = element(item); !st.is_ok()) return st;
  }
  return Status::ok();
}

/// A table whose first rows may be history: its row count as the record
/// `count_name`, then its history (table `name`, rows [0, final_rows)
/// final when saving), then the rows after the history as live records.
/// `rows(io, first, end)` walks rows [first, end), over a history chunk
/// and then over `io`; restoring, it appends them to the table. The count
/// is checked like a list's: live rows the stream cannot hold are refused
/// before any is read.
template <class Io, class Rows>
Status table(Io& io, std::string_view count_name, std::string_view name,
             std::uint64_t& count, std::uint64_t final_rows, Rows&& rows) {
  if (Status st = io.u64(count_name, count); !st.is_ok()) return st;
  const HistoryRows history{Io::kSaving ? final_rows : count};
  std::uint64_t in_history = 0;
  if (Status st = io.history(name, history, in_history, rows); !st.is_ok()) {
    return st;
  }
  if constexpr (!Io::kSaving) {
    if (Status st = io.check_live_rows(count_name, count, in_history);
        !st.is_ok()) {
      return st;
    }
  }
  return rows(io, in_history, count);
}

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
