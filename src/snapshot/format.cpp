#include "snapshot/format.hpp"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "util/fsio.hpp"
#include "util/strings.hpp"

namespace dc::snapshot {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::size_t kHeaderBytes = sizeof(kMagic) + sizeof(kFormatVersion);
constexpr std::size_t kFooterBytes = sizeof(std::uint64_t);

/// Record tag plus u16 name length.
constexpr std::size_t kRecordHeaderBytes = 3;

/// memcpy that accepts (nullptr, 0); returns the byte after the copy.
char* put_bytes(char* p, const void* data, std::size_t size) {
  if (size != 0) std::memcpy(p, data, size);
  return p + size;
}

bool known_kind(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(RecordKind::kSectionBegin) &&
         raw <= static_cast<std::uint8_t>(RecordKind::kBytes);
}

std::string joined_path(const std::vector<std::string>& stack) {
  std::string path;
  for (const auto& part : stack) {
    if (!path.empty()) path += '.';
    path += part;
  }
  return path;
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a(std::string_view bytes) {
  return fnv1a(bytes, kFnvOffset);
}

const char* record_kind_name(RecordKind kind) {
  switch (kind) {
    case RecordKind::kSectionBegin: return "section-begin";
    case RecordKind::kSectionEnd: return "section-end";
    case RecordKind::kU64: return "u64";
    case RecordKind::kI64: return "i64";
    case RecordKind::kF64: return "f64";
    case RecordKind::kBool: return "bool";
    case RecordKind::kStr: return "str";
    case RecordKind::kBytes: return "bytes";
  }
  return "unknown";
}

SnapshotWriter::SnapshotWriter() {
  buffer_.resize(kHeaderBytes);
  std::memcpy(buffer_.data(), kMagic, sizeof(kMagic));
  store_le(buffer_.data() + sizeof(kMagic), kFormatVersion);
}

char* SnapshotWriter::append_record(RecordKind kind, std::string_view name,
                                    std::size_t payload_size) {
  assert(name.size() <= kMaxRecordNameBytes && "snapshot field name too long");
  const std::size_t at = buffer_.size();
  buffer_.resize(at + kRecordHeaderBytes + name.size() + payload_size);
  char* p = buffer_.data() + at;
  *p++ = static_cast<char>(kind);
  p = store_le(p, static_cast<std::uint16_t>(name.size()));
  return put_bytes(p, name.data(), name.size());
}

void SnapshotWriter::append_sized(RecordKind kind, std::string_view name,
                                  std::string_view payload) {
  assert(payload.size() <= 0xffffffffULL);
  char* p = append_record(kind, name, sizeof(std::uint32_t) + payload.size());
  p = store_le(p, static_cast<std::uint32_t>(payload.size()));
  put_bytes(p, payload.data(), payload.size());
}

Written SnapshotWriter::begin_section(std::string_view name) {
  append_record(RecordKind::kSectionBegin, name, 0);
  path_marks_.push_back(path_.size());
  if (!path_.empty()) path_ += '.';
  path_ += name;
  return {};
}

Written SnapshotWriter::end_section() {
  assert(!path_marks_.empty() && "end_section without matching begin_section");
  append_record(RecordKind::kSectionEnd, "", 0);
  path_.resize(path_marks_.back());
  path_marks_.pop_back();
  return {};
}

std::uint64_t SnapshotWriter::digest() const { return fnv1a(buffer_); }

std::string SnapshotWriter::finish() const {
  assert(path_marks_.empty() && "unbalanced sections at snapshot finish");
  std::string out;
  out.reserve(buffer_.size() + kFooterBytes);
  out.append(buffer_);
  out.resize(buffer_.size() + kFooterBytes);
  store_le(out.data() + buffer_.size(), fnv1a(buffer_));
  return out;
}

Status SnapshotWriter::write_file(const std::string& path) const {
  // Durability is delegated to atomic_write_file (util/fsio.hpp): the temp
  // file is fsync'd before the rename and the directory after, and every
  // failure path unlinks the temp file — a crash mid-write leaves either
  // the previous complete snapshot or nothing, never a partial file and
  // never a stale '.tmp'.
  if (Status st = atomic_write_file(path, finish(), "snapshot.save");
      !st.is_ok()) {
    return Status::internal("snapshot: " + st.message());
  }
  return Status::ok();
}

namespace {

/// Magic, version and checksum of a whole stream, footer included.
Status verify_stream(std::string_view stream) {
  if (stream.size() < kHeaderBytes + kFooterBytes) {
    return Status::invalid_argument(str_format(
        "snapshot: stream is %zu bytes, smaller than the %zu-byte "
        "header+checksum — truncated or not a snapshot",
        stream.size(), kHeaderBytes + kFooterBytes));
  }
  if (std::memcmp(stream.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::invalid_argument(
        "snapshot: bad magic — not a DCSNAP snapshot stream");
  }
  const auto version = load_le<std::uint32_t>(stream.data() + sizeof(kMagic));
  if (version != kFormatVersion) {
    return Status::failed_precondition(str_format(
        "snapshot: format version %u, but this build reads version %u — "
        "re-run the experiment from scratch or use a matching build",
        version, kFormatVersion));
  }
  const std::string_view body = stream.substr(0, stream.size() - kFooterBytes);
  const auto want = load_le<std::uint64_t>(body.data() + body.size());
  const std::uint64_t got = fnv1a(body);
  if (want != got) {
    return Status::invalid_argument(str_format(
        "snapshot: checksum mismatch (stored %016llx, computed %016llx) — "
        "the file is corrupt or was truncated mid-write",
        static_cast<unsigned long long>(want),
        static_cast<unsigned long long>(got)));
  }
  return Status::ok();
}

/// The whole of `path` in one sized read (util/fsio read_file).
StatusOr<std::string> read_stream(const std::string& path) {
  auto bytes = read_file(path);
  if (bytes.is_ok()) return bytes;
  if (bytes.status().code() == StatusCode::kNotFound) {
    return Status::not_found("snapshot: cannot open '" + path + "'");
  }
  return Status(bytes.status().code(),
                "snapshot: " + bytes.status().message());
}

}  // namespace

StatusOr<SnapshotReader> SnapshotReader::from_buffer(std::string buffer) {
  if (Status st = verify_stream(buffer); !st.is_ok()) return st;
  SnapshotReader reader(std::move(buffer));
  reader.pos_ = kHeaderBytes;
  // Hide the footer from record decoding.
  reader.buffer_.resize(reader.buffer_.size() - kFooterBytes);
  reader.end_ = reader.buffer_.size();
  return reader;
}

StatusOr<SnapshotReader> SnapshotReader::from_file(const std::string& path) {
  auto bytes = read_stream(path);
  if (!bytes.is_ok()) return bytes.status();
  auto reader = from_buffer(std::move(*bytes));
  if (!reader.is_ok()) {
    return Status(reader.status().code(),
                  "'" + path + "': " + reader.status().message());
  }
  return reader;
}

std::string SnapshotReader::context() const {
  if (!window_.empty()) {
    std::string path = joined_path(section_stack_);
    return str_format("%s%s%s near offset %zu", window_.c_str(),
                      path.empty() ? "" : " section ", path.c_str(), pos_);
  }
  return str_format("section '%s' near offset %zu",
                    joined_path(section_stack_).c_str(), pos_);
}

Status SnapshotReader::error(const std::string& message) const {
  return Status::invalid_argument("snapshot: " + message + " (" + context() +
                                  ")");
}

Status SnapshotReader::read_record(RecordKind want, std::string_view name,
                                   std::string_view& payload) {
  if (pos_ + 3 > end_) {
    return error(str_format("stream truncated while expecting field '%.*s'",
                            static_cast<int>(name.size()), name.data()));
  }
  const std::uint8_t raw = static_cast<unsigned char>(buffer_[pos_]);
  if (!known_kind(raw)) {
    return error(str_format("unknown record tag %u while expecting field "
                            "'%.*s' — corrupt stream",
                            raw, static_cast<int>(name.size()), name.data()));
  }
  const auto kind = static_cast<RecordKind>(raw);
  const auto name_len = load_le<std::uint16_t>(buffer_.data() + pos_ + 1);
  std::size_t cursor = pos_ + 3;
  if (cursor + name_len > end_) {
    return error("stream truncated inside a field name");
  }
  const std::string_view found_name(buffer_.data() + cursor, name_len);
  cursor += name_len;

  std::size_t payload_len = 0;
  switch (kind) {
    case RecordKind::kSectionBegin:
    case RecordKind::kSectionEnd:
      payload_len = 0;
      break;
    case RecordKind::kU64:
    case RecordKind::kI64:
    case RecordKind::kF64:
      payload_len = 8;
      break;
    case RecordKind::kBool:
      payload_len = 1;
      break;
    case RecordKind::kStr:
    case RecordKind::kBytes: {
      if (cursor + 4 > end_) {
        return error("stream truncated inside a length prefix");
      }
      payload_len = load_le<std::uint32_t>(buffer_.data() + cursor);
      cursor += 4;
      break;
    }
  }
  if (cursor + payload_len > end_) {
    return error(str_format("stream truncated inside field '%.*s' payload",
                            static_cast<int>(found_name.size()),
                            found_name.data()));
  }
  if (kind != want) {
    return error(str_format(
        "expected %s field '%.*s', found %s '%.*s' — the snapshot's record "
        "list has drifted from this build's",
        record_kind_name(want), static_cast<int>(name.size()), name.data(),
        record_kind_name(kind), static_cast<int>(found_name.size()),
        found_name.data()));
  }
  if (found_name != name && want != RecordKind::kSectionEnd) {
    return error(str_format(
        "expected field '%.*s', found '%.*s' — the snapshot's record list "
        "has drifted from this build's",
        static_cast<int>(name.size()), name.data(),
        static_cast<int>(found_name.size()), found_name.data()));
  }
  payload = std::string_view(buffer_.data() + cursor, payload_len);
  pos_ = cursor + payload_len;
  return Status::ok();
}

Status SnapshotReader::begin_section(std::string_view name) {
  std::string_view payload;
  auto st = read_record(RecordKind::kSectionBegin, name, payload);
  if (!st.is_ok()) return st;
  section_stack_.emplace_back(name);
  return Status::ok();
}

Status SnapshotReader::end_section() {
  if (section_stack_.empty()) {
    return error("end_section with no section open");
  }
  std::string_view payload;
  auto st = read_record(RecordKind::kSectionEnd, "", payload);
  if (!st.is_ok()) return st;
  section_stack_.pop_back();
  return Status::ok();
}

Status SnapshotReader::read_word(RecordKind want, std::string_view name,
                                 std::uint64_t& out) {
  std::string_view payload;
  auto st = read_record(want, name, payload);
  if (!st.is_ok()) return st;
  out = load_le<std::uint64_t>(payload.data());
  return Status::ok();
}

Status SnapshotReader::count(std::string_view name, std::uint64_t& out) {
  if (auto st = read_word(RecordKind::kU64, name, out); !st.is_ok()) return st;
  return check_live_rows(name, out, 0);
}

Status SnapshotReader::check_live_rows(std::string_view name,
                                       std::uint64_t count,
                                       std::uint64_t in_history) const {
  const std::size_t remaining = end_ - pos_;
  if (count - in_history > remaining / kRecordHeaderBytes) {
    return error(str_format(
        "count '%.*s' of %llu%s is more than the %zu records the remaining "
        "%zu bytes can hold — corrupt stream",
        static_cast<int>(name.size()), name.data(),
        static_cast<unsigned long long>(count),
        in_history == 0
            ? ""
            : str_format(" (%llu after its history)",
                         static_cast<unsigned long long>(count - in_history))
                  .c_str(),
        remaining / kRecordHeaderBytes, remaining));
  }
  return Status::ok();
}

Status SnapshotReader::f64(std::string_view name, double& out) {
  std::string_view payload;
  auto st = read_record(RecordKind::kF64, name, payload);
  if (!st.is_ok()) return st;
  out = std::bit_cast<double>(load_le<std::uint64_t>(payload.data()));
  return Status::ok();
}

Status SnapshotReader::boolean(std::string_view name, bool& out) {
  std::string_view payload;
  auto st = read_record(RecordKind::kBool, name, payload);
  if (!st.is_ok()) return st;
  const std::uint8_t raw = static_cast<unsigned char>(payload[0]);
  if (raw > 1) {
    return error(str_format("bool field '%.*s' holds %u",
                            static_cast<int>(name.size()), name.data(), raw));
  }
  out = raw != 0;
  return Status::ok();
}

Status SnapshotReader::str(std::string_view name, std::string& out) {
  std::string_view payload;
  auto st = read_record(RecordKind::kStr, name, payload);
  if (!st.is_ok()) return st;
  out.assign(payload.data(), payload.size());
  return Status::ok();
}

Status SnapshotReader::bytes(std::string_view name, std::string_view& out) {
  return read_record(RecordKind::kBytes, name, out);
}

Status SnapshotReader::column(std::string_view name, std::uint64_t count,
                              std::vector<std::int64_t>& out) {
  std::string_view payload;
  auto st = read_record(RecordKind::kBytes, name, payload);
  if (!st.is_ok()) return st;
  const auto column_error = [&](const std::string& what) {
    return error(str_format("packed column '%.*s' of %llu values: %s",
                            static_cast<int>(name.size()), name.data(),
                            static_cast<unsigned long long>(count),
                            what.c_str()));
  };
  if (count > payload.size()) {
    return column_error(str_format("%zu bytes cannot hold them",
                                   payload.size()));
  }
  out.clear();
  out.reserve(count);
  VarintReader varints(payload);
  std::int64_t value = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (varints.at_end()) {
      return column_error(str_format("ends after %llu",
                                     static_cast<unsigned long long>(i)));
    }
    if (Status s = varints.next_delta(value); !s.is_ok()) {
      return column_error(s.message());
    }
    out.push_back(value);
  }
  if (!varints.at_end()) {
    return column_error(str_format("%zu bytes follow the last one",
                                   payload.size() - varints.offset()));
  }
  return Status::ok();
}

Status SnapshotReader::peek(RecordKind& kind, std::string_view& name) const {
  if (pos_ + 3 > end_) return error("stream truncated before a record");
  const std::uint8_t raw = static_cast<unsigned char>(buffer_[pos_]);
  if (!known_kind(raw)) {
    return error(str_format("unknown record tag %u — corrupt stream", raw));
  }
  const auto name_len = load_le<std::uint16_t>(buffer_.data() + pos_ + 1);
  if (pos_ + 3 + name_len > end_) {
    return error("stream truncated inside a field name");
  }
  kind = static_cast<RecordKind>(raw);
  name = std::string_view(buffer_.data() + pos_ + 3, name_len);
  return Status::ok();
}

Status SnapshotReader::skip() {
  std::size_t depth = 0;
  do {
    RecordKind kind{};
    std::string_view name;
    if (Status st = peek(kind, name); !st.is_ok()) return st;
    std::string_view payload;
    if (Status st = read_record(kind, name, payload); !st.is_ok()) return st;
    if (kind == RecordKind::kSectionBegin) ++depth;
    if (kind == RecordKind::kSectionEnd) {
      if (depth == 0) return error("section end with no section open");
      --depth;
    }
  } while (depth > 0);
  return Status::ok();
}

Status SnapshotReader::history_section() {
  if (Status st = begin_section("history"); !st.is_ok()) return st;
  std::size_t chunk = 0;
  RecordKind kind{};
  std::string_view name;
  while (true) {
    if (Status st = peek(kind, name); !st.is_ok()) return st;
    if (kind != RecordKind::kSectionBegin) break;
    if (Status st = begin_section("chunk"); !st.is_ok()) return st;
    ++chunk;
    std::int64_t boundary = 0;
    if (Status st = i64("boundary", boundary); !st.is_ok()) return st;
    if (last_boundary_ && boundary <= *last_boundary_) {
      return error(str_format(
          "history chunk %zu (t=%lld) does not follow chunk %zu (t=%lld) — "
          "chunks out of boundary order or repeated",
          chunk, static_cast<long long>(boundary), chunk - 1,
          static_cast<long long>(*last_boundary_)));
    }
    last_boundary_ = boundary;
    while (true) {
      if (Status st = peek(kind, name); !st.is_ok()) return st;
      if (kind != RecordKind::kSectionBegin) break;
      HistoryEntry entry;
      entry.chunk = chunk;
      entry.boundary = boundary;
      const std::string key(name);
      const std::size_t at = pos_;
      if (Status st = skip(); !st.is_ok()) return st;
      entry.begin = at + kRecordHeaderBytes + key.size();
      entry.end = pos_ - kRecordHeaderBytes;  // the section's end record
      history_[key].entries.push_back(entry);
    }
    if (Status st = end_section(); !st.is_ok()) return st;
  }
  history_end_ = pos_;
  return end_section();
}

Status SnapshotReader::finish_history() const {
  for (const auto& [key, table] : history_) {
    if (table.applied) continue;
    return Status::invalid_argument(
        "snapshot: " + entry_name(table.entries.front(), key) +
        " belongs to no table of this build — the snapshot's record list "
        "has drifted from this build's");
  }
  return Status::ok();
}

std::string SnapshotReader::entry_name(const HistoryEntry& entry,
                                       const std::string& key) {
  return str_format("history chunk %zu (t=%lld) record '%s'", entry.chunk,
                    static_cast<long long>(entry.boundary), key.c_str());
}

std::string SnapshotReader::history_key(std::string_view name) const {
  std::string key = joined_path(section_stack_);
  key.append(".").append(name);
  return key;
}

std::int64_t SnapshotWriter::history_boundary() const {
  return history_ != nullptr ? history_->last_boundary_.value_or(0) : 0;
}

void HistoryCache::start(SnapshotWriter head) {
  reset();
  stream_ = std::move(head);
  stream_.begin_section("history");
}

void HistoryCache::reset() {
  stream_ = SnapshotWriter();
  stream_.buffer_.clear();
  hashed_ = 0;
  hash_ = kFnvOffset;
  tables_.clear();
  last_boundary_.reset();
  chunk_open_ = false;
  rebase_ = false;
}

void HistoryCache::open_chunk(std::int64_t boundary, SnapshotWriter& live) {
  rebase_ = false;
  live.attach_history(this);
  chunk_open_ = last_boundary_ != boundary;
  if (!chunk_open_) return;
  stream_.begin_section("chunk");
  stream_.i64("boundary", boundary);
  last_boundary_ = boundary;
}

Status HistoryCache::write_file(const std::string& path,
                                const SnapshotWriter& live) {
  if (chunk_open_) {
    stream_.end_section();
    chunk_open_ = false;
  }
  std::string& stream = stream_.buffer_;
  hash_ = fnv1a(std::string_view(stream).substr(hashed_), hash_);
  hashed_ = stream.size();
  // The history section's end record, the live records and the footer go
  // after the history for the one write, and are cut off again after it,
  // so the history is never copied.
  const std::size_t history_size = stream.size();
  stream.push_back(static_cast<char>(RecordKind::kSectionEnd));
  stream.append(2, '\0');
  stream.append(std::string_view(live.buffer_).substr(kHeaderBytes));
  char footer[kFooterBytes];
  store_le(footer, fnv1a(std::string_view(stream).substr(history_size), hash_));
  stream.append(footer, sizeof(footer));
  Status st = atomic_write_file(path, stream, "snapshot.save");
  stream.resize(history_size);
  if (!st.is_ok()) return Status::internal("snapshot: " + st.message());
  return Status::ok();
}

void HistoryCache::seed(SnapshotReader& reader) {
  reset();
  // The reader's stream up to the history's end is the history: take it
  // over rather than copy it.
  stream_.buffer_ = std::move(reader.buffer_);
  stream_.buffer_.resize(reader.history_end_);
  reader.buffer_.clear();
  reader.pos_ = reader.end_ = 0;
  stream_.path_ = "history";
  stream_.path_marks_ = {0};
  for (const auto& [key, table] : reader.history_) {
    tables_.emplace(key, Table{table.end, table.stored});
  }
  last_boundary_ = reader.last_boundary_;
}

Status VarintReader::next(std::uint64_t& out) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (pos_ + i >= bytes_.size()) {
      return Status::invalid_argument(str_format(
          "varint at byte %zu is cut short by the end of its %zu-byte payload",
          pos_, bytes_.size()));
    }
    const auto byte = static_cast<unsigned char>(bytes_[pos_ + i]);
    // The tenth byte holds bit 63 alone.
    if (i == kMaxVarintBytes - 1 && byte > 1) break;
    value |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      pos_ += i + 1;
      out = value;
      return Status::ok();
    }
  }
  return Status::invalid_argument(str_format(
      "varint at byte %zu runs past %zu bytes or 64 bits", pos_,
      kMaxVarintBytes));
}

Status VarintReader::next_delta(std::int64_t& value) {
  std::uint64_t word = 0;
  if (Status s = next(word); !s.is_ok()) return s;
  value = static_cast<std::int64_t>(static_cast<std::uint64_t>(value) +
                                    unzigzag(word));
  return Status::ok();
}

std::string SnapshotRecord::value_text() const {
  switch (kind) {
    case RecordKind::kSectionBegin: return "{";
    case RecordKind::kSectionEnd: return "}";
    case RecordKind::kU64:
      return str_format("%llu", static_cast<unsigned long long>(
                                    load_le<std::uint64_t>(payload.data())));
    case RecordKind::kI64:
      return str_format("%lld", static_cast<long long>(static_cast<std::int64_t>(
                                    load_le<std::uint64_t>(payload.data()))));
    case RecordKind::kF64:
      return str_format("%.17g", std::bit_cast<double>(load_le<std::uint64_t>(
                                     payload.data())));
    case RecordKind::kBool:
      return payload[0] ? "true" : "false";
    case RecordKind::kStr:
      return "\"" + payload + "\"";
    case RecordKind::kBytes:
      return str_format("<%zu bytes, fnv %016llx>", payload.size(),
                        static_cast<unsigned long long>(fnv1a(payload)));
  }
  return "?";
}

StatusOr<std::vector<SnapshotRecord>> read_records(const std::string& path) {
  auto bytes = read_stream(path);
  if (!bytes.is_ok()) return bytes.status();
  auto records = decode_records(std::move(*bytes));
  if (!records.is_ok()) {
    return Status(records.status().code(),
                  "'" + path + "': " + records.status().message());
  }
  return records;
}

StatusOr<std::vector<SnapshotRecord>> decode_records(std::string buf) {
  // Verify magic/version/checksum before walking the raw stream, so
  // structural errors below indicate an encoder bug, not corruption.
  if (Status st = verify_stream(buf); !st.is_ok()) return st;
  buf.resize(buf.size() - kFooterBytes);
  std::size_t pos = kHeaderBytes;
  std::vector<std::string> stack;
  std::vector<SnapshotRecord> records;
  while (pos < buf.size()) {
    if (pos + 3 > buf.size()) {
      return Status::internal("snapshot: trailing garbage after last record");
    }
    const std::uint8_t raw = static_cast<unsigned char>(buf[pos]);
    if (!known_kind(raw)) {
      return Status::internal(
          str_format("snapshot: unknown record tag %u at offset %zu", raw, pos));
    }
    const auto kind = static_cast<RecordKind>(raw);
    const std::uint16_t name_len = load_le<std::uint16_t>(buf.data() + pos + 1);
    std::size_t cursor = pos + 3;
    if (cursor + name_len > buf.size()) {
      return Status::internal("snapshot: truncated record name");
    }
    std::string name(buf.data() + cursor, name_len);
    cursor += name_len;
    std::size_t payload_len = 0;
    switch (kind) {
      case RecordKind::kSectionBegin:
      case RecordKind::kSectionEnd: payload_len = 0; break;
      case RecordKind::kU64:
      case RecordKind::kI64:
      case RecordKind::kF64: payload_len = 8; break;
      case RecordKind::kBool: payload_len = 1; break;
      case RecordKind::kStr:
      case RecordKind::kBytes:
        if (cursor + 4 > buf.size()) {
          return Status::internal("snapshot: truncated length prefix");
        }
        payload_len = load_le<std::uint32_t>(buf.data() + cursor);
        cursor += 4;
        break;
    }
    if (cursor + payload_len > buf.size()) {
      return Status::internal("snapshot: truncated record payload");
    }
    SnapshotRecord record;
    record.kind = kind;
    record.section = joined_path(stack);
    record.name = name;
    record.payload.assign(buf.data() + cursor, payload_len);
    if (kind == RecordKind::kSectionBegin) {
      stack.push_back(name);
    } else if (kind == RecordKind::kSectionEnd) {
      if (stack.empty()) {
        return Status::internal("snapshot: unbalanced section-end");
      }
      record.name = stack.back();
      stack.pop_back();
      record.section = joined_path(stack);
    }
    records.push_back(std::move(record));
    pos = cursor + payload_len;
  }
  if (!stack.empty()) {
    return Status::internal("snapshot: unclosed section '" + stack.back() + "'");
  }
  return records;
}

StatusOr<bool> diff_snapshots(const std::string& golden,
                              const std::string& other, std::string* report) {
  auto a = read_records(golden);
  if (!a.is_ok()) return a.status();
  auto b = read_records(other);
  if (!b.is_ok()) return b.status();

  const std::size_t n = std::min(a->size(), b->size());
  for (std::size_t i = 0; i < n; ++i) {
    const SnapshotRecord& ra = (*a)[i];
    const SnapshotRecord& rb = (*b)[i];
    if (ra.kind == rb.kind && ra.name == rb.name && ra.section == rb.section &&
        ra.payload == rb.payload) {
      continue;
    }
    if (report != nullptr) {
      *report = str_format(
          "first divergence at record %zu:\n"
          "  golden: [%s] %s / %s = %s\n"
          "  other:  [%s] %s / %s = %s",
          i, record_kind_name(ra.kind), ra.section.c_str(), ra.name.c_str(),
          ra.value_text().c_str(), record_kind_name(rb.kind),
          rb.section.c_str(), rb.name.c_str(), rb.value_text().c_str());
    }
    return false;
  }
  if (a->size() != b->size()) {
    if (report != nullptr) {
      const auto& longer = a->size() > b->size() ? *a : *b;
      const SnapshotRecord& extra = longer[n];
      *report = str_format(
          "snapshots agree on the first %zu records, but '%s' has %zu extra "
          "record(s) starting with [%s] %s / %s",
          n, (a->size() > b->size() ? golden : other).c_str(),
          longer.size() - n, record_kind_name(extra.kind),
          extra.section.c_str(), extra.name.c_str());
    }
    return false;
  }
  if (report != nullptr) report->clear();
  return true;
}

StatusOr<std::vector<std::pair<std::string, std::uint64_t>>> section_digests(
    const std::string& path) {
  auto records = read_records(path);
  if (!records.is_ok()) return records.status();
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  std::string current;
  std::uint64_t h = kFnvOffset;
  auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
  };
  for (const SnapshotRecord& record : *records) {
    const bool top_begin =
        record.kind == RecordKind::kSectionBegin && record.section.empty();
    if (top_begin) {
      current = record.name;
      h = kFnvOffset;
      continue;
    }
    const bool top_end =
        record.kind == RecordKind::kSectionEnd && record.section.empty();
    if (top_end) {
      digests.emplace_back(current, h);
      current.clear();
      continue;
    }
    mix(record.name);
    mix(record.payload);
  }
  return digests;
}

}  // namespace dc::snapshot
