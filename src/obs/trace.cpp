#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstddef>
#include <cstring>
#include <memory>

#include "util/fsio.hpp"
#include "util/histogram.hpp"
#include "util/strings.hpp"

namespace dc::obs {
namespace {

// Sim seconds → Chrome trace microseconds.
constexpr std::int64_t kMicrosPerSecond = 1000000;

// One event in the snapshot's packed ring: seven varints, namely its
// time as the zigzag difference from the previous event's, dur, a0 and
// a1 zigzag, the name and actor ids, and category << 1 | phase.
constexpr std::size_t kPackedEventWords = 7;

char* put_packed_event(char* p, const TraceEvent& event,
                       std::uint64_t& last_time) {
  using snapshot::put_varint;
  using snapshot::zigzag;
  const auto time = static_cast<std::uint64_t>(event.time);
  p = put_varint(p, zigzag(time - last_time));
  last_time = time;
  p = put_varint(p, zigzag(static_cast<std::uint64_t>(event.dur)));
  p = put_varint(p, zigzag(static_cast<std::uint64_t>(event.a0)));
  p = put_varint(p, zigzag(static_cast<std::uint64_t>(event.a1)));
  p = put_varint(p, event.name);
  p = put_varint(p, event.actor);
  return put_varint(p, (std::uint64_t{event.category} << 1) | event.phase);
}

// Exports go through util/fsio's atomic tmp+fsync+rename: an interrupted
// export leaves either the previous complete trace or nothing, never a
// truncated JSON/CSV that a viewer or the trace-diff would choke on.

// Monotonic sink-lifetime ids for TraceName cache validation. Starts at
// 1 so a default-constructed cache (epoch 0) never matches any sink.
std::uint64_t next_trace_epoch() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const char* trace_category_name(TraceCategory category) {
  switch (category) {
    case TraceCategory::kJob: return "job";
    case TraceCategory::kLease: return "lease";
    case TraceCategory::kProvision: return "provision";
    case TraceCategory::kResize: return "resize";
    case TraceCategory::kFault: return "fault";
    case TraceCategory::kCheckpoint: return "checkpoint";
    case TraceCategory::kLifecycle: return "lifecycle";
    case TraceCategory::kKernel: return "kernel";
    case TraceCategory::kLog: return "log";
    case TraceCategory::kCategoryCount: break;
  }
  return "unknown";
}

StatusOr<std::uint32_t> parse_trace_filter(std::string_view spec) {
  if (trim(spec).empty() || trim(spec) == "all") return kTraceAll;
  std::uint32_t mask = 0;
  for (std::string_view token : split_char(spec, ',')) {
    token = trim(token);
    if (token.empty()) continue;
    bool known = false;
    for (std::uint16_t c = 0;
         c < static_cast<std::uint16_t>(TraceCategory::kCategoryCount); ++c) {
      const auto category = static_cast<TraceCategory>(c);
      if (token == trace_category_name(category)) {
        mask |= trace_category_bit(category);
        known = true;
        break;
      }
    }
    if (!known) {
      std::string valid;
      for (std::uint16_t c = 0;
           c < static_cast<std::uint16_t>(TraceCategory::kCategoryCount); ++c) {
        if (!valid.empty()) valid += ",";
        valid += trace_category_name(static_cast<TraceCategory>(c));
      }
      return Status::invalid_argument("unknown trace category '" +
                                      std::string(token) + "' (valid: " +
                                      valid + ",all)");
    }
  }
  return mask;
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), epoch_(next_trace_epoch()) {
  ring_.reserve(capacity_);
}

std::uint32_t TraceSink::resolve(const TraceName& name) {
  if (name.epoch_ != epoch_) {
    name.id_ = intern(name.text_);
    name.epoch_ = epoch_;
  }
  return name.id_;
}

std::uint32_t TraceSink::intern(std::string_view text) {
  auto it = name_ids_.find(text);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(text);
  name_ids_.emplace(names_.back(), id);
  return id;
}

void TraceSink::push(const TraceEvent& event) {
  ++emitted_;
  if (size_ == capacity_) {
    ring_[head_] = event;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
    return;
  }
  // Until it first fills, the ring is its events in order from slot 0.
  ring_.push_back(event);
  ++size_;
}

namespace {

TraceEvent make_event(SimTime time, SimDuration dur, TraceCategory category,
                      std::uint32_t name, std::uint32_t actor, std::int64_t a0,
                      std::int64_t a1, std::uint16_t phase) {
  TraceEvent event;
  event.time = time;
  event.dur = dur < 0 ? 0 : dur;
  event.a0 = a0;
  event.a1 = a1;
  event.name = name;
  event.actor = actor;
  event.category = static_cast<std::uint16_t>(category);
  event.phase = phase;
  return event;
}

}  // namespace

// All emission paths intern name-before-actor and only after the filter
// passes, so id assignment order is identical whichever overload a call
// site uses.
void TraceSink::instant(SimTime now, TraceCategory category,
                        std::string_view name, std::string_view actor,
                        std::int64_t a0, std::int64_t a1) {
  if (!wants(category)) return;
  const std::uint32_t name_id = intern(name);
  push(make_event(now, 0, category, name_id, intern(actor), a0, a1, 0));
}

void TraceSink::instant(SimTime now, TraceCategory category,
                        const TraceName& name, const TraceName& actor,
                        std::int64_t a0, std::int64_t a1) {
  if (!wants(category)) return;
  const std::uint32_t name_id = resolve(name);
  push(make_event(now, 0, category, name_id, resolve(actor), a0, a1, 0));
}

void TraceSink::instant(SimTime now, TraceCategory category,
                        const TraceName& name, std::string_view actor,
                        std::int64_t a0, std::int64_t a1) {
  if (!wants(category)) return;
  const std::uint32_t name_id = resolve(name);
  push(make_event(now, 0, category, name_id, intern(actor), a0, a1, 0));
}

void TraceSink::span(SimTime start, SimDuration dur, TraceCategory category,
                     std::string_view name, std::string_view actor,
                     std::int64_t a0, std::int64_t a1) {
  if (!wants(category)) return;
  const std::uint32_t name_id = intern(name);
  push(make_event(start, dur, category, name_id, intern(actor), a0, a1, 1));
}

void TraceSink::span(SimTime start, SimDuration dur, TraceCategory category,
                     const TraceName& name, const TraceName& actor,
                     std::int64_t a0, std::int64_t a1) {
  if (!wants(category)) return;
  const std::uint32_t name_id = resolve(name);
  push(make_event(start, dur, category, name_id, resolve(actor), a0, a1, 1));
}

void TraceSink::span(SimTime start, SimDuration dur, TraceCategory category,
                     const TraceName& name, std::string_view actor,
                     std::int64_t a0, std::int64_t a1) {
  if (!wants(category)) return;
  const std::uint32_t name_id = resolve(name);
  push(make_event(start, dur, category, name_id, intern(actor), a0, a1, 1));
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for_each_event([&](const TraceEvent& event) { out.push_back(event); });
  return out;
}

std::vector<std::uint64_t> TraceSink::category_counts() const {
  std::vector<std::uint64_t> counts(
      static_cast<std::size_t>(TraceCategory::kCategoryCount), 0);
  for_each_event([&](const TraceEvent& event) {
    if (event.category < counts.size()) ++counts[event.category];
  });
  return counts;
}

namespace {

// chrome_json() writes each record's fixed text and digits into a stack
// buffer and appends it to one string reserved to an upper bound.

// "-9223372036854775808" is the longest integer.
constexpr std::size_t kMaxDigits = 20;
// An event record apart from its name: a span's fixed text, the longest
// category name, five integers and the ",\n" before it.
constexpr std::size_t kMaxEventBytes = 192;
// A track's metadata record apart from its name.
constexpr std::size_t kMaxTrackBytes = 96;

char* put(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

template <class Int>
char* put_int(char* p, Int value) {
  return std::to_chars(p, p + kMaxDigits, value).ptr;
}

}  // namespace

std::string TraceSink::chrome_json() const {
  // One pass over the ring finds the names it uses, and each is escaped
  // once. Actors become named tid tracks; their metadata records go
  // first, in ascending tid order.
  std::vector<std::uint64_t> name_uses(names_.size(), 0);
  std::vector<bool> is_actor(names_.size(), false);
  for_each_event([&](const TraceEvent& event) {
    ++name_uses[event.name];
    is_actor[event.actor] = true;
  });
  constexpr std::string_view kHeader =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  constexpr std::string_view kFooter = "\n]}\n";
  std::size_t bound = kHeader.size() + kFooter.size();
  std::vector<std::string> escaped(names_.size());
  for (std::size_t id = 0; id < names_.size(); ++id) {
    if (name_uses[id] == 0 && !is_actor[id]) continue;
    append_json_escaped(escaped[id], names_[id]);
    bound += name_uses[id] * (kMaxEventBytes + escaped[id].size());
    if (is_actor[id]) bound += kMaxTrackBytes + escaped[id].size();
  }
  // Unknown categories export as trace_category_name's "unknown".
  constexpr auto kCategories =
      static_cast<std::size_t>(TraceCategory::kCategoryCount);
  std::string categories[kCategories + 1];
  for (std::size_t c = 0; c <= kCategories; ++c) {
    append_json_escaped(categories[c],
                        trace_category_name(static_cast<TraceCategory>(c)));
  }

  std::string out;
  out.reserve(bound);
  out += kHeader;
  std::string_view separator = "";  // ",\n" before every record but the first
  char buf[kMaxEventBytes];
  for (std::uint32_t id = 0; id < names_.size(); ++id) {
    if (!is_actor[id]) continue;
    char* p = put(buf, separator);
    separator = ",\n";
    p = put(p, "{\"ph\":\"M\",\"pid\":1,\"tid\":");
    p = put_int(p, id + 1);
    p = put(p, ",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    out.append(buf, p);
    out += escaped[id];
    out += "\"}}";
  }
  for_each_event([&](const TraceEvent& event) {
    char* p = put(buf, separator);
    separator = ",\n";
    p = put(p, "{\"ph\":\"");
    *p++ = event.phase == 1 ? 'X' : 'i';
    p = put(p, "\",\"pid\":1,\"tid\":");
    p = put_int(p, event.actor + 1);
    p = put(p, ",\"ts\":");
    p = put_int(p, static_cast<long long>(event.time * kMicrosPerSecond));
    if (event.phase == 1) {
      p = put(p, ",\"dur\":");
      p = put_int(p, static_cast<long long>(event.dur * kMicrosPerSecond));
      p = put(p, ",\"name\":\"");
    } else {
      p = put(p, ",\"s\":\"t\",\"name\":\"");
    }
    out.append(buf, p);
    out += escaped[event.name];
    p = put(buf, "\",\"cat\":\"");
    p = put(p, categories[std::min<std::size_t>(event.category, kCategories)]);
    p = put(p, "\",\"args\":{\"a0\":");
    p = put_int(p, static_cast<long long>(event.a0));
    p = put(p, ",\"a1\":");
    p = put_int(p, static_cast<long long>(event.a1));
    p = put(p, "}}");
    out.append(buf, p);
  });
  out += kFooter;
  return out;
}

Status TraceSink::export_chrome_json(const std::string& path) const {
  return atomic_write_file(path, chrome_json(), "obs.trace.json");
}

std::string TraceSink::csv() const {
  std::string out = "time,category,phase,name,actor,dur,a0,a1\n";
  for (const auto& event : events()) {
    out += str_format(
        "%lld,%s,%s,%s,%s,%lld,%lld,%lld\n",
        static_cast<long long>(event.time),
        trace_category_name(static_cast<TraceCategory>(event.category)),
        event.phase == 1 ? "span" : "instant", names_[event.name].c_str(),
        names_[event.actor].c_str(), static_cast<long long>(event.dur),
        static_cast<long long>(event.a0), static_cast<long long>(event.a1));
  }
  return out;
}

Status TraceSink::export_csv(const std::string& path) const {
  return atomic_write_file(path, csv(), "obs.trace.csv");
}

template <class Io>
Status TraceSink::persist(Io& io) {
  return io.section("trace", [&]() -> Status {
    std::uint64_t capacity = capacity_;
    std::uint64_t filter = filter_;
    // push() below re-counts while restoring; the saved run totals are
    // kept aside and set once the ring is rebuilt.
    std::uint64_t emitted = emitted_;
    std::uint64_t dropped = dropped_;
    if (Status s = io.u64("capacity", capacity); !s.is_ok()) return s;
    if (Status s = io.u64("filter", filter); !s.is_ok()) return s;
    if (Status s = io.u64("emitted", emitted); !s.is_ok()) return s;
    if (Status s = io.u64("dropped", dropped); !s.is_ok()) return s;
    const auto each_name = [&](std::string& text) -> Status {
      return io.str("name", text);
    };
    if (Status s = snapshot::list(io, "names", names_, each_name); !s.is_ok()) {
      return s;
    }
    if constexpr (!Io::kSaving) {
      // The string table is rebuilt from the snapshot: any TraceName cache
      // pointing at this sink may now hold a stale id. A fresh epoch
      // invalidates them all at once.
      name_ids_.clear();
      for (std::size_t i = 0; i < names_.size(); ++i) {
        name_ids_.emplace(names_[i], static_cast<std::uint32_t>(i));
      }
      epoch_ = next_trace_epoch();
      if (capacity > kMaxTraceCapacity) return capacity_error(io, capacity, 0);
      capacity_ = capacity == 0 ? 1 : capacity;
      ring_.clear();
      ring_.reserve(capacity_);
      head_ = 0;
      size_ = 0;
      filter_ = static_cast<std::uint32_t>(filter);
    }
    // The events are rows numbered in emission order. All of them are
    // final, but the ring holds only [dropped, emitted): the history takes
    // the ones it lacks from there (docs/SNAPSHOT.md, "History").
    const auto event_rows = [&](Io& h, std::uint64_t first,
                                std::uint64_t end) -> Status {
      std::unique_ptr<char[]> buffer;
      std::string_view packed;
      if constexpr (Io::kSaving) {
        buffer = std::make_unique_for_overwrite<char[]>(
            (end - first) * kPackedEventWords * snapshot::kMaxVarintBytes);
        packed = pack_events(buffer.get(), first - dropped, end - dropped);
      }
      if (Status s = h.bytes("packed", packed); !s.is_ok()) return s;
      if constexpr (!Io::kSaving) return unpack_events(h, end - first, packed);
      return Status::ok();
    };
    std::uint64_t in_history = 0;
    if (Status s = io.history("events", {emitted, dropped, /*ring=*/true},
                              in_history, event_rows);
        !s.is_ok()) {
      return s;
    }
    // The ring's events the history lacks, oldest first. The buffer has
    // room for the longest encoding and is not zeroed; only the bytes
    // written are stored.
    std::uint64_t event_count = emitted - std::max(in_history, dropped);
    std::unique_ptr<char[]> buffer;
    std::string_view packed;
    if constexpr (Io::kSaving) {
      buffer = std::make_unique_for_overwrite<char[]>(
          event_count * kPackedEventWords * snapshot::kMaxVarintBytes);
      packed = pack_events(buffer.get(), size_ - event_count, size_);
    }
    if (Status s = io.count("events", event_count); !s.is_ok()) return s;
    if (Status s = io.bytes("packed_ring", packed); !s.is_ok()) return s;
    if constexpr (!Io::kSaving) {
      if (capacity < event_count) {
        return capacity_error(io, capacity, event_count);
      }
      if (Status s = unpack_events(io, event_count, packed); !s.is_ok()) {
        return s;
      }
      if (emitted < dropped || size_ != emitted - dropped) {
        return Status::invalid_argument(str_format(
            "snapshot: trace ring rebuilt with %zu events, but %llu emitted "
            "and %llu dropped leave %llu (%s)",
            size_, static_cast<unsigned long long>(emitted),
            static_cast<unsigned long long>(dropped),
            static_cast<unsigned long long>(emitted - dropped),
            io.context().c_str()));
      }
      emitted_ = emitted;
      dropped_ = dropped;
    }
    return Status::ok();
  });
}

Status TraceSink::capacity_error(const snapshot::SnapshotReader& reader,
                                 std::uint64_t capacity,
                                 std::uint64_t event_count) {
  return Status::invalid_argument(str_format(
      "snapshot: trace ring capacity %llu is below its %llu events or above "
      "%zu (%s)",
      static_cast<unsigned long long>(capacity),
      static_cast<unsigned long long>(event_count), kMaxTraceCapacity,
      reader.context().c_str()));
}

std::string_view TraceSink::pack_events(char* out, std::size_t from,
                                        std::size_t to) const {
  char* p = out;
  std::uint64_t last_time = 0;
  for (std::size_t i = from; i < to; ++i) {
    p = put_packed_event(p, ring_[(head_ + i) % ring_.size()], last_time);
  }
  return std::string_view(out, static_cast<std::size_t>(p - out));
}

Status TraceSink::unpack_events(const snapshot::SnapshotReader& reader,
                                std::uint64_t event_count,
                                std::string_view packed) {
  const auto ring_error = [&](const std::string& what) {
    return Status::invalid_argument(
        str_format("snapshot: trace ring of %llu events: %s (%s)",
                   static_cast<unsigned long long>(event_count), what.c_str(),
                   reader.context().c_str()));
  };
  snapshot::VarintReader varints(packed);
  std::uint64_t time_bits = 0;
  for (std::uint64_t i = 0; i < event_count; ++i) {
    const auto index = static_cast<unsigned long long>(i);
    if (varints.at_end()) {
      return ring_error(str_format("ends after %llu", index));
    }
    std::uint64_t word[kPackedEventWords];
    for (std::uint64_t& w : word) {
      if (Status s = varints.next(w); !s.is_ok()) {
        return ring_error(
            str_format("event %llu: %s", index, s.message().c_str()));
      }
    }
    if (word[4] >= names_.size() || word[5] >= names_.size()) {
      return ring_error(str_format(
          "event %llu: name id %llu or actor id %llu is past the %zu-name "
          "table",
          index, static_cast<unsigned long long>(word[4]),
          static_cast<unsigned long long>(word[5]), names_.size()));
    }
    const std::uint64_t category = word[6] >> 1;
    if (category >= static_cast<std::uint64_t>(TraceCategory::kCategoryCount)) {
      return ring_error(
          str_format("event %llu: unknown category %llu", index,
                     static_cast<unsigned long long>(category)));
    }
    time_bits += snapshot::unzigzag(word[0]);
    TraceEvent event;
    event.time = static_cast<SimTime>(time_bits);
    event.dur = static_cast<SimDuration>(snapshot::unzigzag(word[1]));
    event.a0 = static_cast<std::int64_t>(snapshot::unzigzag(word[2]));
    event.a1 = static_cast<std::int64_t>(snapshot::unzigzag(word[3]));
    event.name = static_cast<std::uint32_t>(word[4]);
    event.actor = static_cast<std::uint32_t>(word[5]);
    event.category = static_cast<std::uint16_t>(category);
    event.phase = static_cast<std::uint16_t>(word[6] & 1);
    push(event);
  }
  if (!varints.at_end()) {
    return ring_error(str_format("%zu bytes follow the last event",
                                 packed.size() - varints.offset()));
  }
  return Status::ok();
}

Status TraceSink::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<TraceSink&>(*this).persist(writer);
}

Status TraceSink::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

namespace {

// The one Chrome-trace reader: a cursor over the exporter's own output
// shape plus whitespace. It parses in place: a string is a view into the
// text unless it holds an escape, and only then is it decoded, into its
// field's buffer.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\r' ||
            text[pos] == '\t')) {
      ++pos;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool at(char c) const { return pos < text.size() && text[pos] == c; }
  Status fail(const char* what) const {
    return Status::invalid_argument(
        str_format("trace json: %s near offset %zu", what, pos));
  }
};

// A parsed string: `view` is valid until the next parse into this Text.
struct Text {
  std::string_view view;
  std::string decoded;  // holds `view` when the string had escapes
};

// The four hex digits of a \u escape at the cursor, as a UTF-16 unit.
// False at the first byte that is no hex digit, or when fewer than four
// bytes are left.
bool read_hex4(Cursor& cur, std::uint32_t& code) {
  if (cur.pos + 4 > cur.text.size()) return false;
  code = 0;
  for (int i = 0; i < 4; ++i) {
    const char h = cur.text[cur.pos++];
    code <<= 4;
    if (h >= '0' && h <= '9') {
      code |= static_cast<std::uint32_t>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      code |= static_cast<std::uint32_t>(h - 'a' + 10);
    } else if (h >= 'A' && h <= 'F') {
      code |= static_cast<std::uint32_t>(h - 'A' + 10);
    } else {
      return false;
    }
  }
  return true;
}

// Code point `code` (below 0x110000, no surrogate) as UTF-8.
void append_utf8(std::string& out, std::uint32_t code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xc0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3f));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xe0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (code & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (code & 0x3f));
  }
}

Status parse_json_string(Cursor& cur, Text& out) {
  if (!cur.eat('"')) return cur.fail("expected string");
  const std::string_view text = cur.text;
  std::size_t run = cur.pos;  // first byte not yet copied to `decoded`
  bool escaped = false;
  while (cur.pos < text.size()) {
    const char c = text[cur.pos];
    if (c != '"' && c != '\\') {
      ++cur.pos;
      continue;
    }
    const std::string_view plain = text.substr(run, cur.pos - run);
    ++cur.pos;
    if (c == '"') {
      if (!escaped) {
        out.view = plain;
        return Status::ok();
      }
      out.decoded += plain;
      out.view = out.decoded;
      return Status::ok();
    }
    if (!escaped) out.decoded.clear();
    escaped = true;
    out.decoded += plain;
    if (cur.pos >= text.size()) break;
    switch (text[cur.pos++]) {
      case '"': out.decoded += '"'; break;
      case '\\': out.decoded += '\\'; break;
      case 'n': out.decoded += '\n'; break;
      case 'r': out.decoded += '\r'; break;
      case 't': out.decoded += '\t'; break;
      case 'u': {
        std::uint32_t code = 0;
        if (!read_hex4(cur, code)) return cur.fail("bad \\u escape");
        // A UTF-16 surrogate pair is one code point; a surrogate without
        // its other half is none.
        if (code >= 0xd800 && code <= 0xdbff) {
          std::uint32_t low = 0;
          if (text.substr(cur.pos, 2) != "\\u") {
            return cur.fail("bad \\u escape");
          }
          cur.pos += 2;
          if (!read_hex4(cur, low) || low < 0xdc00 || low > 0xdfff) {
            return cur.fail("bad \\u escape");
          }
          code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        } else if (code >= 0xdc00 && code <= 0xdfff) {
          return cur.fail("bad \\u escape");
        }
        append_utf8(out.decoded, code);
        break;
      }
      default: return cur.fail("unsupported escape");
    }
    run = cur.pos;
  }
  return cur.fail("unterminated string");
}

// util's parse_int refuses a token this long, and so does this reader.
constexpr std::size_t kMaxIntegerToken = 32;

Status parse_json_int(Cursor& cur, std::int64_t& out) {
  cur.skip_ws();
  const std::size_t start = cur.pos;
  if (cur.at('-')) ++cur.pos;
  while (cur.pos < cur.text.size() && cur.text[cur.pos] >= '0' &&
         cur.text[cur.pos] <= '9') {
    ++cur.pos;
  }
  if (cur.pos == start) return cur.fail("expected integer");
  if (cur.pos - start >= kMaxIntegerToken) return cur.fail("bad integer");
  const char* last = cur.text.data() + cur.pos;
  const auto [end, error] =
      std::from_chars(cur.text.data() + start, last, out);
  if (error != std::errc() || end != last) return cur.fail("bad integer");
  return Status::ok();
}

// One record object: flat string/integer fields plus a flat "args"
// object. Reused from record to record, so its buffers keep their
// capacity.
struct RawRecord {
  Text ph, name, cat;
  std::int64_t tid = 0, ts = 0, dur = 0, a0 = 0, a1 = 0;
  Text args_name;  // metadata thread_name payload
  Text key, arg_key, ignored;

  void clear() {
    ph.view = name.view = cat.view = args_name.view = {};
    tid = ts = dur = a0 = a1 = 0;
  }
};

Status parse_record(Cursor& cur, RawRecord& rec) {
  rec.clear();
  if (!cur.eat('{')) return cur.fail("expected record object");
  if (cur.eat('}')) return Status::ok();
  while (true) {
    if (Status s = parse_json_string(cur, rec.key); !s.is_ok()) return s;
    const std::string_view key = rec.key.view;
    if (!cur.eat(':')) return cur.fail("expected ':'");
    cur.skip_ws();
    if (key == "args") {
      if (!cur.eat('{')) return cur.fail("expected args object");
      if (!cur.eat('}')) {
        while (true) {
          if (Status s = parse_json_string(cur, rec.arg_key); !s.is_ok()) {
            return s;
          }
          const std::string_view arg_key = rec.arg_key.view;
          if (!cur.eat(':')) return cur.fail("expected ':'");
          cur.skip_ws();
          if (cur.at('"')) {
            Text& value = arg_key == "name" ? rec.args_name : rec.ignored;
            if (Status s = parse_json_string(cur, value); !s.is_ok()) return s;
          } else {
            std::int64_t value = 0;
            if (Status s = parse_json_int(cur, value); !s.is_ok()) return s;
            if (arg_key == "a0") rec.a0 = value;
            if (arg_key == "a1") rec.a1 = value;
          }
          if (cur.eat(',')) continue;
          if (cur.eat('}')) break;
          return cur.fail("expected ',' or '}' in args");
        }
      }
    } else if (cur.at('"')) {
      Text& value = key == "ph"     ? rec.ph
                    : key == "name" ? rec.name
                    : key == "cat"  ? rec.cat
                                    : rec.ignored;
      if (Status s = parse_json_string(cur, value); !s.is_ok()) return s;
    } else {
      std::int64_t value = 0;
      if (Status s = parse_json_int(cur, value); !s.is_ok()) return s;
      if (key == "tid") rec.tid = value;
      if (key == "ts") rec.ts = value;
      if (key == "dur") rec.dur = value;
    }
    if (cur.eat(',')) continue;
    if (cur.eat('}')) return Status::ok();
    return cur.fail("expected ',' or '}'");
  }
}

}  // namespace

StatusOr<std::vector<ParsedTraceEvent>> parse_chrome_json(
    std::string_view json) {
  Cursor cur{json};
  if (!cur.eat('{')) return cur.fail("expected top-level object");
  // No event record of an export is shorter than the one with every
  // number 0, an empty name and a three-letter category, so the text's
  // size bounds an export's event count: the list is sized once.
  constexpr std::size_t kMinEventRecordBytes =
      sizeof(R"({"ph":"i","pid":1,"tid":1,"ts":0,"s":"t","name":"",)"
             R"("cat":"job","args":{"a0":0,"a1":0}})") - 1;
  std::vector<ParsedTraceEvent> out;
  out.reserve(json.size() / kMinEventRecordBytes);
  std::map<std::int64_t, std::string> tracks;
  bool saw_events = false;
  Text key;
  RawRecord rec;
  while (true) {
    if (Status s = parse_json_string(cur, key); !s.is_ok()) return s;
    if (!cur.eat(':')) return cur.fail("expected ':'");
    if (key.view == "traceEvents") {
      saw_events = true;
      if (!cur.eat('[')) return cur.fail("expected traceEvents array");
      if (!cur.eat(']')) {
        while (true) {
          if (Status s = parse_record(cur, rec); !s.is_ok()) return s;
          if (rec.ph.view == "M") {
            if (rec.name.view == "thread_name") {
              tracks[rec.tid] = rec.args_name.view;
            }
          } else {
            ParsedTraceEvent& event = out.emplace_back();
            event.name = rec.name.view;
            event.category = rec.cat.view;
            auto track = tracks.find(rec.tid);
            event.actor = track == tracks.end() ? str_format("tid%lld",
                              static_cast<long long>(rec.tid))
                                                : track->second;
            event.phase = rec.ph.view == "X" ? 'X' : 'i';
            event.ts_us = rec.ts;
            event.dur_us = rec.dur;
            event.a0 = rec.a0;
            event.a1 = rec.a1;
          }
          if (cur.eat(',')) continue;
          if (cur.eat(']')) break;
          return cur.fail("expected ',' or ']' in traceEvents");
        }
      }
    } else {
      if (Status s = parse_json_string(cur, rec.ignored); !s.is_ok()) return s;
    }
    if (cur.eat(',')) continue;
    if (cur.eat('}')) break;
    return cur.fail("expected ',' or '}' at top level");
  }
  // Only whitespace may follow, such as the exporter's final newline: two
  // exports in one file are not the first alone.
  cur.skip_ws();
  if (cur.pos != json.size()) {
    return cur.fail("bytes after the top-level object");
  }
  if (!saw_events) return Status::invalid_argument("trace json: no traceEvents");
  return out;
}

StatusOr<std::vector<ParsedTraceEvent>> read_chrome_trace(
    const std::string& path) {
  auto text = read_file(path);
  if (!text.is_ok()) {
    return text.status().code() == StatusCode::kNotFound
               ? Status::not_found("cannot open trace: " + path)
               : text.status();
  }
  auto parsed = parse_chrome_json(*text);
  if (!parsed.is_ok()) {
    return Status(parsed.status().code(),
                  path + ": " + parsed.status().message());
  }
  return parsed;
}

Status validate_trace_nonempty(const std::vector<ParsedTraceEvent>& events,
                               const std::string& label) {
  if (!events.empty()) return Status::ok();
  return Status::failed_precondition(str_format(
      "trace '%s' parses but records zero events (empty or header-only "
      "export) — a summary or diff over it would be vacuous, not a "
      "no-divergence verdict; re-run with --trace-out and a category "
      "filter that matches at least one event",
      label.c_str()));
}

std::string summarize_trace(const std::vector<ParsedTraceEvent>& events) {
  // Per-category counts in taxonomy order, then per-name span percentiles.
  std::string out;
  out += str_format("events: %zu\n", events.size());
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> categories;
  for (const auto& event : events) {
    auto& slot = categories[event.category];
    if (event.phase == 'X') ++slot.second; else ++slot.first;
  }
  out += "\ncategory counts\n";
  out += str_format("  %-12s %10s %10s\n", "category", "instants", "spans");
  for (const auto& [category, counts] : categories) {
    out += str_format("  %-12s %10llu %10llu\n", category.c_str(),
                      static_cast<unsigned long long>(counts.first),
                      static_cast<unsigned long long>(counts.second));
  }
  std::map<std::string, std::vector<double>> spans;
  for (const auto& event : events) {
    if (event.phase == 'X') {
      spans[event.name].push_back(static_cast<double>(event.dur_us) / 1e6);
    }
  }
  if (!spans.empty()) {
    out += "\nspan durations (seconds)\n";
    out += str_format("  %-24s %8s %10s %10s %10s %10s\n", "span", "count",
                      "p50", "p95", "p99", "max");
    for (const auto& [name, durations] : spans) {
      const double max_dur =
          *std::max_element(durations.begin(), durations.end());
      Histogram hist(0.0, max_dur > 0.0 ? max_dur : 1.0, 64);
      for (double d : durations) hist.add(d);
      out += str_format("  %-24s %8zu %10.2f %10.2f %10.2f %10.2f\n",
                        name.c_str(), durations.size(), hist.p50(), hist.p95(),
                        hist.p99(), max_dur);
    }
  }
  return out;
}

bool diff_traces(const std::vector<ParsedTraceEvent>& golden,
                 const std::vector<ParsedTraceEvent>& other,
                 std::string* report) {
  const auto describe = [](const ParsedTraceEvent& event) {
    return str_format("%c %s/%s actor=%s ts=%lld dur=%lld a0=%lld a1=%lld",
                      event.phase, event.category.c_str(), event.name.c_str(),
                      event.actor.c_str(), static_cast<long long>(event.ts_us),
                      static_cast<long long>(event.dur_us),
                      static_cast<long long>(event.a0),
                      static_cast<long long>(event.a1));
  };
  const std::size_t common = std::min(golden.size(), other.size());
  for (std::size_t i = 0; i < common; ++i) {
    const auto& g = golden[i];
    const auto& o = other[i];
    if (g.name == o.name && g.category == o.category && g.actor == o.actor &&
        g.phase == o.phase && g.ts_us == o.ts_us && g.dur_us == o.dur_us &&
        g.a0 == o.a0 && g.a1 == o.a1) {
      continue;
    }
    if (report != nullptr) {
      *report = str_format("first divergence at event %zu\n  golden: %s\n  other:  %s",
                           i, describe(g).c_str(), describe(o).c_str());
    }
    return false;
  }
  if (golden.size() != other.size()) {
    if (report != nullptr) {
      const bool golden_longer = golden.size() > other.size();
      const auto& extra = golden_longer ? golden[common] : other[common];
      *report = str_format(
          "traces agree for %zu events, then %s has %zu extra; first: %s",
          common, golden_longer ? "golden" : "other",
          (golden_longer ? golden.size() : other.size()) - common,
          describe(extra).c_str());
    }
    return false;
  }
  if (report != nullptr) *report = "traces are identical";
  return true;
}

}  // namespace dc::obs
