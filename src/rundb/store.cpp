#include "rundb/store.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "snapshot/format.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"
#include "util/pidlock.hpp"
#include "util/strings.hpp"

namespace dc::rundb {
namespace {

/// Bytes of a record stream's FNV-1a checksum footer.
constexpr std::size_t kFooterBytes = sizeof(std::uint64_t);

/// Writes `record`'s canonical record list: encode_run_record minus the
/// footer, so a stored stream can be compared against it before any
/// checksum pass runs.
void write_run_record(snapshot::SnapshotWriter& writer,
                      const RunRecord& record) {
  writer.begin_section("run");
  writer.field_str("kind", record.kind);
  writer.field_str("source", record.source);
  writer.field_str("label", record.label);
  writer.begin_section("params");
  writer.field_u64("count", record.params.size());
  for (const auto& [key, value] : record.params) {
    writer.field_str("key", key);
    writer.field_str("value", value);
  }
  writer.end_section();
  writer.begin_section("metrics");
  writer.field_u64("count", record.metrics.size());
  for (const auto& [name, value] : record.metrics) {
    writer.field_str("name", name);
    writer.field_f64("value", value);
  }
  writer.end_section();
  writer.begin_section("trace");
  writer.field_u64("events", record.trace_events);
  writer.field_u64("dropped", record.trace_dropped);
  writer.field_str("digest", record.trace_digest);
  writer.end_section();
  writer.end_section();
}

/// fnv1a(stream) of a stream whose footer is fnv1a(body) — every
/// SnapshotWriter::finish() output and every verified frame — from the
/// footer alone: one pass over 8 bytes instead of the whole stream.
std::uint64_t stream_digest(std::string_view stream) {
  const std::string_view footer = stream.substr(stream.size() - kFooterBytes);
  return snapshot::fnv1a(footer,
                         snapshot::load_le<std::uint64_t>(footer.data()));
}

/// Appends one frame to a store image: u32 LE length prefix + stream.
void append_frame(std::string& image, std::string_view stream) {
  const std::size_t at = image.size();
  image.resize(at + sizeof(std::uint32_t));
  snapshot::store_le(image.data() + at,
                     static_cast<std::uint32_t>(stream.size()));
  image.append(stream);
}

/// The one frame walker behind parse_store and build_store_image. Decodes
/// and verifies every complete frame of `data` in order and hands
/// `visit(stream, record)` the frame's stream (the bytes after its length
/// prefix) and the record it decodes to. A frame reaching past EOF is a
/// torn tail: it is reported and the walk stops there. A complete frame
/// that fails verification refuses with its record index and byte offset.
/// Returns whether a torn tail was dropped.
template <typename Visit>
StatusOr<bool> walk_frames(const std::string& data, const std::string& label,
                           Visit&& visit) {
  std::size_t pos = 0;
  std::size_t index = 0;
  bool torn = false;
  while (pos < data.size()) {
    if (data.size() - pos < sizeof(std::uint32_t)) {
      torn = true;
      break;
    }
    const auto length = snapshot::load_le<std::uint32_t>(data.data() + pos);
    if (length > data.size() - pos - sizeof(std::uint32_t)) {
      torn = true;
      break;
    }
    const std::string_view stream(data.data() + pos + sizeof(std::uint32_t),
                                  length);
    auto record = decode_run_record(std::string(stream));
    if (!record.is_ok()) {
      // A complete frame that fails verification is corruption, not a
      // crash artifact — refuse rather than report from damaged data.
      return Status::failed_precondition(str_format(
          "run store '%s' is corrupt at record %zu (byte offset %zu): %s — "
          "refusing to report from damaged run data; delete the store "
          "directory and re-register",
          label.c_str(), index, pos, record.status().message().c_str()));
    }
    visit(stream, std::move(*record));
    pos += sizeof(std::uint32_t) + length;
    ++index;
  }
  if (torn) {
    Log::raw(LogLevel::kWarn,
             "run store '%s': dropping torn trailing record at byte offset "
             "%zu; the atomic write path never tears — the store was "
             "damaged externally",
             label.c_str(), pos);
  }
  return torn;
}

}  // namespace

std::uint64_t RunRecord::run_id() const {
  return stream_digest(encode_run_record(*this));
}

std::string RunRecord::param(const std::string& key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return {};
}

std::string encode_run_record(const RunRecord& record) {
  snapshot::SnapshotWriter writer;
  write_run_record(writer, record);
  return writer.finish();
}

StatusOr<RunRecord> decode_run_record(const std::string& payload) {
  auto reader = snapshot::SnapshotReader::from_buffer(payload);
  if (!reader.is_ok()) return reader.status();
  RunRecord record;
  if (Status st = reader->begin_section("run"); !st.is_ok()) return st;
  if (Status st = reader->read_str("kind", record.kind); !st.is_ok()) return st;
  if (Status st = reader->read_str("source", record.source); !st.is_ok()) {
    return st;
  }
  if (Status st = reader->read_str("label", record.label); !st.is_ok()) {
    return st;
  }
  if (Status st = reader->begin_section("params"); !st.is_ok()) return st;
  std::uint64_t count = 0;
  if (Status st = reader->read_u64("count", count); !st.is_ok()) return st;
  for (std::uint64_t i = 0; i < count; ++i) {
    // Defensive: a lying count in a corrupt frame must not spin past the
    // section (read_str would fail anyway, but fail with the better
    // message).
    if (reader->at_section_end()) {
      return Status::invalid_argument(
          str_format("run record: params count %llu exceeds encoded entries "
                     "(%s)",
                     static_cast<unsigned long long>(count),
                     reader->context().c_str()));
    }
    std::string key, value;
    if (Status st = reader->read_str("key", key); !st.is_ok()) return st;
    if (Status st = reader->read_str("value", value); !st.is_ok()) return st;
    record.params.emplace_back(std::move(key), std::move(value));
  }
  if (Status st = reader->end_section(); !st.is_ok()) return st;
  if (Status st = reader->begin_section("metrics"); !st.is_ok()) return st;
  if (Status st = reader->read_u64("count", count); !st.is_ok()) return st;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (reader->at_section_end()) {
      return Status::invalid_argument(
          str_format("run record: metrics count %llu exceeds encoded entries "
                     "(%s)",
                     static_cast<unsigned long long>(count),
                     reader->context().c_str()));
    }
    std::string name;
    double value = 0.0;
    if (Status st = reader->read_str("name", name); !st.is_ok()) return st;
    if (Status st = reader->read_f64("value", value); !st.is_ok()) return st;
    record.metrics.emplace_back(std::move(name), value);
  }
  if (Status st = reader->end_section(); !st.is_ok()) return st;
  if (Status st = reader->begin_section("trace"); !st.is_ok()) return st;
  if (Status st = reader->read_u64("events", record.trace_events);
      !st.is_ok()) {
    return st;
  }
  if (Status st = reader->read_u64("dropped", record.trace_dropped);
      !st.is_ok()) {
    return st;
  }
  if (Status st = reader->read_str("digest", record.trace_digest);
      !st.is_ok()) {
    return st;
  }
  if (Status st = reader->end_section(); !st.is_ok()) return st;
  return record;
}

StatusOr<StoreContents> parse_store(const std::string& data,
                                    const std::string& label) {
  StoreContents contents;
  auto torn = walk_frames(data, label, [&](std::string_view, RunRecord record) {
    contents.records.push_back(std::move(record));
  });
  if (!torn.is_ok()) return torn.status();
  contents.truncated_tail = *torn;
  return contents;
}

std::string encode_store_index(const StoreIndex& index) {
  snapshot::SnapshotWriter writer;
  writer.begin_section("index");
  writer.field_u64("store_bytes", index.store_bytes);
  writer.field_u64("store_digest", index.store_digest);
  writer.begin_section("entries");
  writer.field_u64("count", index.entries.size());
  for (const StoreIndex::Entry& entry : index.entries) {
    writer.begin_section("entry");
    writer.field_u64("run_id", entry.run_id);
    writer.field_u64("offset", entry.offset);
    writer.field_u64("length", entry.length);
    writer.field_str("kind", entry.kind);
    writer.field_str("label", entry.label);
    writer.end_section();
  }
  writer.end_section();
  writer.end_section();
  return writer.finish();
}

StatusOr<StoreIndex> parse_store_index(const std::string& data,
                                       const std::string& label) {
  auto reader = snapshot::SnapshotReader::from_buffer(data);
  if (!reader.is_ok()) {
    return Status::failed_precondition(
        str_format("run-store index '%s': %s", label.c_str(),
                   reader.status().message().c_str()));
  }
  StoreIndex index;
  if (Status st = reader->begin_section("index"); !st.is_ok()) return st;
  if (Status st = reader->read_u64("store_bytes", index.store_bytes);
      !st.is_ok()) {
    return st;
  }
  if (Status st = reader->read_u64("store_digest", index.store_digest);
      !st.is_ok()) {
    return st;
  }
  if (Status st = reader->begin_section("entries"); !st.is_ok()) return st;
  std::uint64_t count = 0;
  if (Status st = reader->read_u64("count", count); !st.is_ok()) return st;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (reader->at_section_end()) {
      return Status::invalid_argument(
          str_format("run-store index '%s': entry count %llu exceeds encoded "
                     "entries",
                     label.c_str(), static_cast<unsigned long long>(count)));
    }
    StoreIndex::Entry entry;
    if (Status st = reader->begin_section("entry"); !st.is_ok()) return st;
    if (Status st = reader->read_u64("run_id", entry.run_id); !st.is_ok()) {
      return st;
    }
    if (Status st = reader->read_u64("offset", entry.offset); !st.is_ok()) {
      return st;
    }
    if (Status st = reader->read_u64("length", entry.length); !st.is_ok()) {
      return st;
    }
    if (Status st = reader->read_str("kind", entry.kind); !st.is_ok()) {
      return st;
    }
    if (Status st = reader->read_str("label", entry.label); !st.is_ok()) {
      return st;
    }
    if (Status st = reader->end_section(); !st.is_ok()) return st;
    index.entries.push_back(std::move(entry));
  }
  if (Status st = reader->end_section(); !st.is_ok()) return st;
  if (Status st = reader->end_section(); !st.is_ok()) return st;
  return index;
}

StatusOr<StoreImage> build_store_image(const std::string& data,
                                       const std::string& label,
                                       const std::vector<RunRecord>& records) {
  StoreImage image;
  image.store.reserve(data.size());
  StoreIndex index;
  const auto put = [&](std::uint64_t id, std::string_view stream,
                       const RunRecord& record) {
    index.entries.push_back(
        {id, image.store.size(), stream.size(), record.kind, record.label});
    append_frame(image.store, stream);
  };

  // Every stored frame, in order: copied when its bytes are already the
  // canonical encoding of what it decodes to (its verified footer then
  // gives its run id), rewritten in canonical form when they are not.
  auto torn = walk_frames(data, label, [&](std::string_view stream,
                                           const RunRecord& record) {
    snapshot::SnapshotWriter canonical;
    write_run_record(canonical, record);
    if (canonical.buffer() == stream.substr(0, stream.size() - kFooterBytes)) {
      put(stream_digest(stream), stream, record);
    } else {
      const std::string rewritten = canonical.finish();
      put(stream_digest(rewritten), rewritten, record);
    }
  });
  if (!torn.is_ok()) return torn.status();

  // Then each genuinely new record. Dedup by content identity makes the
  // whole operation idempotent — replaying a registration (a resumed
  // sweep re-merging a cell) leaves the bytes untouched.
  for (const RunRecord& record : records) {
    const std::string stream = encode_run_record(record);
    const std::uint64_t id = stream_digest(stream);
    const bool present = std::any_of(
        index.entries.begin(), index.entries.end(),
        [id](const StoreIndex::Entry& entry) { return entry.run_id == id; });
    if (present) continue;
    put(id, stream, record);
    ++image.appended;
  }

  index.store_bytes = image.store.size();
  index.store_digest = snapshot::fnv1a(image.store);
  image.index = encode_store_index(index);
  return image;
}

std::string store_data_path(const std::string& dir) {
  return dir + "/store.dcrun";
}

std::string store_index_path(const std::string& dir) {
  return dir + "/store.idx";
}

std::string store_lock_path(const std::string& dir) { return dir + "/LOCK"; }

StatusOr<StoreContents> load_store(const std::string& dir) {
  auto bytes = read_file(store_data_path(dir));
  if (!bytes.is_ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return StoreContents{};
    }
    return bytes.status();
  }
  return parse_store(*bytes, store_data_path(dir));
}

Status verify_store_index(const std::string& dir) {
  auto index_bytes = read_file(store_index_path(dir));
  if (!index_bytes.is_ok()) return index_bytes.status();
  auto index = parse_store_index(*index_bytes, store_index_path(dir));
  if (!index.is_ok()) return index.status();
  auto store_bytes = read_file(store_data_path(dir));
  const std::string data = store_bytes.is_ok() ? *store_bytes : std::string();
  if (index->store_bytes != data.size() ||
      index->store_digest != snapshot::fnv1a(data)) {
    return Status::failed_precondition(str_format(
        "run-store index '%s' is stale: it pins %llu bytes (digest %016llx) "
        "but the store holds %zu bytes (digest %016llx) — the index is "
        "derived; re-register any record to rebuild it",
        store_index_path(dir).c_str(),
        static_cast<unsigned long long>(index->store_bytes),
        static_cast<unsigned long long>(index->store_digest), data.size(),
        static_cast<unsigned long long>(snapshot::fnv1a(data))));
  }
  return Status::ok();
}

StatusOr<std::uint64_t> append_records(const std::string& dir,
                                       const std::vector<RunRecord>& records) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::internal("run store: cannot create directory '" + dir +
                            "': " + ec.message());
  }
  PidLease::Wording wording;
  wording.site = "rundb.lock";
  wording.busy_prefix = "run store is already being written by";
  wording.busy_suffix =
      "writers serialize through the store lock — retry once it is released";
  // Registration is quick (read + rewrite + two atomic writes), so a
  // briefly-held lease is worth waiting out before reporting contention.
  StatusOr<PidLease> lease = Status::internal("run store: lease not attempted");
  for (int attempt = 0;; ++attempt) {
    lease = PidLease::acquire(store_lock_path(dir), wording);
    if (lease.is_ok() ||
        lease.status().code() != StatusCode::kFailedPrecondition ||
        attempt >= 50) {
      break;
    }
#ifndef _WIN32
    ::usleep(100 * 1000);  // dc-wallclock: writer-contention backoff
#endif
  }
  if (!lease.is_ok()) return lease.status();

  auto data = read_file(store_data_path(dir));
  if (!data.is_ok()) {
    if (data.status().code() != StatusCode::kNotFound) return data.status();
    data = std::string();  // a store nobody has registered into yet
  }
  auto image = build_store_image(*data, store_data_path(dir), records);
  if (!image.is_ok()) return image.status();

  // Rewrite unconditionally: even a no-op append repairs a missing or
  // stale index, and a store whose tail was torn externally is healed to
  // its valid prefix.
  if (Status st = atomic_write_file(store_data_path(dir), image->store,
                                    "rundb.store");
      !st.is_ok()) {
    return st;
  }
  if (Status st = atomic_write_file(store_index_path(dir), image->index,
                                    "rundb.index");
      !st.is_ok()) {
    return st;
  }
  return image->appended;
}

std::vector<std::pair<std::string, double>> provider_metrics(
    const core::SystemResult& system, const core::ProviderResult& provider) {
  // Mirrors metrics::write_results_csv column-for-column (minus the three
  // leading string columns, which are record identity, not metrics).
  // tests/rundb asserts this list against the real CSV header.
  return {
      {"submitted", static_cast<double>(provider.submitted_jobs)},
      {"completed", static_cast<double>(provider.completed_jobs)},
      {"tasks_per_second", provider.tasks_per_second},
      {"consumption_node_hours",
       static_cast<double>(provider.consumption_node_hours)},
      {"exact_node_hours", provider.exact_node_hours},
      {"provider_peak_nodes", static_cast<double>(provider.peak_nodes)},
      {"makespan_seconds", static_cast<double>(provider.makespan)},
      {"mean_wait_seconds", provider.mean_wait_seconds},
      {"max_wait_seconds", static_cast<double>(provider.max_wait_seconds)},
      {"jobs_killed", static_cast<double>(provider.jobs_killed)},
      {"jobs_failed", static_cast<double>(provider.jobs_failed)},
      {"grant_timeouts", static_cast<double>(provider.grant_timeouts)},
      {"goodput_node_hours", provider.goodput_node_hours},
      {"wasted_node_hours", provider.wasted_node_hours},
      {"availability", provider.availability},
      {"platform_total_node_hours",
       static_cast<double>(system.total_consumption_node_hours)},
      {"platform_peak_nodes", static_cast<double>(system.peak_nodes)},
      {"adjusted_nodes", static_cast<double>(system.adjusted_nodes)},
      {"overhead_seconds", system.overhead_seconds},
  };
}

std::vector<RunRecord> make_run_records(
    const std::string& source, const core::SystemResult& result,
    const std::vector<std::pair<std::string, std::string>>& params,
    std::uint64_t trace_events, std::uint64_t trace_dropped,
    const std::string& trace_digest) {
  std::vector<RunRecord> records;
  for (const core::ProviderResult& provider : result.providers) {
    RunRecord record;
    record.kind = "run";
    record.source = source;
    record.label = str_format("%s/%s", core::system_model_name(result.model),
                              provider.provider.c_str());
    record.params = params;
    record.params.emplace_back("system", core::system_model_name(result.model));
    record.params.emplace_back("provider", provider.provider);
    record.params.emplace_back("type",
                               core::workload_type_name(provider.type));
    record.metrics = provider_metrics(result, provider);
    record.trace_events = trace_events;
    record.trace_dropped = trace_dropped;
    record.trace_digest = trace_digest;
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace dc::rundb
