#include "rundb/store.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "snapshot/format.hpp"
#include "snapshot/frames.hpp"
#include "util/fsio.hpp"
#include "util/pidlock.hpp"
#include "util/strings.hpp"

namespace dc::rundb {
namespace {

/// Bytes of a record stream's FNV-1a checksum footer.
constexpr std::size_t kFooterBytes = sizeof(std::uint64_t);

/// A run record's records, over a writer or a reader: a writer gets the
/// canonical record list, encode_run_record minus the footer, so a stored
/// stream can be compared against it before any checksum pass runs.
template <class Io>
Status persist_run_record(Io& io, RunRecord& record) {
  const auto params = [&]() -> Status {
    const auto each_param = [&](auto& param) -> Status {
      if (Status st = io.str("key", param.first); !st.is_ok()) return st;
      return io.str("value", param.second);
    };
    return snapshot::list(io, "count", record.params, each_param);
  };
  const auto metrics = [&]() -> Status {
    const auto each_metric = [&](auto& metric) -> Status {
      if (Status st = io.str("name", metric.first); !st.is_ok()) return st;
      return io.f64("value", metric.second);
    };
    return snapshot::list(io, "count", record.metrics, each_metric);
  };
  const auto trace = [&]() -> Status {
    if (Status st = io.u64("events", record.trace_events); !st.is_ok()) {
      return st;
    }
    if (Status st = io.u64("dropped", record.trace_dropped); !st.is_ok()) {
      return st;
    }
    return io.str("digest", record.trace_digest);
  };
  if (Status st = io.begin_section("run"); !st.is_ok()) return st;
  if (Status st = io.str("kind", record.kind); !st.is_ok()) return st;
  if (Status st = io.str("source", record.source); !st.is_ok()) return st;
  if (Status st = io.str("label", record.label); !st.is_ok()) return st;
  if (Status st = io.section("params", params); !st.is_ok()) return st;
  if (Status st = io.section("metrics", metrics); !st.is_ok()) return st;
  if (Status st = io.section("trace", trace); !st.is_ok()) return st;
  // A reader stops here and ignores whatever follows the trace section.
  if constexpr (Io::kSaving) io.end_section();
  return Status::ok();
}

void write_run_record(snapshot::SnapshotWriter& writer,
                      const RunRecord& record) {
  // A writer never fails.
  (void)persist_run_record(writer, const_cast<RunRecord&>(record));
}

/// fnv1a(stream) of a stream whose footer is fnv1a(body) — every
/// SnapshotWriter::finish() output and every verified frame — from the
/// footer alone: one pass over 8 bytes instead of the whole stream.
std::uint64_t stream_digest(std::string_view stream) {
  const std::string_view footer = stream.substr(stream.size() - kFooterBytes);
  return snapshot::fnv1a(footer,
                         snapshot::load_le<std::uint64_t>(footer.data()));
}

constexpr snapshot::FrameWording kWording{
    "run store", "record",
    "refusing to report from damaged run data; delete the store directory "
    "and re-register",
    "; the atomic write path never tears — the store was damaged externally"};

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
  if (Status st = persist_run_record(*reader, record); !st.is_ok()) return st;
  return record;
}

StatusOr<StoreContents> parse_store(const std::string& data,
                                    const std::string& label) {
  StoreContents contents;
  auto torn = snapshot::walk_frames(
      data, label, kWording, [&](std::string_view stream) {
        auto record = decode_run_record(std::string(stream));
        if (!record.is_ok()) return record.status();
        contents.records.push_back(std::move(*record));
        return Status::ok();
      });
  if (!torn.is_ok()) return torn.status();
  contents.truncated_tail = *torn;
  return contents;
}

StatusOr<StoreImage> build_store_image(const std::string& data,
                                       const std::string& label,
                                       const std::vector<RunRecord>& records) {
  StoreImage image;
  image.store.reserve(data.size());
  std::vector<std::uint64_t> ids;  // run id of each frame of the image
  const auto put = [&](std::uint64_t id, std::string_view stream) {
    ids.push_back(id);
    snapshot::append_frame(image.store, stream);
  };

  // Every stored frame, in order: copied when its bytes are already the
  // canonical encoding of what it decodes to (its verified footer then
  // gives its run id), rewritten in canonical form when they are not.
  auto torn = snapshot::walk_frames(
      data, label, kWording, [&](std::string_view stream) {
        auto record = decode_run_record(std::string(stream));
        if (!record.is_ok()) return record.status();
        snapshot::SnapshotWriter canonical;
        write_run_record(canonical, *record);
        if (canonical.buffer() ==
            stream.substr(0, stream.size() - kFooterBytes)) {
          put(stream_digest(stream), stream);
        } else {
          const std::string rewritten = canonical.finish();
          put(stream_digest(rewritten), rewritten);
        }
        return Status::ok();
      });
  if (!torn.is_ok()) return torn.status();

  // Then each genuinely new record. Dedup by content identity makes the
  // whole operation idempotent — replaying a registration (a resumed
  // sweep re-merging a cell) leaves the bytes untouched.
  for (const RunRecord& record : records) {
    const std::string stream = encode_run_record(record);
    const std::uint64_t id = stream_digest(stream);
    if (std::find(ids.begin(), ids.end(), id) != ids.end()) continue;
    put(id, stream);
    ++image.appended;
  }
  return image;
}

std::string store_data_path(const std::string& dir) {
  return dir + "/store.dcrun";
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
  // Registration is quick (read + rebuild + one atomic write), so a
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
  const bool exists = data.is_ok();
  if (!exists) {
    if (data.status().code() != StatusCode::kNotFound) return data.status();
    data = std::string();  // a store nobody has registered into yet
  }
  auto image = build_store_image(*data, store_data_path(dir), records);
  if (!image.is_ok()) return image.status();

  // An image equal to the stored bytes added no record and healed nothing:
  // leave the file alone. A torn tail or a non-canonical frame makes the
  // image differ, so those are still rewritten.
  if (exists && image->store == *data) return image->appended;
  if (Status st = atomic_write_file(store_data_path(dir), image->store,
                                    "rundb.store");
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
