// The run database (docs/FORMATS.md "DCRUN", docs/OBSERVABILITY.md).
//
// A run store is a directory holding every registered run outcome of a
// working tree — single `dc run` invocations and merged sweep-campaign
// cells — as one queryable corpus for `dc report`. It is built from the
// same material as the rest of the durable-artifact layer:
//
//  * `store.dcrun` is append-only in content: a framed log
//    (snapshot/frames.hpp, the campaign journal's codec and crash
//    policy) whose every frame is a complete snapshot-format stream
//    (magic, version, named records, FNV-1a checksum footer) encoding one
//    RunRecord. Records are only ever added, but the I/O is a whole-file
//    rewrite (see below);
//  * writers serialize through a `LOCK` PidLease (util/pidlock.hpp) and
//    rewrite the store atomically, so concurrent registrations never
//    interleave partial frames and readers never observe a torn store.
//
// Appends are idempotent by content: a record's run id is the FNV-1a
// digest of its canonical encoding, and a record whose id is already
// present is skipped. Registering the same campaign twice — the resumed
// and the uninterrupted orchestrator both reach the merge step — leaves
// the store byte-identical, which extends the sweep layer's
// interrupted == uninterrupted contract to the run database.
//
// What an append costs: it reads the whole store and verifies every
// frame (checksum and structure) exactly as parse_store does. A stored
// frame whose bytes already are the canonical encoding of the record it
// decodes to is copied unchanged, and its run id comes from its verified
// checksum footer; only a non-canonical frame is re-encoded. Each new
// record is encoded and hashed once. The store is rewritten with one
// atomic_write_file call — three fsyncs with the lease. An append that
// adds no record and heals nothing (no torn tail, no non-canonical frame)
// writes nothing beyond the lease. A byte of a canonical stored frame
// goes through one FNV-1a pass per append, its frame's checksum.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/systems.hpp"
#include "util/status.hpp"

namespace dc::rundb {

/// One registered run outcome: a (kind, source, label) identity, the
/// ordered parameter assignment that produced it, the ordered metric
/// values it yielded, and an optional trace summary.
struct RunRecord {
  std::string kind;    // "run" | "campaign-cell" (older stores: "bench")
  std::string source;  // config path, "campaign:<digest16>"
  std::string label;   // "dcs/ProviderA", "cell-000002/dcs/ProviderA", ...
  /// Parameter axes in a fixed caller-chosen order (run flags in CLI
  /// order, campaign axes in canonical spec order).
  std::vector<std::pair<std::string, std::string>> params;
  /// Metric values in a fixed caller-chosen order (the results-CSV
  /// column order for simulation runs).
  std::vector<std::pair<std::string, double>> metrics;
  /// Trace summary of the producing run (all zero/empty when untraced).
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::string trace_digest;  // fnv1a hex of the trace export, "" = none

  /// Content identity: FNV-1a of the canonical encoding. Two records
  /// with identical contents collide by construction — that is the
  /// dedup key that makes registration idempotent.
  std::uint64_t run_id() const;

  std::string param(const std::string& key) const;  // "" when absent
};

/// Canonical snapshot-format encoding of one record (a complete stream,
/// SnapshotWriter::finish()).
std::string encode_run_record(const RunRecord& record);

/// Decodes one record stream. Exposed (like snapshot::decode_records and
/// campaign::parse_journal) so the fuzzing harness can drive the decoder
/// without touching the filesystem.
StatusOr<RunRecord> decode_run_record(const std::string& payload);

struct StoreContents {
  std::vector<RunRecord> records;  // append order
  /// True when a torn trailing frame was dropped. The atomic write path
  /// never produces one; a torn tail means external corruption and is
  /// reported, not silently absorbed.
  bool truncated_tail = false;
};

/// Parses an in-memory store image (the bytes of store.dcrun). `label`
/// names the input in diagnostics. A frame extending past EOF is dropped
/// with a warning (truncated_tail); a complete frame that fails
/// verification refuses with the record index and byte offset.
StatusOr<StoreContents> parse_store(const std::string& data,
                                    const std::string& label);

/// The rebuilt store after an append.
struct StoreImage {
  std::string store;           // the new store.dcrun bytes
  std::uint64_t appended = 0;  // records of the batch that were new
};

/// The pure half of append_records: the store image `data` (the bytes of
/// store.dcrun, "" for none) with `records` appended. Every complete frame
/// is verified and kept in order — copied when canonical, re-encoded when
/// not — a torn tail is dropped with a warning, and a corrupt frame
/// refuses exactly as parse_store(data, label) does. Each record of the
/// batch whose run id is not yet present (stored or earlier in the batch)
/// is then appended. No filesystem access; the fuzzing harness drives it.
StatusOr<StoreImage> build_store_image(const std::string& data,
                                       const std::string& label,
                                       const std::vector<RunRecord>& records);

/// Paths inside a store directory (single source of truth).
std::string store_data_path(const std::string& dir);
std::string store_lock_path(const std::string& dir);

/// Loads `<dir>/store.dcrun`. A missing store is an empty store (reading
/// a database nobody has registered into yet is not an error).
StatusOr<StoreContents> load_store(const std::string& dir);

/// Appends `records` to the store under `dir` (created if missing),
/// skipping records whose run id is already present: under the LOCK
/// lease it reads store.dcrun, builds the new image with
/// build_store_image, and writes it with one atomic_write_file call. A
/// held lease is retried briefly before giving up. Returns the number of
/// records actually appended (0 = everything was already registered).
StatusOr<std::uint64_t> append_records(const std::string& dir,
                                       const std::vector<RunRecord>& records);

/// The results-CSV metric columns of one provider row, in
/// metrics::write_results_csv column order and under the same names —
/// the canonical metric vocabulary for simulation-run records. (The
/// names are asserted against the CSV header in tests/rundb.)
std::vector<std::pair<std::string, double>> provider_metrics(
    const core::SystemResult& system, const core::ProviderResult& provider);

/// Builds the per-provider records of one finished run: kind "run",
/// label "<system>/<provider>", shared params and trace summary.
std::vector<RunRecord> make_run_records(
    const std::string& source, const core::SystemResult& result,
    const std::vector<std::pair<std::string, std::string>>& params,
    std::uint64_t trace_events = 0, std::uint64_t trace_dropped = 0,
    const std::string& trace_digest = {});

}  // namespace dc::rundb
