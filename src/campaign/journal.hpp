// The append-only campaign journal (docs/SWEEP.md).
//
// Every state transition of a campaign — the header that pins the grid,
// then claimed → running(pid) → done(artifact digest) / failed(attempt,
// reason) / quarantined per cell — is one self-verifying frame:
//
//   u32 LE payload length | payload
//
// where the payload is a complete snapshot-format stream
// (snapshot::SnapshotWriter::finish(): magic, version, named records,
// FNV-1a checksum footer). Reusing the snapshot encoding buys the
// journal the same auditability guarantees the simulator state gets:
// framed, named, versioned, and checksummed per entry. The frame codec
// and its crash policy are snapshot/frames.hpp, shared with the run store.
//
// Crash semantics on load:
//
//  * a frame that extends past EOF is the torn tail of a crashed append —
//    it is dropped with a warning and `truncated_tail` is set; every
//    complete frame before it is intact (each carries its own checksum);
//  * a *complete* frame that fails verification is mid-file corruption,
//    not a crash artifact — load refuses with the entry index and byte
//    offset rather than resuming from silently wrong state.
//
// Appends are fsync'd before append() returns, so an acknowledged
// transition survives the orchestrator being SIGKILLed immediately after.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace dc::campaign {

enum class CellState {
  kClaimed,      // picked for execution; worker not yet forked
  kRunning,      // worker forked (pid recorded)
  kDone,         // artifact written and digested
  kFailed,       // one attempt failed (attempt count + reason recorded)
  kQuarantined,  // retries exhausted; reported, not fatal
};

const char* cell_state_name(CellState state);

struct JournalEntry {
  enum class Kind { kCampaign, kCell };
  Kind kind = Kind::kCell;

  // kCampaign: pins the journal to one grid. Written once, first.
  std::uint64_t spec_digest = 0;
  std::uint64_t cell_count = 0;

  // kCell: one state transition.
  std::uint64_t cell = 0;
  CellState state = CellState::kClaimed;
  std::int64_t attempt = 0;            // 1-based
  std::int64_t pid = 0;                // kRunning only
  std::uint64_t artifact_digest = 0;   // kDone: fnv1a of the result bytes
  std::string reason;                  // kFailed / kQuarantined

  static JournalEntry campaign(std::uint64_t digest, std::uint64_t cells);
  static JournalEntry cell_state(std::uint64_t cell, CellState state,
                                 std::int64_t attempt);
};

/// Appends checksummed frames to a journal file, fsyncing each one.
class JournalAppender {
 public:
  /// Opens `path` for appending, creating it when missing.
  static StatusOr<JournalAppender> open(const std::string& path);

  JournalAppender(JournalAppender&& other) noexcept;
  JournalAppender& operator=(JournalAppender&& other) noexcept;
  JournalAppender(const JournalAppender&) = delete;
  JournalAppender& operator=(const JournalAppender&) = delete;
  ~JournalAppender();

  /// Encodes, appends, and fsyncs one entry. When append returns OK the
  /// transition is durable.
  Status append(const JournalEntry& entry);

 private:
  explicit JournalAppender(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  int fd_ = -1;
  std::string path_;
};

struct JournalContents {
  std::vector<JournalEntry> entries;
  /// True when a torn trailing frame was dropped (crash mid-append).
  bool truncated_tail = false;
};

/// Loads every complete frame of `path`. A torn tail is dropped with a
/// kWarn log line; mid-file corruption is a failed_precondition error
/// naming the entry index and byte offset.
StatusOr<JournalContents> load_journal(const std::string& path);

/// Parses an in-memory journal image (the bytes of a journal file).
/// `label` is used in diagnostics in place of a file path. This is the
/// decode core of load_journal, exposed so the fuzzing harness can drive
/// the frame decoder without touching the filesystem.
StatusOr<JournalContents> parse_journal(const std::string& data,
                                        const std::string& label);

}  // namespace dc::campaign
