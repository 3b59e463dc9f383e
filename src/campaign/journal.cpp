#include "campaign/journal.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

#include "snapshot/format.hpp"
#include "snapshot/frames.hpp"
#include "util/faultfs.hpp"
#include "util/fsio.hpp"

namespace dc::campaign {
namespace {

std::string errno_text() { return std::strerror(errno); }

StatusOr<CellState> parse_cell_state(std::string_view name) {
  if (name == "claimed") return CellState::kClaimed;
  if (name == "running") return CellState::kRunning;
  if (name == "done") return CellState::kDone;
  if (name == "failed") return CellState::kFailed;
  if (name == "quarantined") return CellState::kQuarantined;
  return Status::invalid_argument("unknown cell state '" + std::string(name) +
                                  "'");
}

/// A journal entry's records, over a writer or a reader.
template <class Io>
Status persist_entry(Io& io, JournalEntry& entry) {
  return io.section("entry", [&]() -> Status {
    std::string kind =
        entry.kind == JournalEntry::Kind::kCampaign ? "campaign" : "cell";
    if (Status st = io.str("kind", kind); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      if (kind == "campaign") {
        entry.kind = JournalEntry::Kind::kCampaign;
      } else if (kind == "cell") {
        entry.kind = JournalEntry::Kind::kCell;
      } else {
        return Status::invalid_argument("unknown journal entry kind '" +
                                        kind + "'");
      }
    }
    if (entry.kind == JournalEntry::Kind::kCampaign) {
      if (Status st = io.u64("spec_digest", entry.spec_digest); !st.is_ok()) {
        return st;
      }
      return io.u64("cell_count", entry.cell_count);
    }
    if (Status st = io.u64("cell", entry.cell); !st.is_ok()) return st;
    std::string state = cell_state_name(entry.state);
    if (Status st = io.str("state", state); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      auto parsed = parse_cell_state(state);
      if (!parsed.is_ok()) return parsed.status();
      entry.state = *parsed;
    }
    if (Status st = io.i64("attempt", entry.attempt); !st.is_ok()) return st;
    if (Status st = io.i64("pid", entry.pid); !st.is_ok()) return st;
    if (Status st = io.u64("artifact_digest", entry.artifact_digest);
        !st.is_ok()) {
      return st;
    }
    return io.str("reason", entry.reason);
  });
}

std::string encode_entry(const JournalEntry& entry) {
  snapshot::SnapshotWriter writer;
  (void)persist_entry(writer, const_cast<JournalEntry&>(entry));  // never fails
  std::string frame;
  snapshot::append_frame(frame, writer.finish());
  return frame;
}

Status decode_entry(std::string payload, JournalEntry& out) {
  auto reader = snapshot::SnapshotReader::from_buffer(std::move(payload));
  if (!reader.is_ok()) return reader.status();
  return persist_entry(*reader, out);
}

constexpr snapshot::FrameWording kWording{
    "campaign journal", "entry",
    "refusing to resume from damaged campaign state; inspect or delete the "
    "campaign directory and re-run",
    " (crash mid-append); resuming from the last complete entry"};

}  // namespace

const char* cell_state_name(CellState state) {
  switch (state) {
    case CellState::kClaimed: return "claimed";
    case CellState::kRunning: return "running";
    case CellState::kDone: return "done";
    case CellState::kFailed: return "failed";
    case CellState::kQuarantined: return "quarantined";
  }
  return "?";
}

JournalEntry JournalEntry::campaign(std::uint64_t digest,
                                    std::uint64_t cells) {
  JournalEntry entry;
  entry.kind = Kind::kCampaign;
  entry.spec_digest = digest;
  entry.cell_count = cells;
  return entry;
}

JournalEntry JournalEntry::cell_state(std::uint64_t cell, CellState state,
                                      std::int64_t attempt) {
  JournalEntry entry;
  entry.kind = Kind::kCell;
  entry.cell = cell;
  entry.state = state;
  entry.attempt = attempt;
  return entry;
}

StatusOr<JournalAppender> JournalAppender::open(const std::string& path) {
#ifndef _WIN32
  faultfs::SiteScope site("campaign.journal.create");
  const int fd =
      faultfs::xopen(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::internal("campaign journal: cannot open '" + path +
                            "' for appending: " + errno_text());
  }
  return JournalAppender(fd, path);
#else
  return Status::internal("campaign journal: POSIX-only");
#endif
}

JournalAppender::JournalAppender(JournalAppender&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

JournalAppender& JournalAppender::operator=(JournalAppender&& other) noexcept {
  if (this != &other) {
#ifndef _WIN32
    if (fd_ >= 0) ::close(fd_);
#endif
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

JournalAppender::~JournalAppender() {
#ifndef _WIN32
  if (fd_ >= 0) ::close(fd_);
#endif
}

Status JournalAppender::append(const JournalEntry& entry) {
#ifndef _WIN32
  if (fd_ < 0) {
    return Status::failed_precondition("campaign journal: appender is closed");
  }
  faultfs::SiteScope site("campaign.journal.append");
  const std::string frame = encode_entry(entry);
  std::size_t written = 0;
  while (written < frame.size()) {
    const long n =
        faultfs::xwrite(fd_, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::internal("campaign journal: write to '" + path_ +
                              "' failed: " + errno_text());
    }
    written += static_cast<std::size_t>(n);
  }
  if (faultfs::xfsync(fd_) != 0) {
    return Status::internal("campaign journal: fsync of '" + path_ +
                            "' failed: " + errno_text());
  }
  return Status::ok();
#else
  (void)entry;
  return Status::internal("campaign journal: POSIX-only");
#endif
}

StatusOr<JournalContents> parse_journal(const std::string& data,
                                        const std::string& label) {
  JournalContents contents;
  auto torn = snapshot::walk_frames(
      data, label, kWording, [&](std::string_view stream) {
        JournalEntry entry;
        Status st = decode_entry(std::string(stream), entry);
        if (st.is_ok()) contents.entries.push_back(std::move(entry));
        return st;
      });
  if (!torn.is_ok()) return torn.status();
  contents.truncated_tail = *torn;
  return contents;
}

StatusOr<JournalContents> load_journal(const std::string& path) {
  auto bytes = read_file(path);
  if (!bytes.is_ok()) return bytes.status();
  return parse_journal(*bytes, path);
}

}  // namespace dc::campaign
