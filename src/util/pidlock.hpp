// A crash-safe single-writer pid lease (docs/SWEEP.md, docs/FORMATS.md).
//
// PidLease is the campaign orchestrator's lock and the run store's:
// an O_EXCL-created file stamped with the holder's pid *and* its kernel
// start tick, so holding the file means being the resource's only writer.
// The start tick defeats pid recycling — a stale lease whose pid was
// reused by an unrelated live process is still detected as stale and
// broken with a warning, never treated as a live holder. Corrupt or
// unparseable lease contents are likewise stale, never fatal.
//
// The lease write goes through the util/faultfs seam, so tools/drill can
// fault every step; cleanup of our own partial lease is never injected.
// Callers supply the diagnostic wording (who "holds" the resource and
// what the single-writer rule is called), so campaign and run-store
// locks report contention in their own vocabulary.
#pragma once

#include <string>
#include <string_view>

#include "util/status.hpp"

namespace dc {

/// The kernel start-tick of process `pid` (/proc/<pid>/stat field 22), or
/// -1 when the process does not exist or the stat line cannot be parsed.
/// Together with the pid this forms a recycling-proof process identity:
/// a recycled pid gets a different start tick.
long long process_start_ticks(long long pid);

class PidLease {
 public:
  /// Diagnostic wording for one lock flavour. The busy (live-holder)
  /// message is rendered as:
  ///   "<busy_prefix> live pid N (lock 'path'); <busy_suffix>"
  struct Wording {
    std::string site;         // faultfs I/O site name, e.g. "campaign.lock"
    std::string busy_prefix;  // "campaign is already being orchestrated by"
    std::string busy_suffix;  // "... — wait for it or kill it first"
  };

  /// Creates `path` exclusively with this process's pid+start-tick stamp.
  /// A live matching holder is a failed_precondition; dead, recycled, or
  /// unreadable leases are broken with a warning and retried once.
  static StatusOr<PidLease> acquire(const std::string& path,
                                    const Wording& wording);

  PidLease(PidLease&& other) noexcept;
  PidLease& operator=(PidLease&& other) noexcept;
  PidLease(const PidLease&) = delete;
  PidLease& operator=(const PidLease&) = delete;
  /// Releases (unlinks) the lease.
  ~PidLease();

  const std::string& path() const { return path_; }

 private:
  explicit PidLease(std::string path) : path_(std::move(path)) {}
  std::string path_;  // empty = released / moved-from
};

}  // namespace dc
