// Deterministic environment-fault injection behind util/fsio (see
// docs/ROBUSTNESS.md).
//
// Every durable-write path in the toolchain — snapshot save, campaign
// journal append, campaign lock, cell results, merged results, metrics
// and trace exports — funnels through a small set of hooked POSIX
// primitives (xopen/xwrite/xfsync/xrename/xclose) inside a *named I/O
// site* (SiteScope). With no plan installed the hooks are passthrough
// (one relaxed atomic load); with a plan installed they consult a
// declarative list of fault rules and misbehave exactly like a hostile
// host would:
//
//   fault=eio / fault=enospc   the Nth matching op fails with that errno
//   fault=short bytes=K        the Nth write writes only K bytes and
//                              reports K (exercises caller retry loops)
//   fault=torn bytes=K         the Nth write writes K bytes then the
//                              process dies (torn artifact on disk)
//   fault=crash                the process dies *before* the Nth op
//   fault=crash-after          the process dies *after* the Nth op
//                              (e.g. rename done, directory not synced)
//   fault=trunc bytes=K        the Nth op succeeds, then the destination
//                              file is truncated to K bytes (writeback
//                              loss after an apparently successful write)
//
// Determinism is by construction, not by seed: plans address operations
// by (site, op, nth) counters, and every toolchain run is already
// deterministic, so "the 3rd journal append write" is the same byte in
// every execution. There is deliberately no RNG in this layer — a fault
// drill that cannot be replayed is a fault drill that cannot be debugged.
//
// Plans are selected per process via DC_FAULT_PLAN (inline rules,
// ';'-separated) or DC_FAULT_PLAN_FILE, and via --fault-plan on the CLI.
// DC_FAULT_TRACE=<path> appends one line per hooked operation
// ("HIT <site> <op> <path>", plus "FIRED <site> <op> <fault>" when a rule
// triggers) — the enumeration channel tools/drill uses to discover
// every I/O site a run reaches. Rules marked `once` disarm across process
// boundaries through marker files in DC_FAULT_ONCE_DIR, so a retried
// campaign worker survives the retry (a transient host fault, not a
// poisoned cell).
//
// Cleanup paths (the unlink of a temp file after a failed write) are
// intentionally NOT hooked: the zero-debris invariant tools/drill verifies
// would be vacuous if the injector could also veto the cleanup.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace dc::faultfs {

/// Hooked primitive operations, in the order a durable write performs
/// them: open, write(s), fsync, close, rename, directory fsync.
enum class Op : std::uint8_t { kOpen, kWrite, kFsync, kRename, kClose };

const char* op_name(Op op);
StatusOr<Op> parse_op(std::string_view text);

enum class FaultKind : std::uint8_t {
  kErrno,       // fail the op with `error`
  kShort,       // write: report only `bytes` bytes written
  kTorn,        // write: land `bytes` bytes, then die
  kCrashBefore, // die before performing the op
  kCrashAfter,  // perform the op, then die
  kTruncate,    // perform the op, then truncate the destination to `bytes`
};

const char* fault_kind_name(FaultKind kind);

/// Exit code of injected crashes (kTorn/kCrashBefore/kCrashAfter) — raw
/// _exit, no atexit flushing, so a "crash" is as abrupt as a SIGKILL
/// while still being distinguishable from one in a parent's wstatus.
inline constexpr int kCrashExitCode = 86;

/// One declarative rule: at the `nth` occurrence of `op` inside a site
/// matching `site` ("*" matches everything; a trailing '*' is a prefix
/// match), inject `kind`.
struct FaultRule {
  std::string site = "*";
  Op op = Op::kWrite;
  std::uint64_t nth = 1;  // 1-based; 0 = every occurrence
  FaultKind kind = FaultKind::kErrno;
  int error = 0;             // errno for kErrno (EIO, ENOSPC, ...)
  std::uint64_t bytes = 0;   // kShort / kTorn / kTruncate payload size
  bool once = false;         // disarm across processes via a marker file
};

struct FaultPlan {
  std::vector<FaultRule> rules;
};

/// Parses the line-oriented plan syntax (';' also separates rules, so a
/// whole plan fits in one environment variable):
///
///   # fail the first fsync of every snapshot save with ENOSPC
///   site=snapshot.save op=fsync nth=1 fault=enospc
///   site=campaign.journal.append op=write nth=2 fault=torn bytes=5 once
///
/// Unknown keys, unknown ops/faults, and malformed counts are reported
/// with the offending rule text.
StatusOr<FaultPlan> parse_fault_plan(std::string_view text);

/// Installs `plan` for this process (replacing any active plan) and
/// resets all match counters. Forked children inherit the installed plan.
void install_plan(FaultPlan plan);

/// Removes the active plan and disables tracing.
void reset();

bool plan_active();

/// Total rules fired so far in this process.
std::uint64_t fired_total();

/// Appends "HIT <site> <op> <path>" per hooked op (and "FIRED ..." per
/// injection) to `path`; empty disables. Lines are single raw O_APPEND
/// writes, so concurrent processes sharing one trace file interleave
/// whole lines.
void set_trace_path(std::string path);

/// Directory for `once` rule marker files (created on first fire).
void set_marker_dir(std::string dir);

/// Reads DC_FAULT_PLAN / DC_FAULT_PLAN_FILE / DC_FAULT_TRACE /
/// DC_FAULT_ONCE_DIR and installs accordingly. OK (and a no-op) when the
/// environment selects nothing.
Status install_from_env();

/// Names the I/O site for every hooked primitive reached in this scope
/// (thread-local, nestable; the innermost scope wins).
class SiteScope {
 public:
  explicit SiteScope(std::string_view site);
  SiteScope(const SiteScope&) = delete;
  SiteScope& operator=(const SiteScope&) = delete;
  ~SiteScope();
};

/// The innermost active site name, or "" outside any scope.
std::string_view current_site();

// Hooked primitives. Signatures mirror POSIX (mode is int to keep
// <sys/stat.h> out of this header); on non-POSIX builds they degrade to
// the std fallbacks with no injection.
int xopen(const char* path, int flags, int mode);
long xwrite(int fd, const void* buf, std::size_t count);
int xfsync(int fd);
int xrename(const char* from, const char* to);
int xclose(int fd);

}  // namespace dc::faultfs
