// Crash-consistent file primitives shared by the snapshot writer and the
// campaign orchestrator (docs/SNAPSHOT.md, docs/SWEEP.md).
//
// The durability contract of atomic_write_file is the full POSIX
// tmp-fsync-rename-fsync dance, not just the rename:
//
//  1. the bytes land in `path + ".tmp"`;
//  2. the temp file is fsync'd *before* the rename — otherwise a crash
//     after the rename but before writeback can leave the final name
//     pointing at a zero-length or partial inode;
//  3. rename(tmp, path) — atomic replacement within one filesystem;
//  4. the containing directory is fsync'd *after* the rename, so the
//     directory entry itself survives a power cut.
//
// On every failure path the temp file is unlinked, so an interrupted or
// failed write never litters the directory with stale `.tmp` files, and
// a pre-existing `path` is left untouched.
//
// Every primitive inside atomic_write_file goes through the util/faultfs
// seam (docs/ROBUSTNESS.md): under an installed fault plan the open,
// each write, the fsyncs, the close, and the rename can individually
// fail, short-write, or crash the process, and tools/drill verifies
// the contract above actually holds at every such point. The `site`
// argument names the I/O site for fault addressing and enumeration
// ("snapshot.save", "campaign.results.csv", ...).
#pragma once

#include <string>
#include <string_view>

#include "util/status.hpp"

namespace dc {

/// Atomically replaces `path` with `bytes` (see the contract above).
/// The destination directory must exist; atomic_write_file never creates
/// directories. Readers see either the previous complete contents or the
/// new complete contents, never a mix and never a partial file.
/// `site` names the durable-write site for faultfs addressing; callers
/// already inside a faultfs::SiteScope may omit it.
Status atomic_write_file(const std::string& path, std::string_view bytes,
                         std::string_view site = {});

/// Reads a whole file into a string with one read sized by its length —
/// the file reader for every artifact (snapshots, journals, stores).
/// NotFound when the file does not exist; other I/O failures come back as
/// internal errors.
StatusOr<std::string> read_file(const std::string& path);

}  // namespace dc
