// Framed logs of snapshot streams: the campaign journal (docs/SWEEP.md)
// and the run store (docs/FORMATS.md "DCRUN").
//
// A framed log is a sequence of frames, each a u32 LE length followed by
// that many bytes of one complete snapshot-format stream
// (SnapshotWriter::finish(): magic, version, named records, FNV-1a
// checksum footer). Every frame carries its own checksum, so a reader
// tells the two kinds of damage apart:
//
//  * a frame that reaches past EOF is the torn tail of an interrupted
//    append: it is dropped with one kWarn line, and every frame before it
//    stands;
//  * a complete frame that its payload decoder rejects is corruption: the
//    walk refuses with failed_precondition, naming the frame's index and
//    byte offset, rather than let a caller act on damaged data.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace dc::snapshot {

/// Appends one frame to `log`: the u32 LE length of `stream`, then
/// `stream`.
void append_frame(std::string& log, std::string_view stream);

/// How one framed log names itself in the walker's two messages:
///   "<log> '<label>' is corrupt at <frame> N (byte offset B): <why> — <refusal>"
///   "<log> '<label>': dropping torn trailing record at byte offset B<torn_note>"
struct FrameWording {
  const char* log;        // "campaign journal"
  const char* frame;      // "entry"
  const char* refusal;    // "refusing to resume from damaged campaign state; ..."
  const char* torn_note;  // " (crash mid-append); resuming from ..."
};

/// Hands the stream of each complete frame of `data`, in order, to
/// `decode`. A frame reaching past EOF (even a partial length prefix)
/// ends the walk with one kWarn line naming its byte offset. A complete
/// frame whose `decode` fails refuses the walk with failed_precondition
/// carrying the frame's index, its byte offset and the decoder's message.
/// `label` names the input in both messages. Returns whether a torn tail
/// was dropped.
StatusOr<bool> walk_frames(
    std::string_view data, const std::string& label,
    const FrameWording& wording,
    const std::function<Status(std::string_view stream)>& decode);

}  // namespace dc::snapshot
