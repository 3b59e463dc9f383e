// The component snapshot contract (see docs/SNAPSHOT.md).
//
// A Snapshottable component serializes its *state* — never its callbacks —
// into a SnapshotWriter section, and on restore reads the same field list
// back and re-arms its own pending events/timers against the simulator's
// explicit-sequence restore API. The contract:
//
//  * save() is only called at a quiescent point (between Simulator::run_until
//    chunks): no callback is on the stack and every pending event is strictly
//    in the future, so the snapshot is a pure observer of the run;
//  * restore() is only called on a freshly built, *passive* component — one
//    constructed with the same configuration but with none of its initial
//    events scheduled — inside a simulator between begin_restore() and
//    finish_restore();
//  * save/restore field lists must match one-to-one; drift is caught three
//    ways: field-name checks in SnapshotReader, the dc-r9 lint rule, and
//    the divergence auditor.
#pragma once

#include "snapshot/format.hpp"
#include "util/status.hpp"

namespace dc::snapshot {

class Snapshottable {
 public:
  virtual ~Snapshottable() = default;

  /// Serializes component state into `writer`. The component does not open
  /// its own top-level section; the runner brackets the call so section
  /// names stay globally consistent.
  virtual Status save(SnapshotWriter& writer) const = 0;

  /// Restores state saved by `save` and re-arms pending events/timers.
  virtual Status restore(SnapshotReader& reader) = 0;
};

}  // namespace dc::snapshot
