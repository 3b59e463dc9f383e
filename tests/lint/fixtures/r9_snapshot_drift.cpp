// dc-r9 fixture: snapshot save/restore name drift, checked across
// translation units against r9_snapshot_drift.hpp. Never compiled, only
// lexed by the rule tests.
#include "r9_snapshot_drift.hpp"

namespace fixture {

dc::Status DriftedServer::save(dc::snapshot::SnapshotWriter& writer) const {
  writer.field_u64("owned", owned_);
  writer.field_u64("busy", busy_);
  writer.field_bool("started", started_);
  return dc::Status::ok();
}

// "started" is written above but never read back, and "legacy" is read
// but never written: both directions of drift.
dc::Status DriftedServer::restore(dc::snapshot::SnapshotReader& reader) {
  DC_RETURN_IF_ERROR(reader.read_u64("owned", owned_));
  DC_RETURN_IF_ERROR(reader.read_u64("busy", busy_));
  std::uint64_t legacy = 0;
  DC_RETURN_IF_ERROR(reader.read_u64("legacy", legacy));
  return dc::Status::ok();
}

// Drifted too ("high_water" saved, never restored), but the literal line
// carries a reviewed dc-r9 waiver, which the project phase consumes.
struct WaivedDrift {
  dc::Status save(dc::snapshot::SnapshotWriter& writer) const;
  dc::Status restore(dc::snapshot::SnapshotReader& reader);
};

dc::Status WaivedDrift::save(dc::snapshot::SnapshotWriter& writer) const {
  writer.field_u64("count", count_);
  writer.field_u64("high_water", high_water_);  // NOLINT(dc-r9)
  return dc::Status::ok();
}

dc::Status WaivedDrift::restore(dc::snapshot::SnapshotReader& reader) {
  DC_RETURN_IF_ERROR(reader.read_u64("count", count_));
  return dc::Status::ok();
}

}  // namespace fixture
