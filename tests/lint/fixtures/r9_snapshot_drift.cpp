// dc-r9 fixture: data members a snapshot walk never names, checked
// across translation units against r9_snapshot_drift.hpp. Never
// compiled, only lexed by the rule tests.
#include "r9_snapshot_drift.hpp"

namespace fixture {

template <class Io>
dc::Status DriftedServer::persist(Io& io) {
  DC_RETURN_IF_ERROR(io.u64("owned", owned_));
  DC_RETURN_IF_ERROR(io.u64("busy", busy_));
  return io.boolean("started", started_);
}

dc::Status DriftedServer::save(dc::snapshot::SnapshotWriter& writer) const {
  return const_cast<DriftedServer&>(*this).persist(writer);
}

// Naming scratch_ outside the walk does not persist it.
dc::Status DriftedServer::restore(dc::snapshot::SnapshotReader& reader) {
  scratch_ = 0;
  return persist(reader);
}

// high_water_ is never named by the walk either, but its declaration
// carries a reviewed dc-r9 waiver, which the project phase consumes.
struct WaivedDrift {
  template <class Io>
  dc::Status persist(Io& io) {
    return io.u64("count", count_);
  }

  unsigned count_ = 0;
  unsigned high_water_ = 0;  // NOLINT(dc-r9)
};

}  // namespace fixture
