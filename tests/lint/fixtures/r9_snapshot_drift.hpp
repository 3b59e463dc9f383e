// dc-r9 fixture header: the class declaration half of the cross-TU join.
// Never compiled, only lexed; the member list lives here while the
// persist walk lives in r9_snapshot_drift.cpp, exactly the split the
// project model exists to see across.
#pragma once

#include "snapshot/format.hpp"

namespace fixture {

class DriftedServer {
 public:
  dc::Status save(dc::snapshot::SnapshotWriter& writer) const;
  dc::Status restore(dc::snapshot::SnapshotReader& reader);

 private:
  template <class Io>
  dc::Status persist(Io& io);

  unsigned owned_ = 0;
  unsigned busy_ = 0;
  bool started_ = false;
  int scratch_ = 0;  // never named by the walk and not volatile: dc-r9 fires
  void* trace_ = nullptr;  // dc-volatile: rebuilt on attach
};

}  // namespace fixture
