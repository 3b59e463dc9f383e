#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <string>

namespace dc::obs {
namespace {

TEST(PhaseProfiler, AddAccumulatesCallsNsAndUnits) {
  PhaseProfiler profiler;
  profiler.add(ProfilePhase::kDispatch, 1000, 10);
  profiler.add(ProfilePhase::kDispatch, 2000, 30);
  profiler.add(ProfilePhase::kExport, 500);
  EXPECT_EQ(profiler.calls(ProfilePhase::kDispatch), 2u);
  EXPECT_EQ(profiler.ns(ProfilePhase::kDispatch), 3000u);
  EXPECT_EQ(profiler.units(ProfilePhase::kDispatch), 40u);
  EXPECT_EQ(profiler.calls(ProfilePhase::kExport), 1u);
  EXPECT_EQ(profiler.calls(ProfilePhase::kSnapshotRestore), 0u);
}

TEST(PhaseProfiler, ScopeRecordsOnDestruction) {
  PhaseProfiler profiler;
  { auto scope = profiler.scope(ProfilePhase::kSnapshotSave); }
  EXPECT_EQ(profiler.calls(ProfilePhase::kSnapshotSave), 1u);
}

TEST(PhaseProfiler, TableShowsTheLastWriteOfEachNote) {
  PhaseProfiler profiler;
  profiler.note("events_processed", 100.0);
  profiler.note("peak_pending", 7.0);
  profiler.note("events_processed", 200.0);  // last write wins
  const std::string table = profiler.table();
  EXPECT_NE(table.find("events_processed = 200\n"), std::string::npos) << table;
  EXPECT_EQ(table.find("events_processed = 100"), std::string::npos) << table;
  // A rewritten note keeps the place of its first write.
  EXPECT_LT(table.find("events_processed"), table.find("peak_pending = 7"))
      << table;
}

TEST(PhaseProfiler, TableShowsExercisedPhasesOnly) {
  PhaseProfiler profiler;
  profiler.add(ProfilePhase::kDispatch, 2000000, 50);
  profiler.note("peak_pending", 12.0);
  const std::string table = profiler.table();
  EXPECT_NE(table.find("dispatch"), std::string::npos) << table;
  EXPECT_NE(table.find("peak_pending = 12"), std::string::npos) << table;
  EXPECT_EQ(table.find("snapshot_restore"), std::string::npos) << table;
}

}  // namespace
}  // namespace dc::obs
