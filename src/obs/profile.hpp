// Kernel self-profiling (see docs/OBSERVABILITY.md).
//
// A PhaseProfiler accumulates wall-clock time per kernel phase — event
// dispatch, snapshot write/restore, trace export — and reports it as an
// aligned per-run table, followed by the run's named notes.
//
// Wall-clock readings use std::chrono::steady_clock and are strictly
// observational: no simulation decision ever reads them, so profiling a
// run cannot perturb its results (dc-r1 bans wall clocks from
// *simulation* logic; the profiler is measurement, not logic).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dc::obs {

enum class ProfilePhase : std::uint8_t {
  kDispatch = 0,         // Simulator::run_until event dispatch
  kSnapshotSave = 1,     // SystemRunner::save_file
  kSnapshotRestore = 2,  // SystemRunner::restore_file
  kExport = 3,           // trace / metrics export
  kPhaseCount = 4,
};

const char* profile_phase_name(ProfilePhase phase);

class PhaseProfiler {
 public:
  /// RAII phase timer; records on destruction.
  class Scope {
   public:
    Scope(PhaseProfiler* profiler, ProfilePhase phase)
        : profiler_(profiler), phase_(phase),
          start_(std::chrono::steady_clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      profiler_->add(
          phase_,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }

   private:
    PhaseProfiler* profiler_;
    ProfilePhase phase_;
    std::chrono::steady_clock::time_point start_;
  };

  Scope scope(ProfilePhase phase) { return Scope(this, phase); }

  /// Records one timed call of `phase` covering `units` work items
  /// (events dispatched, bytes written, ...).
  void add(ProfilePhase phase, std::uint64_t ns, std::uint64_t units = 0);

  /// Extra named values printed below the phase table
  /// (peak_pending, events_processed, ...). Last write wins.
  void note(std::string_view name, double value);

  std::uint64_t calls(ProfilePhase phase) const;
  std::uint64_t ns(ProfilePhase phase) const;
  std::uint64_t units(ProfilePhase phase) const;

  /// Aligned per-run profile table of the exercised phases, then the
  /// notes in first-write order.
  std::string table() const;

 private:
  struct PhaseTotals {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    std::uint64_t units = 0;
  };
  PhaseTotals totals_[static_cast<std::size_t>(ProfilePhase::kPhaseCount)];
  std::vector<std::pair<std::string, double>> notes_;
};

}  // namespace dc::obs
