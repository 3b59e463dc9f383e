#include "obs/profile.hpp"

#include "util/csv.hpp"
#include "util/strings.hpp"

namespace dc::obs {

const char* profile_phase_name(ProfilePhase phase) {
  switch (phase) {
    case ProfilePhase::kDispatch: return "dispatch";
    case ProfilePhase::kSnapshotSave: return "snapshot_save";
    case ProfilePhase::kSnapshotRestore: return "snapshot_restore";
    case ProfilePhase::kExport: return "export";
    case ProfilePhase::kPhaseCount: break;
  }
  return "unknown";
}

void PhaseProfiler::add(ProfilePhase phase, std::uint64_t ns,
                        std::uint64_t units) {
  auto& totals = totals_[static_cast<std::size_t>(phase)];
  ++totals.calls;
  totals.ns += ns;
  totals.units += units;
}

void PhaseProfiler::note(std::string_view name, double value) {
  for (auto& existing : notes_) {
    if (existing.first == name) {
      existing.second = value;
      return;
    }
  }
  notes_.emplace_back(std::string(name), value);
}

std::uint64_t PhaseProfiler::calls(ProfilePhase phase) const {
  return totals_[static_cast<std::size_t>(phase)].calls;
}

std::uint64_t PhaseProfiler::ns(ProfilePhase phase) const {
  return totals_[static_cast<std::size_t>(phase)].ns;
}

std::uint64_t PhaseProfiler::units(ProfilePhase phase) const {
  return totals_[static_cast<std::size_t>(phase)].units;
}

std::string PhaseProfiler::table() const {
  TextTable table({"phase", "calls", "ms", "units", "ns/unit"});
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(ProfilePhase::kPhaseCount); ++i) {
    const auto& totals = totals_[i];
    if (totals.calls == 0) continue;
    table.cell(profile_phase_name(static_cast<ProfilePhase>(i)))
        .cell(static_cast<std::int64_t>(totals.calls))
        .cell(static_cast<double>(totals.ns) / 1e6, 3)
        .cell(static_cast<std::int64_t>(totals.units));
    if (totals.units > 0) {
      table.cell(static_cast<double>(totals.ns) /
                     static_cast<double>(totals.units),
                 1);
    } else {
      table.cell("");
    }
    table.end_row();
  }
  std::string out = table.render("profile");
  for (const auto& [name, value] : notes_) {
    out += str_format("  %s = %.10g\n", name.c_str(), value);
  }
  return out;
}

}  // namespace dc::obs
