// Fuzz target: the sweep-spec parser, the CLI override grammar and the
// run-vocabulary reader behind plan_cell.
//
// Sweep specs come from user-edited files, so the parser sees the worst
// text first. After a successful parse every cell of a small grid is
// planned, so fuzzed axis values reach core::parse_run_settings (the
// reader `dawningcloud run` flags go through too); then the overrides
// path is exercised (the same `key=v1,v2;...` grammar `dc sweep --set`
// accepts).
#include <cstdint>
#include <string>
#include <string_view>

#include "campaign/spec.hpp"

namespace {

constexpr std::size_t kMaxInput = 1 << 18;
constexpr std::uint64_t kMaxPlannedCells = 64;

/// The grid's cell count, or kMaxPlannedCells + 1 once it is past that
/// (a product of axis lengths can overflow 64 bits).
std::uint64_t capped_cell_count(const dc::campaign::SweepSpec& spec) {
  std::uint64_t cells = 1;
  for (const dc::campaign::SweepAxis& axis : spec.axes) {
    if (axis.values.size() > kMaxPlannedCells ||
        cells * axis.values.size() > kMaxPlannedCells) {
      return kMaxPlannedCells + 1;
    }
    cells *= axis.values.size();
  }
  return cells;
}

void fuzz_one(std::string_view data) {
  if (data.size() > kMaxInput) return;
  auto spec = dc::campaign::parse_sweep_spec_string(data, "/dc-fuzz-base");
  if (!spec.is_ok()) return;
  if (capped_cell_count(*spec) <= kMaxPlannedCells) {
    for (const dc::campaign::CellSpec& cell : dc::campaign::expand_grid(*spec)) {
      (void)dc::campaign::plan_cell(cell);
    }
  }
  (void)dc::campaign::apply_spec_overrides(*spec, "quantum=15m");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz_one(std::string_view(reinterpret_cast<const char*>(data), size));
  return 0;
}
