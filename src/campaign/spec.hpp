// Declarative sweep grids for the campaign orchestrator (docs/SWEEP.md).
//
// A sweep spec is a line-oriented `key = value[, value...]` file: two
// campaign settings (`config`, `snapshot-every`) plus any number of sweep
// axes drawn from a fixed vocabulary of run parameters. The cross product
// of the axis value lists is the campaign's cell grid.
//
// Everything here is deterministic by construction:
//
//  * axes are stored in one canonical order (core::run_setting_keys()),
//    whatever order the spec file or the CLI overrides used;
//  * values keep their spec order, so cell N always denotes the same
//    parameter assignment (row-major expansion, last axis fastest);
//  * spec_digest() fingerprints the canonical text, so a resumed campaign
//    can prove its journal belongs to the same grid.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/systems.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace dc::campaign {

/// One sweep dimension: a known run-parameter key and its value list.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// A parsed sweep spec: the experiment config every cell shares, the
/// per-cell snapshot cadence, and the sweep axes in canonical order.
struct SweepSpec {
  std::string config_path;
  SimDuration snapshot_every = 0;  // 0 = no per-cell snapshots
  std::vector<SweepAxis> axes;
};

/// Parses a spec from text. `#` starts a comment; blank lines are
/// skipped. A relative `config` path resolves against `base_dir`.
StatusOr<SweepSpec> parse_sweep_spec_string(std::string_view text,
                                            const std::string& base_dir = {});

/// Reads and parses a spec file; relative `config` paths resolve against
/// the spec file's own directory.
StatusOr<SweepSpec> read_sweep_spec(const std::string& path);

/// Applies CLI overrides: `key=v1,v2` items separated by `;`. An override
/// replaces the axis (or setting) wholesale.
Status apply_spec_overrides(SweepSpec& spec, std::string_view overrides);

/// One grid cell: its row-major index and the axis assignment (canonical
/// key order).
struct CellSpec {
  std::uint64_t id = 0;
  std::vector<std::pair<std::string, std::string>> assignment;

  /// "system=dcs,mttf=18h" — the stable human-readable cell label.
  std::string key() const;
};

/// Expands the full grid, row-major with the last axis varying fastest.
/// A spec with no axes yields one cell with an empty assignment.
std::vector<CellSpec> expand_grid(const SweepSpec& spec);

/// Canonical one-line-per-entry text of the spec (settings first, then
/// axes in canonical order) — the digest input and the journal's record
/// of what was swept.
std::string canonical_spec_text(const SweepSpec& spec);

/// FNV-1a fingerprint of canonical_spec_text().
std::uint64_t spec_digest(const SweepSpec& spec);

/// A cell's assignment resolved into run parameters. The observability
/// hooks stay null: campaign artifacts are results only.
struct CellPlan {
  core::SystemModel model = core::SystemModel::kDcs;
  core::RunOptions options;
};

/// Resolves one cell with core::parse_run_settings, the reader `run`'s
/// flags go through, so a cell runs exactly the world the same flags
/// would. Errors name the cell and the offending key, so a bad spec
/// fails the whole campaign up front instead of quarantining every cell
/// one timeout at a time.
StatusOr<CellPlan> plan_cell(const CellSpec& cell);

}  // namespace dc::campaign
