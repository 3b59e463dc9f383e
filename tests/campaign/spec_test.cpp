// Sweep-spec regression: parsing, canonical axis order, overrides,
// row-major grid expansion, digest stability, and per-cell plan
// resolution with its up-front diagnostics.
#include "campaign/spec.hpp"

#include <string>

#include <gtest/gtest.h>

#include "core/systems.hpp"
#include "util/time.hpp"

namespace dc::campaign {
namespace {

TEST(SweepSpecParse, ParsesSettingsAndAxes) {
  auto spec = parse_sweep_spec_string(
      "# a comment\n"
      "config = exp.dcfg   # trailing comment\n"
      "snapshot-every = 12h\n"
      "\n"
      "quantum = 15m, 1h\n"
      "system = dcs, ssp\n",
      "/base");
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
  EXPECT_EQ(spec->config_path, "/base/exp.dcfg");
  EXPECT_EQ(spec->snapshot_every, 12 * kHour);
  // Axes come back in canonical order (system before quantum), whatever
  // order the file used.
  ASSERT_EQ(spec->axes.size(), 2u);
  EXPECT_EQ(spec->axes[0].key, "system");
  EXPECT_EQ(spec->axes[1].key, "quantum");
  EXPECT_EQ(spec->axes[1].values, (std::vector<std::string>{"15m", "1h"}));
}

TEST(SweepSpecParse, AbsoluteConfigIgnoresBaseDir) {
  auto spec = parse_sweep_spec_string("config = /abs/exp.dcfg\nsystem = dcs\n",
                                      "/base");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec->config_path, "/abs/exp.dcfg");
}

TEST(SweepSpecParse, MissingConfigRejected) {
  auto spec = parse_sweep_spec_string("system = dcs\n");
  ASSERT_FALSE(spec.is_ok());
  EXPECT_NE(spec.status().message().find("config"), std::string::npos);
}

TEST(SweepSpecParse, UnknownKeyListsVocabulary) {
  for (const std::string key : {"flux-capacitor", "queue"}) {
    auto spec =
        parse_sweep_spec_string("config = exp.dcfg\n" + key + " = on\n");
    ASSERT_FALSE(spec.is_ok()) << key;
    EXPECT_NE(spec.status().message().find(key), std::string::npos);
    EXPECT_NE(spec.status().message().find("fault-seed"), std::string::npos);
  }
}

TEST(SweepSpecParse, DuplicateAxisRejected) {
  auto spec = parse_sweep_spec_string(
      "config = exp.dcfg\nsystem = dcs\nsystem = ssp\n");
  ASSERT_FALSE(spec.is_ok());
  EXPECT_NE(spec.status().message().find("duplicate"), std::string::npos);
}

TEST(SweepSpecParse, EmptyValueRejected) {
  auto spec = parse_sweep_spec_string("config = exp.dcfg\nsystem = dcs,,ssp\n");
  ASSERT_FALSE(spec.is_ok());
}

TEST(SweepSpecParse, BadSnapshotEveryRejected) {
  auto spec =
      parse_sweep_spec_string("config = exp.dcfg\nsnapshot-every = soon\n");
  ASSERT_FALSE(spec.is_ok());
}

TEST(SweepSpecOverrides, ReplaceAndAppend) {
  auto spec = parse_sweep_spec_string("config = exp.dcfg\nsystem = dcs\n");
  ASSERT_TRUE(spec.is_ok());
  ASSERT_TRUE(
      apply_spec_overrides(*spec, "system=ssp,drp; scheduler=sjf").is_ok());
  ASSERT_EQ(spec->axes.size(), 2u);
  EXPECT_EQ(spec->axes[0].key, "system");
  EXPECT_EQ(spec->axes[0].values, (std::vector<std::string>{"ssp", "drp"}));
  EXPECT_EQ(spec->axes[1].key, "scheduler");
}

TEST(SweepSpecOverrides, MalformedItemRejected) {
  auto spec = parse_sweep_spec_string("config = exp.dcfg\nsystem = dcs\n");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_FALSE(apply_spec_overrides(*spec, "system").is_ok());
  EXPECT_FALSE(apply_spec_overrides(*spec, "bogus=1").is_ok());
}

SweepSpec grid_spec() {
  auto spec = parse_sweep_spec_string(
      "config = exp.dcfg\nsystem = dcs, ssp\nquantum = 15m, 30m, 1h\n");
  EXPECT_TRUE(spec.is_ok());
  return *spec;
}

TEST(SweepGrid, RowMajorLastAxisFastest) {
  const auto cells = expand_grid(grid_spec());
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].key(), "system=dcs,quantum=15m");
  EXPECT_EQ(cells[1].key(), "system=dcs,quantum=30m");
  EXPECT_EQ(cells[2].key(), "system=dcs,quantum=1h");
  EXPECT_EQ(cells[3].key(), "system=ssp,quantum=15m");
  EXPECT_EQ(cells[5].id, 5u);
  EXPECT_EQ(cells[5].key(), "system=ssp,quantum=1h");
}

TEST(SweepGrid, NoAxesYieldsOneCell) {
  auto spec = parse_sweep_spec_string("config = exp.dcfg\n");
  ASSERT_TRUE(spec.is_ok());
  const auto cells = expand_grid(*spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].assignment.empty());
}

TEST(SweepDigest, StableAcrossDeclarationOrder) {
  auto a = parse_sweep_spec_string(
      "config = exp.dcfg\nsystem = dcs\nquantum = 15m\n");
  auto b = parse_sweep_spec_string(
      "config = exp.dcfg\nquantum = 15m\nsystem = dcs\n");
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(canonical_spec_text(*a), canonical_spec_text(*b));
  EXPECT_EQ(spec_digest(*a), spec_digest(*b));
}

// The settings and axes of data/smoke_sweep.dcsweep. Campaign journals
// record this digest, so changing it would refuse every existing resume.
TEST(SweepDigest, SmokeGridDigestIsPinned) {
  auto spec = parse_sweep_spec_string(
      "config = paper_experiment.dcfg\nsnapshot-every = 12h\n"
      "system = dcs, ssp\nquantum = 15m, 1h\n");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(canonical_spec_text(*spec),
            "config=paper_experiment.dcfg\nsnapshot-every=43200\n"
            "system=dcs,ssp\nquantum=15m,1h\n");
  EXPECT_EQ(spec_digest(*spec), 0xd997b937d26214caULL);
}

TEST(SweepDigest, SensitiveToValues) {
  auto a = parse_sweep_spec_string("config = exp.dcfg\nsystem = dcs\n");
  auto b = parse_sweep_spec_string("config = exp.dcfg\nsystem = ssp\n");
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_NE(spec_digest(*a), spec_digest(*b));
}

CellSpec cell_of(std::vector<std::pair<std::string, std::string>> assignment) {
  CellSpec cell;
  cell.id = 3;
  cell.assignment = std::move(assignment);
  return cell;
}

TEST(PlanCell, ResolvesEveryKnownAxis) {
  auto plan = plan_cell(cell_of({{"system", "dawningcloud"},
                                 {"scheduler", "easy-backfill"},
                                 {"quantum", "30m"},
                                 {"capacity", "256"},
                                 {"setup", "5m"},
                                 {"mttf", "18h"},
                                 {"mttr", "30m"},
                                 {"fault-seed", "7"}}));
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  EXPECT_EQ(plan->model, core::SystemModel::kDawningCloud);
  EXPECT_EQ(plan->options.htc_scheduler, core::HtcSchedulerKind::kEasyBackfill);
  EXPECT_EQ(plan->options.billing_quantum, 30 * kMinute);
  EXPECT_EQ(plan->options.platform_capacity, 256);
  EXPECT_EQ(plan->options.setup_latency, 5 * kMinute);
  ASSERT_TRUE(plan->options.faults.has_value());
  EXPECT_EQ(plan->options.faults->mean_time_between_failures, 18 * kHour);
  EXPECT_EQ(plan->options.faults->seed, 7u);
}

TEST(PlanCell, RequiresSystemAxis) {
  auto plan = plan_cell(cell_of({{"quantum", "15m"}}));
  ASSERT_FALSE(plan.is_ok());
  EXPECT_NE(plan.status().message().find("'system' axis"), std::string::npos);
}

TEST(PlanCell, ErrorsNameTheCell) {
  auto plan = plan_cell(cell_of({{"system", "vax"}}));
  ASSERT_FALSE(plan.is_ok());
  EXPECT_NE(plan.status().message().find("cell 3"), std::string::npos);
  EXPECT_NE(plan.status().message().find("system=vax"), std::string::npos);
}

TEST(PlanCell, MttfRequiresMttr) {
  auto plan = plan_cell(cell_of({{"system", "dcs"}, {"mttf", "18h"}}));
  ASSERT_FALSE(plan.is_ok());
  EXPECT_NE(plan.status().message().find("together"), std::string::npos);
}

TEST(PlanCell, FaultSeedRequiresFaults) {
  auto plan = plan_cell(cell_of({{"system", "dcs"}, {"fault-seed", "7"}}));
  ASSERT_FALSE(plan.is_ok());
}

TEST(PlanCell, RejectsNonPositiveQuantum) {
  auto plan = plan_cell(cell_of({{"system", "dcs"}, {"quantum", "0"}}));
  ASSERT_FALSE(plan.is_ok());
}

}  // namespace
}  // namespace dc::campaign
