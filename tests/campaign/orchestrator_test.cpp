// Orchestrator regression: journal folding, status formatting,
// campaign-directory paths, and the up-front refusals (invalid grid,
// missing journal). The full fork/SIGKILL/resume behaviour is exercised
// end-to-end by the campaign scenarios of tools/drill.cpp (ctests
// drill_kill_orchestrator, drill_kill_worker, drill_hang_worker,
// drill_poison_cell and drill_double_orchestrate).
#include "campaign/orchestrator.hpp"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "campaign/journal.hpp"
#include "campaign/spec.hpp"

namespace dc::campaign {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void append_all(const std::string& campaign_dir,
                const std::vector<JournalEntry>& entries) {
  auto appender = JournalAppender::open(campaign_journal_path(campaign_dir));
  ASSERT_TRUE(appender.is_ok()) << appender.status().to_string();
  for (const JournalEntry& entry : entries) {
    ASSERT_TRUE(appender->append(entry).is_ok());
  }
}

TEST(CampaignPaths, LiveUnderTheCampaignDir) {
  EXPECT_EQ(campaign_journal_path("c"), "c/journal.dcj");
  EXPECT_EQ(campaign_lock_path("c"), "c/LOCK");
  EXPECT_EQ(campaign_cell_dir("c", 7), "c/cells/cell-000007");
  EXPECT_EQ(campaign_results_csv_path("c"), "c/results.csv");
  EXPECT_EQ(campaign_results_json_path("c"), "c/results.json");
}

TEST(FoldJournal, LatestStateWinsPerCell) {
  const std::string dir = temp_dir("fold_latest");
  JournalEntry running = JournalEntry::cell_state(0, CellState::kRunning, 1);
  running.pid = 777;
  JournalEntry done = JournalEntry::cell_state(0, CellState::kDone, 1);
  done.artifact_digest = 0x1234;
  JournalEntry failed = JournalEntry::cell_state(1, CellState::kFailed, 1);
  failed.reason = "exit code 2";
  JournalEntry retry = JournalEntry::cell_state(1, CellState::kRunning, 2);
  retry.pid = 778;
  append_all(dir, {JournalEntry::campaign(0xbeef, 2),
                   JournalEntry::cell_state(0, CellState::kClaimed, 1), running,
                   done, failed, retry});

  auto status = fold_campaign_journal(dir);
  ASSERT_TRUE(status.is_ok()) << status.status().to_string();
  EXPECT_EQ(status->spec_digest, 0xbeefu);
  EXPECT_EQ(status->cell_count, 2u);
  ASSERT_EQ(status->cells.size(), 2u);

  const auto& cell0 = status->cells.at(0);
  EXPECT_EQ(cell0.state, CellState::kDone);
  EXPECT_EQ(cell0.artifact_digest, 0x1234u);
  EXPECT_EQ(cell0.attempts, 1);

  // Cell 1's latest transition is the attempt-2 running record, but the
  // attempt-1 failure reason is retained for reporting.
  const auto& cell1 = status->cells.at(1);
  EXPECT_EQ(cell1.state, CellState::kRunning);
  EXPECT_EQ(cell1.attempts, 2);
  EXPECT_EQ(cell1.pid, 778);
  EXPECT_EQ(cell1.reason, "exit code 2");
}

TEST(FoldJournal, MissingJournalErrors) {
  const std::string dir = temp_dir("fold_missing");
  auto status = fold_campaign_journal(dir);
  EXPECT_FALSE(status.is_ok());
}

TEST(FormatStatus, SummarizesCounts) {
  const std::string dir = temp_dir("fold_format");
  JournalEntry done = JournalEntry::cell_state(0, CellState::kDone, 1);
  done.artifact_digest = 0x77;
  JournalEntry quarantined =
      JournalEntry::cell_state(1, CellState::kQuarantined, 3);
  quarantined.reason = "heartbeat timeout";
  append_all(dir, {JournalEntry::campaign(0x1, 4), done, quarantined});

  auto status = fold_campaign_journal(dir);
  ASSERT_TRUE(status.is_ok());
  const std::string text = format_campaign_status(*status);
  EXPECT_NE(text.find("4 cells"), std::string::npos) << text;
  EXPECT_NE(text.find("done 1, quarantined 1"), std::string::npos) << text;
  EXPECT_NE(text.find("not started 2"), std::string::npos) << text;
  EXPECT_NE(text.find("heartbeat timeout"), std::string::npos) << text;
}

TEST(RunCampaign, InvalidGridFailsBeforeAnyWork) {
  // No 'system' axis: every cell is unplannable, and the campaign must
  // refuse up front — no journal, no cells directory content.
  auto spec = parse_sweep_spec_string("config = /nonexistent.dcfg\n");
  ASSERT_TRUE(spec.is_ok());
  OrchestratorConfig config;
  config.campaign_dir = temp_dir("invalid_grid");
  auto report = run_campaign(*spec, config);
  ASSERT_FALSE(report.is_ok());
  EXPECT_NE(report.status().message().find("'system' axis"), std::string::npos);
  EXPECT_FALSE(
      std::filesystem::exists(campaign_journal_path(config.campaign_dir)));
}

TEST(RunCampaign, ConfigValidationRejected) {
  OrchestratorConfig config;
  config.campaign_dir = temp_dir("bad_config");
  config.workers = 0;
  auto spec = parse_sweep_spec_string("config = x.dcfg\nsystem = dcs\n");
  ASSERT_TRUE(spec.is_ok());
  auto report = run_campaign(*spec, config);
  ASSERT_FALSE(report.is_ok());
  EXPECT_NE(report.status().message().find("--workers"), std::string::npos);
}

}  // namespace
}  // namespace dc::campaign
