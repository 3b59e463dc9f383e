// Campaign-journal regression: frame round trips, the crash-semantics
// split (torn tail warn-and-drop vs mid-file corruption refusal), and the
// campaign lock — a util/pidlock PidLease with the campaign's wording —
// that rejects a second orchestrator.
#include "campaign/journal.hpp"

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include <unistd.h>

#include "campaign/orchestrator.hpp"
#include "snapshot/format.hpp"
#include "util/log.hpp"
#include "util/pidlock.hpp"
#include "util/strings.hpp"

namespace dc::campaign {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void write_sample_journal(const std::string& path) {
  auto appender = JournalAppender::open(path);
  ASSERT_TRUE(appender.is_ok()) << appender.status().to_string();
  ASSERT_TRUE(appender->append(JournalEntry::campaign(0xabcd, 4)).is_ok());
  ASSERT_TRUE(
      appender->append(JournalEntry::cell_state(0, CellState::kClaimed, 1))
          .is_ok());
  JournalEntry running = JournalEntry::cell_state(0, CellState::kRunning, 1);
  running.pid = 4242;
  ASSERT_TRUE(appender->append(running).is_ok());
  JournalEntry done = JournalEntry::cell_state(0, CellState::kDone, 1);
  done.artifact_digest = 0xfeedbeef;
  ASSERT_TRUE(appender->append(done).is_ok());
  JournalEntry failed = JournalEntry::cell_state(1, CellState::kFailed, 2);
  failed.reason = "exit code 3";
  ASSERT_TRUE(appender->append(failed).is_ok());
}

TEST(Journal, RoundTripsEveryEntryShape) {
  const std::string path = temp_path("journal_roundtrip.dcj");
  ::unlink(path.c_str());
  write_sample_journal(path);

  auto contents = load_journal(path);
  ASSERT_TRUE(contents.is_ok()) << contents.status().to_string();
  EXPECT_FALSE(contents->truncated_tail);
  ASSERT_EQ(contents->entries.size(), 5u);

  EXPECT_EQ(contents->entries[0].kind, JournalEntry::Kind::kCampaign);
  EXPECT_EQ(contents->entries[0].spec_digest, 0xabcdu);
  EXPECT_EQ(contents->entries[0].cell_count, 4u);

  EXPECT_EQ(contents->entries[2].state, CellState::kRunning);
  EXPECT_EQ(contents->entries[2].pid, 4242);
  EXPECT_EQ(contents->entries[3].artifact_digest, 0xfeedbeefu);
  EXPECT_EQ(contents->entries[4].attempt, 2);
  EXPECT_EQ(contents->entries[4].reason, "exit code 3");
}

// One frame of each entry kind, every field set, pinned by FNV-1a: the
// round trip above would pass a codec that changed both directions alike.
TEST(Journal, EntryFramesArePinned) {
  JournalEntry cell = JournalEntry::cell_state(7, CellState::kFailed, 3);
  cell.pid = 4242;
  cell.artifact_digest = 0xfeedbeef;
  cell.reason = "exit code 3";
  const struct {
    const char* name;
    JournalEntry entry;
    const char* digest;
  } pins[] = {
      {"campaign", JournalEntry::campaign(0xabcd, 4), "997262d03e4c0647"},
      {"cell", cell, "2e86b3881a63057c"},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(pin.name);
    const std::string path = temp_path(std::string("journal_pin_") + pin.name);
    ::unlink(path.c_str());
    {
      auto appender = JournalAppender::open(path);
      ASSERT_TRUE(appender.is_ok()) << appender.status().to_string();
      ASSERT_TRUE(appender->append(pin.entry).is_ok());
    }
    EXPECT_EQ(str_format("%016llx", static_cast<unsigned long long>(
                                        snapshot::fnv1a(slurp(path)))),
              pin.digest);
  }
}

TEST(Journal, TornTailIsDroppedWithWarning) {
  const std::string path = temp_path("journal_torn.dcj");
  ::unlink(path.c_str());
  write_sample_journal(path);

  // A crash mid-append: a length prefix promising more bytes than exist.
  std::string bytes = slurp(path);
  const std::size_t complete = bytes.size();
  bytes += std::string("\x40\x00\x00\x00partial", 11);
  dump(path, bytes);

  ScopedLogLevel quiet(LogLevel::kOff);
  auto contents = load_journal(path);
  ASSERT_TRUE(contents.is_ok()) << contents.status().to_string();
  EXPECT_TRUE(contents->truncated_tail);
  EXPECT_EQ(contents->entries.size(), 5u);

  // Even a torn length prefix alone (fewer than 4 bytes) is a tail, not
  // corruption.
  dump(path, bytes.substr(0, complete) + "\x07");
  auto short_tail = load_journal(path);
  ASSERT_TRUE(short_tail.is_ok());
  EXPECT_TRUE(short_tail->truncated_tail);
  EXPECT_EQ(short_tail->entries.size(), 5u);
}

TEST(Journal, MidFileCorruptionRefusesWithPreciseError) {
  const std::string path = temp_path("journal_corrupt.dcj");
  ::unlink(path.c_str());
  write_sample_journal(path);

  // Flip one byte inside the SECOND frame's payload: every frame carries
  // its own checksum, so the damage is attributed to that entry exactly.
  std::string bytes = slurp(path);
  const std::uint32_t first_len = static_cast<unsigned char>(bytes[0]) |
                                  (static_cast<unsigned char>(bytes[1]) << 8) |
                                  (static_cast<unsigned char>(bytes[2]) << 16) |
                                  (static_cast<unsigned char>(bytes[3]) << 24);
  const std::size_t second_payload = 4 + first_len + 4 + 10;
  ASSERT_LT(second_payload, bytes.size());
  bytes[second_payload] ^= 0x5a;
  dump(path, bytes);

  auto contents = load_journal(path);
  ASSERT_FALSE(contents.is_ok());
  EXPECT_NE(contents.status().message().find("corrupt at entry 1"),
            std::string::npos)
      << contents.status().message();
  EXPECT_NE(contents.status().message().find("refusing to resume"),
            std::string::npos);
}

TEST(Journal, MissingFileIsNotFound) {
  auto contents = load_journal(temp_path("no_such_journal.dcj"));
  ASSERT_FALSE(contents.is_ok());
}

TEST(CampaignLockTest, SecondAcquireRefusedWhileHolderLives) {
  const std::string path = temp_path("campaign_lock_live");
  ::unlink(path.c_str());
  auto lock = PidLease::acquire(path, campaign_lease_wording());
  ASSERT_TRUE(lock.is_ok()) << lock.status().to_string();

  // Our own pid is alive by definition: the second acquire must refuse.
  auto second = PidLease::acquire(path, campaign_lease_wording());
  ASSERT_FALSE(second.is_ok());
  EXPECT_NE(second.status().message().find("already being orchestrated"),
            std::string::npos);
}

TEST(CampaignLockTest, ReleaseAllowsReacquire) {
  const std::string path = temp_path("campaign_lock_release");
  ::unlink(path.c_str());
  {
    auto lock = PidLease::acquire(path, campaign_lease_wording());
    ASSERT_TRUE(lock.is_ok());
  }
  auto again = PidLease::acquire(path, campaign_lease_wording());
  EXPECT_TRUE(again.is_ok());
}

TEST(CampaignLockTest, StaleLeaseOfDeadPidIsBroken) {
  const std::string path = temp_path("campaign_lock_stale");
  ::unlink(path.c_str());
  // No live process has a pid this large (kernel pid_max is far below it).
  dump(path, "2147400000\n");

  ScopedLogLevel quiet(LogLevel::kOff);
  auto lock = PidLease::acquire(path, campaign_lease_wording());
  EXPECT_TRUE(lock.is_ok()) << lock.status().to_string();
}

TEST(CampaignLockTest, CorruptLeaseIsTreatedAsStaleNotFatal) {
  const std::string path = temp_path("campaign_lock_corrupt");
  ::unlink(path.c_str());
  dump(path, "\x00\xff not a pid at all \x7f");

  ScopedLogLevel quiet(LogLevel::kOff);
  auto lock = PidLease::acquire(path, campaign_lease_wording());
  EXPECT_TRUE(lock.is_ok()) << lock.status().to_string();
}

TEST(CampaignLockTest, RecycledPidWithWrongStartTickIsStale) {
  const std::string path = temp_path("campaign_lock_recycled");
  ::unlink(path.c_str());
  // Model a recycled pid: OUR pid is certainly alive, but the lease
  // records a start tick that cannot match the live process — as if the
  // original holder died and the kernel reissued its pid.
  const long long pid = static_cast<long long>(::getpid());
  const long long actual = process_start_ticks(pid);
  ASSERT_GE(actual, 0);
  std::ostringstream stamp;
  stamp << "pid " << pid << "\nstart " << (actual + 987654321) << "\n";
  dump(path, stamp.str());

  ScopedLogLevel quiet(LogLevel::kOff);
  auto lock = PidLease::acquire(path, campaign_lease_wording());
  EXPECT_TRUE(lock.is_ok()) << lock.status().to_string();
}

TEST(CampaignLockTest, LivePidWithMatchingStartTickIsRefused) {
  const std::string path = temp_path("campaign_lock_identity");
  ::unlink(path.c_str());
  const long long pid = static_cast<long long>(::getpid());
  std::ostringstream stamp;
  stamp << "pid " << pid << "\nstart " << process_start_ticks(pid) << "\n";
  dump(path, stamp.str());

  auto lock = PidLease::acquire(path, campaign_lease_wording());
  ASSERT_FALSE(lock.is_ok());
  EXPECT_NE(lock.status().message().find("already being orchestrated"),
            std::string::npos);
  ::unlink(path.c_str());
}

TEST(CampaignLockTest, ProcessStartTicksOfSelfIsStable) {
  const long long pid = static_cast<long long>(::getpid());
  const long long a = process_start_ticks(pid);
  const long long b = process_start_ticks(pid);
  EXPECT_GE(a, 0);
  EXPECT_EQ(a, b);
  // A pid nothing can hold reports no identity.
  EXPECT_EQ(process_start_ticks(2147400000LL), -1);
}

}  // namespace
}  // namespace dc::campaign
