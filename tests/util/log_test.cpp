#include "util/log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace dc {
namespace {

/// Captures log output through a temp file.
class LogCapture {
 public:
  LogCapture() {
    // One file per test: ctest runs the cases as parallel processes.
    path_ = ::testing::TempDir() + "/log_capture_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".txt";
    file_ = std::fopen(path_.c_str(), "w+");
    Log::set_stream(file_);
  }
  ~LogCapture() {
    Log::set_stream(stderr);
    std::fclose(file_);
    std::remove(path_.c_str());
  }

  std::string contents() {
    std::fflush(file_);
    std::string out;
    std::rewind(file_);
    char buffer[4096];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file_)) > 0) {
      out.append(buffer, n);
    }
    return out;
  }

 private:
  std::string path_;
  std::FILE* file_;
};

TEST(Log, LevelFiltering) {
  LogCapture capture;
  ScopedLogLevel level(LogLevel::kWarn);
  Log::at(LogLevel::kDebug, 0, "comp", "hidden %d", 1);
  Log::at(LogLevel::kWarn, kHour, "comp", "visible %d", 2);
  const std::string out = capture.contents();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("visible 2"), std::string::npos);
  EXPECT_NE(out.find("[WARN]"), std::string::npos);
  EXPECT_NE(out.find("[comp]"), std::string::npos);
  EXPECT_NE(out.find("0d 01:00:00"), std::string::npos);
}

TEST(Log, ScopedLevelRestores) {
  const LogLevel before = Log::level();
  {
    ScopedLogLevel scoped(LogLevel::kTrace);
    EXPECT_EQ(Log::level(), LogLevel::kTrace);
    EXPECT_TRUE(Log::enabled(LogLevel::kDebug));
  }
  EXPECT_EQ(Log::level(), before);
}

TEST(Log, OffSilencesEverything) {
  LogCapture capture;
  ScopedLogLevel level(LogLevel::kOff);
  Log::at(LogLevel::kError, 0, "comp", "should not appear");
  Log::raw(LogLevel::kError, "nor this");
  EXPECT_TRUE(capture.contents().empty());
}

TEST(Log, LineIsWrittenWholeWithPrefixAndNewline) {
  LogCapture capture;
  ScopedLogLevel level(LogLevel::kInfo);
  Log::at(LogLevel::kInfo, 0, "comp", "a %s with %d parts", "line", 3);
  const std::string out = capture.contents();
  // One fwrite produced exactly one complete line: prefix, message, '\n'.
  EXPECT_NE(out.find("[INFO] [comp] a line with 3 parts\n"), std::string::npos)
      << out;
  EXPECT_EQ(out.find('\n'), out.size() - 1) << out;
}

struct HookRecord {
  int calls = 0;
  LogLevel level = LogLevel::kOff;
  SimTime now = -1;
  std::string component;
  std::string message;
};

TEST(Log, HookObservesEmittedMessages) {
  LogCapture capture;
  ScopedLogLevel level(LogLevel::kWarn);
  HookRecord record;
  Log::set_hook(
      [](void* ctx, LogLevel lvl, SimTime now, const char* component,
         const char* message) {
        auto* r = static_cast<HookRecord*>(ctx);
        ++r->calls;
        r->level = lvl;
        r->now = now;
        r->component = component;
        r->message = message;
      },
      &record);
  Log::at(LogLevel::kDebug, 0, "comp", "filtered out");  // below level: no hook
  Log::at(LogLevel::kWarn, kHour, "server", "queue depth %d", 7);
  Log::set_hook(nullptr, nullptr);
  Log::at(LogLevel::kWarn, 2 * kHour, "server", "after removal");

  EXPECT_EQ(record.calls, 1);
  EXPECT_EQ(record.level, LogLevel::kWarn);
  EXPECT_EQ(record.now, kHour);
  EXPECT_EQ(record.component, "server");
  // The hook sees the unprefixed message; the stream got the full line.
  EXPECT_EQ(record.message, "queue depth 7");
  EXPECT_NE(capture.contents().find("[server] queue depth 7"),
            std::string::npos);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(Log::level_name(LogLevel::kTrace), "TRACE");
  EXPECT_STREQ(Log::level_name(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(Log::level_name(LogLevel::kError), "ERROR");
  EXPECT_STREQ(Log::level_name(LogLevel::kOff), "OFF");
}

}  // namespace
}  // namespace dc
