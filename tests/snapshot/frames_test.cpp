// The framed-log walker that the campaign journal and the run store share:
// one table of byte layouts, each with the frames the decoder sees and
// either where a torn tail is dropped (the one warning names its offset)
// or which frame is refused and at what byte offset.
#include "snapshot/frames.hpp"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snapshot/format.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dc::snapshot {
namespace {

std::string stream_of(std::uint64_t i) {
  SnapshotWriter writer;
  writer.begin_section("frame");
  writer.u64("i", i);
  writer.end_section();
  return writer.finish();
}

/// `length` as four little-endian bytes, written out by hand so the table
/// does not lean on the codec it checks.
std::string le32(std::uint32_t length) {
  std::string bytes;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  return bytes;
}

std::string frame_of(const std::string& stream) {
  return le32(static_cast<std::uint32_t>(stream.size())) + stream;
}

constexpr FrameWording kWording{"test log", "frame", "refusing the log",
                                " (test note)"};

struct Layout {
  const char* name;
  std::string data;
  std::size_t visited;  // streams handed to the decoder
  bool torn;
  std::size_t offset;  // of the torn tail or the refused frame
  long refused = -1;   // index of the refused frame, -1 for none
};

TEST(FrameWalk, VisitsTearsAndRefusesPerLayout) {
  const std::string f0 = frame_of(stream_of(0));
  const std::string f1 = frame_of(stream_of(1));
  const std::string f2 = frame_of(stream_of(2));
  std::string bad2 = f2;
  bad2[4 + 20] ^= 0x5a;  // inside frame 2's stream: its checksum fails
  const std::string s1 = stream_of(1);
  const std::string past_eof = le32(static_cast<std::uint32_t>(s1.size())) +
                               s1.substr(0, s1.size() - 1);

  const std::vector<Layout> layouts = {
      {"empty input", "", 0, false, 0},
      {"one stray byte", "\x07", 0, true, 0},
      {"two stray bytes", std::string("\x07\x00", 2), 0, true, 0},
      {"three stray bytes", std::string("\x07\x00\x00", 3), 0, true, 0},
      {"three complete frames", f0 + f1 + f2, 3, false, 0},
      {"a frame, then a partial length prefix",
       f0 + std::string("\x05\x00", 2), 1, true, f0.size()},
      {"a length one byte past EOF", f0 + past_eof, 1, true, f0.size()},
      {"length 0xFFFFFFFF", le32(0xFFFFFFFFu) + "abc", 0, true, 0},
      {"a zero-length frame", le32(0), 1, false, 0, 0},
      {"a decoder refusal at frame 2", f0 + f1 + bad2 + f0, 3, false,
       f0.size() + f1.size(), 2},
  };
  for (const Layout& layout : layouts) {
    SCOPED_TRACE(layout.name);
    std::size_t visited = 0;
    std::FILE* log = std::tmpfile();
    ASSERT_NE(log, nullptr);
    Log::set_stream(log);
    auto walk = walk_frames(
        layout.data, "label", kWording, [&](std::string_view stream) {
          ++visited;
          auto reader = SnapshotReader::from_buffer(std::string(stream));
          return reader.is_ok() ? Status::ok() : reader.status();
        });
    Log::set_stream(stderr);
    std::string warning(512, '\0');
    std::rewind(log);
    warning.resize(std::fread(warning.data(), 1, warning.size(), log));
    std::fclose(log);

    EXPECT_EQ(visited, layout.visited);
    if (layout.refused >= 0) {
      ASSERT_FALSE(walk.is_ok());
      EXPECT_EQ(walk.status().code(), StatusCode::kFailedPrecondition);
      const std::string& message = walk.status().message();
      EXPECT_EQ(message.rfind(str_format(
                    "test log 'label' is corrupt at frame %ld (byte "
                    "offset %zu): ",
                    layout.refused, layout.offset),
                              0),
                0u)
          << message;
      const std::string refusal = " — refusing the log";
      ASSERT_GT(message.size(), refusal.size());
      EXPECT_EQ(message.substr(message.size() - refusal.size()), refusal);
      EXPECT_EQ(warning, "");
      continue;
    }
    ASSERT_TRUE(walk.is_ok()) << walk.status().to_string();
    EXPECT_EQ(*walk, layout.torn);
    EXPECT_EQ(warning,
              layout.torn
                  ? str_format("test log 'label': dropping torn trailing "
                               "record at byte offset %zu (test note)\n",
                               layout.offset)
                  : std::string());
  }
}

}  // namespace
}  // namespace dc::snapshot
