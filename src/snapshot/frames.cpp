#include "snapshot/frames.hpp"

#include <cstdint>

#include "snapshot/format.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dc::snapshot {

void append_frame(std::string& log, std::string_view stream) {
  const std::size_t at = log.size();
  log.resize(at + sizeof(std::uint32_t));
  store_le(log.data() + at, static_cast<std::uint32_t>(stream.size()));
  log.append(stream);
}

StatusOr<bool> walk_frames(
    std::string_view data, const std::string& label,
    const FrameWording& wording,
    const std::function<Status(std::string_view stream)>& decode) {
  std::size_t pos = 0;
  std::size_t index = 0;
  bool torn = false;
  while (pos < data.size()) {
    if (data.size() - pos < sizeof(std::uint32_t)) {
      torn = true;
      break;
    }
    const auto length = load_le<std::uint32_t>(data.data() + pos);
    if (length > data.size() - pos - sizeof(std::uint32_t)) {
      torn = true;
      break;
    }
    if (Status st = decode(data.substr(pos + sizeof(std::uint32_t), length));
        !st.is_ok()) {
      return Status::failed_precondition(str_format(
          "%s '%s' is corrupt at %s %zu (byte offset %zu): %s — %s",
          wording.log, label.c_str(), wording.frame, index, pos,
          st.message().c_str(), wording.refusal));
    }
    pos += sizeof(std::uint32_t) + length;
    ++index;
  }
  if (torn) {
    Log::raw(LogLevel::kWarn,
             "%s '%s': dropping torn trailing record at byte offset %zu%s",
             wording.log, label.c_str(), pos, wording.torn_note);
  }
  return torn;
}

}  // namespace dc::snapshot
