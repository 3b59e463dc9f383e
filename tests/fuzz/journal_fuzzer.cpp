// Fuzz target: the campaign journal frame decoder.
//
// parse_journal walks u32-length-prefixed snapshot-format frames through
// the shared frame walker (snapshot/frames.hpp, which parse_store uses
// too), dropping a torn tail and refusing mid-file corruption. Arbitrary
// bytes must come back as a typed Status or a consistent JournalContents
// — never a crash or an unbounded allocation from a hostile length prefix.
#include <cstdint>
#include <string>
#include <string_view>

#include "campaign/journal.hpp"

namespace {

constexpr std::size_t kMaxInput = 1 << 20;

void fuzz_one(std::string_view data) {
  if (data.size() > kMaxInput) return;
  auto parsed = dc::campaign::parse_journal(std::string(data), "fuzz");
  if (parsed.is_ok()) {
    for (const auto& entry : parsed->entries) {
      (void)dc::campaign::cell_state_name(entry.state);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz_one(std::string_view(reinterpret_cast<const char*>(data), size));
  return 0;
}
