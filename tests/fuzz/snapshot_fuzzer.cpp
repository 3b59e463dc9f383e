// Fuzz target: the snapshot container decoders.
//
// Drives both layers on arbitrary bytes: SnapshotReader::from_buffer (the
// header/checksum gate every consumer passes through) and decode_records
// (the full record walker behind snapshot-diff and the divergence auditor).
// Every decoded `bytes` payload is then read as a run of varint deltas,
// the way packed columns and the trace ring are, until it ends or the
// reader refuses. The invariant under fuzzing is "typed Status or a valid
// record list" — never a crash, sanitizer report, or hang.
#include <cstdint>
#include <string>
#include <string_view>

#include "snapshot/format.hpp"

namespace {

constexpr std::size_t kMaxInput = 1 << 20;  // decoders are linear; cap anyway

void fuzz_one(std::string_view data) {
  if (data.size() > kMaxInput) return;
  std::string buf(data);
  (void)dc::snapshot::SnapshotReader::from_buffer(buf);
  auto records = dc::snapshot::decode_records(std::move(buf));
  if (!records.is_ok()) return;
  for (const auto& record : *records) {
    // Exercise the per-kind payload decoding too.
    (void)record.value_text();
    if (record.kind != dc::snapshot::RecordKind::kBytes) continue;
    dc::snapshot::VarintReader varints(record.payload);
    std::int64_t value = 0;
    while (!varints.at_end() && varints.next_delta(value).is_ok()) {
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz_one(std::string_view(reinterpret_cast<const char*>(data), size));
  return 0;
}
