// Fuzz target: the run-store decoders behind `dc report`, and the image
// builder behind every registration.
//
// The first input byte selects the target (structure-aware dispatch, so
// one corpus exercises all three): the framed store stream, a single
// record payload, or build_store_image appending a fixed two-record batch
// to the store stream. Arbitrary bytes must come back as a typed Status
// or consistent contents — never a crash, an unbounded allocation from a
// hostile length prefix, or an image other than the canonical frames of
// the records it holds.
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rundb/store.hpp"
#include "snapshot/frames.hpp"

namespace {

constexpr std::size_t kMaxInput = 1 << 20;

void check(bool ok) {
  if (!ok) __builtin_trap();
}

std::vector<dc::rundb::RunRecord> fixed_batch() {
  dc::rundb::RunRecord run;
  run.kind = "run";
  run.source = "fuzz.dcfg";
  run.label = "DCS/NASA";
  run.params = {{"system", "DCS"}, {"provider", "NASA"}};
  run.metrics = {{"completed", 727.0}, {"availability", 0.5}};
  dc::rundb::RunRecord cell = run;
  cell.kind = "campaign-cell";
  cell.label = "cell-000000/DCS/NASA";
  cell.trace_events = 42;
  cell.trace_digest = "00c0ffee00c0ffee";
  return {run, cell};
}

bool contains(const std::vector<dc::rundb::RunRecord>& records,
              std::uint64_t id) {
  for (const auto& record : records) {
    if (record.run_id() == id) return true;
  }
  return false;
}

// The image of `store` plus the fixed batch is the canonical frames of the
// old valid records, then of the batch records not already present, and
// appending the batch again changes nothing. A refusal is exactly
// parse_store's.
void fuzz_image(const std::string& store) {
  const std::vector<dc::rundb::RunRecord> batch = fixed_batch();
  auto image = dc::rundb::build_store_image(store, "fuzz", batch);
  auto old = dc::rundb::parse_store(store, "fuzz");
  if (!image.is_ok()) {
    check(!old.is_ok() && old.status().code() == image.status().code() &&
          old.status().message() == image.status().message());
    return;
  }
  check(old.is_ok());

  std::vector<dc::rundb::RunRecord> want = old->records;
  for (const auto& record : batch) {
    if (!contains(want, record.run_id())) want.push_back(record);
  }
  std::string canonical;
  for (const auto& record : want) {
    dc::snapshot::append_frame(canonical,
                               dc::rundb::encode_run_record(record));
  }
  check(image->store == canonical &&
        image->appended == want.size() - old->records.size());

  auto again = dc::rundb::build_store_image(image->store, "fuzz", batch);
  check(again.is_ok() && again->appended == 0 &&
        again->store == image->store);
}

void fuzz_one(std::string_view data) {
  if (data.empty() || data.size() > kMaxInput) return;
  const std::uint8_t selector = static_cast<std::uint8_t>(data[0]);
  const std::string payload(data.substr(1));
  switch (selector % 3) {
    case 0: {
      auto parsed = dc::rundb::parse_store(payload, "fuzz");
      if (parsed.is_ok()) {
        for (const auto& record : parsed->records) {
          (void)record.run_id();
          (void)record.param("system");
        }
      }
      break;
    }
    case 1: {
      auto decoded = dc::rundb::decode_run_record(payload);
      if (decoded.is_ok()) {
        // Round-trip: a payload the decoder accepts must re-encode to
        // something the decoder accepts again with the same identity.
        auto again = dc::rundb::decode_run_record(
            dc::rundb::encode_run_record(*decoded));
        check(again.is_ok() && again->run_id() == decoded->run_id());
      }
      break;
    }
    default:
      fuzz_image(payload);
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz_one(std::string_view(reinterpret_cast<const char*>(data), size));
  return 0;
}
