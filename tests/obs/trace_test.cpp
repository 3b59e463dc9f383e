#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "snapshot/format.hpp"
#include "util/time.hpp"

namespace dc::obs {
namespace {

TEST(TraceFilter, ParsesCategoryLists) {
  auto mask = parse_trace_filter("job,lease");
  ASSERT_TRUE(mask.is_ok());
  EXPECT_EQ(mask.value(), trace_category_bit(TraceCategory::kJob) |
                              trace_category_bit(TraceCategory::kLease));

  auto all = parse_trace_filter("all");
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(all.value(), kTraceAll);

  auto empty = parse_trace_filter("");
  ASSERT_TRUE(empty.is_ok());
  EXPECT_EQ(empty.value(), kTraceAll);

  auto padded = parse_trace_filter(" fault , checkpoint ");
  ASSERT_TRUE(padded.is_ok());
  EXPECT_EQ(padded.value(), trace_category_bit(TraceCategory::kFault) |
                                trace_category_bit(TraceCategory::kCheckpoint));
}

TEST(TraceFilter, RejectsUnknownCategoryListingValidSet) {
  auto bad = parse_trace_filter("job,no-such-category");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().message().find("no-such-category"), std::string::npos);
  EXPECT_NE(bad.status().message().find("lifecycle"), std::string::npos);
}

TEST(TraceSink, RecordsInstantsAndSpans) {
  TraceSink sink;
  sink.instant(kHour, TraceCategory::kJob, "job.submit", "provider", 7, 2);
  sink.span(2 * kHour, 30 * kMinute, TraceCategory::kLease, "lease.hold",
            "provider", 16);

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, kHour);
  EXPECT_EQ(events[0].phase, 0);
  EXPECT_EQ(events[0].a0, 7);
  EXPECT_EQ(events[0].a1, 2);
  EXPECT_EQ(sink.name_of(events[0].name), "job.submit");
  EXPECT_EQ(sink.name_of(events[0].actor), "provider");
  EXPECT_EQ(events[1].time, 2 * kHour);
  EXPECT_EQ(events[1].dur, 30 * kMinute);
  EXPECT_EQ(events[1].phase, 1);

  const auto counts = sink.category_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(TraceCategory::kJob)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(TraceCategory::kLease)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(TraceCategory::kFault)], 0u);
}

TEST(TraceSink, RingDropsOldestOnceFull) {
  TraceSink sink(/*capacity=*/4);
  for (std::int64_t i = 0; i < 6; ++i) {
    sink.instant(i, TraceCategory::kJob, "job.submit", "p", i);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.emitted(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest after dropping the two oldest.
  EXPECT_EQ(events.front().a0, 2);
  EXPECT_EQ(events.back().a0, 5);
}

TEST(TraceSink, FilterSuppressesRecordingAndInterning) {
  TraceSink sink;
  sink.set_filter(trace_category_bit(TraceCategory::kJob));
  EXPECT_TRUE(sink.wants(TraceCategory::kJob));
  EXPECT_FALSE(sink.wants(TraceCategory::kFault));

  sink.instant(0, TraceCategory::kFault, "fault.fail", "domain");
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.emitted(), 0u);
  // The filtered event's strings were never interned: the first real
  // emission claims ids 0 and 1.
  sink.instant(0, TraceCategory::kJob, "job.submit", "provider");
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, 0u);
  EXPECT_EQ(events[0].actor, 1u);
}

TEST(TraceSink, InternAssignsStableFirstUseIds) {
  TraceSink sink;
  const auto a = sink.intern("alpha");
  const auto b = sink.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.intern("alpha"), a);
  EXPECT_EQ(sink.name_of(a), "alpha");
  EXPECT_EQ(sink.name_of(b), "beta");
}

TEST(TraceSink, ChromeJsonRoundTripsThroughParser) {
  TraceSink sink;
  sink.instant(kHour, TraceCategory::kJob, "job.submit", "bes-a", 42, 1);
  sink.span(kHour, kMinute, TraceCategory::kProvision, "provision.wait",
            "platform", 3);
  sink.instant(2 * kHour, TraceCategory::kLog, "log.WARN", "server", 2);

  auto parsed = parse_chrome_json(sink.chrome_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const auto& events = parsed.value();
  ASSERT_EQ(events.size(), 3u);

  EXPECT_EQ(events[0].name, "job.submit");
  EXPECT_EQ(events[0].category, "job");
  EXPECT_EQ(events[0].actor, "bes-a");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].ts_us, kHour * 1000000);
  EXPECT_EQ(events[0].a0, 42);
  EXPECT_EQ(events[0].a1, 1);

  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_EQ(events[1].dur_us, kMinute * 1000000);
  EXPECT_EQ(events[1].actor, "platform");

  EXPECT_EQ(events[2].category, "log");
}

TEST(TraceSink, CsvHasHeaderAndOneRowPerEvent) {
  TraceSink sink;
  sink.instant(1, TraceCategory::kJob, "job.start", "p", 5);
  sink.span(2, 3, TraceCategory::kLease, "lease.hold", "p", 8, 9);
  const std::string csv = sink.csv();
  EXPECT_EQ(csv.rfind("time,category,phase,name,actor,dur,a0,a1\n", 0), 0u)
      << csv;
  EXPECT_NE(csv.find("1,job,instant,job.start,p,0,5,0\n"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("2,lease,span,lease.hold,p,3,8,9\n"), std::string::npos)
      << csv;
}

TEST(TraceSink, SnapshotRoundTripPreservesExportBytes) {
  TraceSink sink(/*capacity=*/3);
  sink.set_filter(kTraceAll & ~trace_category_bit(TraceCategory::kLog));
  for (std::int64_t i = 0; i < 5; ++i) {
    sink.instant(i * kMinute, TraceCategory::kJob, "job.submit", "p", i);
  }
  sink.span(kHour, kMinute, TraceCategory::kResize, "resize.decide", "drp");

  snapshot::SnapshotWriter writer;
  ASSERT_TRUE(sink.save(writer).is_ok());
  auto reader = snapshot::SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok()) << reader.status().message();

  TraceSink restored;
  ASSERT_TRUE(restored.restore(reader.value()).is_ok());
  EXPECT_EQ(restored.filter(), sink.filter());
  EXPECT_EQ(restored.emitted(), sink.emitted());
  EXPECT_EQ(restored.dropped(), sink.dropped());
  EXPECT_EQ(restored.size(), sink.size());
  EXPECT_EQ(restored.capacity(), sink.capacity());
  EXPECT_EQ(restored.chrome_json(), sink.chrome_json());
  EXPECT_EQ(restored.csv(), sink.csv());
  // The string table survives by id: re-interning keeps the saved ids.
  EXPECT_EQ(restored.intern("job.submit"), sink.intern("job.submit"));
}

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

/// The payload of the 'packed_ring' record a sink saves.
std::string saved_ring(const TraceSink& sink) {
  snapshot::SnapshotWriter writer;
  EXPECT_TRUE(sink.save(writer).is_ok());
  auto records = snapshot::decode_records(writer.finish());
  if (!records.is_ok()) return "<" + records.status().message() + ">";
  for (const auto& record : *records) {
    if (record.name == "packed_ring") return record.payload;
  }
  return "<no ring record>";
}

// The ring is pinned to its packed layout: events oldest first, each seven
// LEB128 varints, namely the zigzag difference of its time from the
// previous event's (the first from 0), zigzag dur, a0 and a1, then the
// name id, the actor id and category << 1 | phase.
TEST(TraceSink, SnapshotRingBytesArePinned) {
  TraceSink sink(/*capacity=*/3);
  for (std::int64_t i = 0; i < 5; ++i) {
    sink.instant(i * kMinute, TraceCategory::kJob, "job.submit", "p", i, -i);
  }
  sink.span(kHour, kMinute, TraceCategory::kResize, "resize.decide", "drp",
            7, 8);
  // Six events through three slots: events 3, 4 and the span remain, and
  // the oldest sits in slot 0 again.
  EXPECT_EQ(to_hex(saved_ring(sink)),
            // time   dur  a0   a1   name actor cat<<1|phase
            "e802"    "00" "06" "05" "00" "01" "00"   // t=180, a0=3, a1=-3
            "78"      "00" "08" "07" "00" "01" "00"   // +60, a0=4, a1=-4
            "c034"    "78" "0e" "10" "02" "03" "07"); // +3360, span 60 s
  // A seventh moves the oldest to slot 1, so the ring is saved in two
  // pieces: slots 1-2, then slot 0.
  sink.instant(2 * kHour, TraceCategory::kFault, "node.fail", "p", 9, 10);
  EXPECT_EQ(to_hex(saved_ring(sink)),
            "e003"    "00" "08" "07" "00" "01" "00"   // t=240
            "c034"    "78" "0e" "10" "02" "03" "07"   // +3360
            "a038"    "00" "12" "14" "04" "01" "08"); // +3600, fault
}

TEST(TraceDiff, IdenticalTracesMatch) {
  TraceSink sink;
  sink.instant(1, TraceCategory::kJob, "job.submit", "p", 1);
  sink.span(2, 3, TraceCategory::kLease, "lease.hold", "p");
  auto a = parse_chrome_json(sink.chrome_json());
  auto b = parse_chrome_json(sink.chrome_json());
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  std::string report;
  EXPECT_TRUE(diff_traces(a.value(), b.value(), &report));
  EXPECT_EQ(report, "traces are identical");
}

TEST(TraceDiff, ReportsFirstDivergingEvent) {
  TraceSink golden;
  golden.instant(1, TraceCategory::kJob, "job.submit", "p", 1);
  golden.instant(2, TraceCategory::kJob, "job.start", "p", 1);
  TraceSink other;
  other.instant(1, TraceCategory::kJob, "job.submit", "p", 1);
  other.instant(2, TraceCategory::kJob, "job.start", "p", 99);  // diverges
  auto a = parse_chrome_json(golden.chrome_json());
  auto b = parse_chrome_json(other.chrome_json());
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  std::string report;
  EXPECT_FALSE(diff_traces(a.value(), b.value(), &report));
  EXPECT_NE(report.find("first divergence at event 1"), std::string::npos)
      << report;
  EXPECT_NE(report.find("a0=99"), std::string::npos) << report;
}

TEST(TraceDiff, ReportsLengthMismatch) {
  TraceSink golden;
  golden.instant(1, TraceCategory::kJob, "job.submit", "p");
  golden.instant(2, TraceCategory::kJob, "job.start", "p");
  TraceSink other;
  other.instant(1, TraceCategory::kJob, "job.submit", "p");
  auto a = parse_chrome_json(golden.chrome_json());
  auto b = parse_chrome_json(other.chrome_json());
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  std::string report;
  EXPECT_FALSE(diff_traces(a.value(), b.value(), &report));
  EXPECT_NE(report.find("golden has 1 extra"), std::string::npos) << report;
}

TEST(TraceSummary, CountsCategoriesAndSpans) {
  TraceSink sink;
  sink.instant(1, TraceCategory::kJob, "job.submit", "p");
  sink.instant(2, TraceCategory::kJob, "job.start", "p");
  sink.span(2, 40, TraceCategory::kJob, "job.run", "p");
  auto parsed = parse_chrome_json(sink.chrome_json());
  ASSERT_TRUE(parsed.is_ok());
  const std::string summary = summarize_trace(parsed.value());
  EXPECT_NE(summary.find("events: 3"), std::string::npos) << summary;
  EXPECT_NE(summary.find("job"), std::string::npos) << summary;
  EXPECT_NE(summary.find("job.run"), std::string::npos) << summary;
}

TEST(TraceJson, RejectsMalformedInput) {
  EXPECT_FALSE(parse_chrome_json("not json").is_ok());
  EXPECT_FALSE(parse_chrome_json("{\"displayTimeUnit\":\"ms\"}").is_ok());
}

TEST(TraceMacros, NullSinkIsANoOp) {
  TraceSink* sink = nullptr;
  DC_TRACE_INSTANT(sink, 0, TraceCategory::kJob, "job.submit", "p");
  DC_TRACE_SPAN(sink, 0, 1, TraceCategory::kJob, "job.run", "p");
  TraceSink real;
  DC_TRACE_INSTANT(&real, 0, TraceCategory::kJob, "job.submit", "p");
  EXPECT_EQ(real.size(), 1u);
}

}  // namespace
}  // namespace dc::obs
