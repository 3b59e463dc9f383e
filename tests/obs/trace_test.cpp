#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "snapshot/format.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"
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

// A parse rendered as one line: "OK" and then each event, its strings
// JSON-escaped, or the exact error text.
std::string verdict_of(std::string_view json) {
  auto parsed = parse_chrome_json(json);
  if (!parsed.is_ok()) return parsed.status().to_string();
  std::string out = "OK";
  for (const auto& event : *parsed) {
    out += " | ";
    out += event.phase;
    out += ' ';
    append_json_escaped(out, event.category);
    out += '/';
    append_json_escaped(out, event.name);
    out += '@';
    append_json_escaped(out, event.actor);
    out += str_format(" ts=%lld dur=%lld a0=%lld a1=%lld",
                      static_cast<long long>(event.ts_us),
                      static_cast<long long>(event.dur_us),
                      static_cast<long long>(event.a0),
                      static_cast<long long>(event.a1));
  }
  return out;
}

// Every seed of trace_json_fuzzer's corpus: file name and verdict.
struct CorpusPin {
  const char* file;
  const char* verdict;
};
const std::vector<CorpusPin>& corpus_pins() {
  static const std::vector<CorpusPin> pins = {
      {"empty.json",
       "INVALID_ARGUMENT: trace json: expected top-level object near offset 0"},
      {"escaped_names.json",
       "OK | i job/say \\\"hi\\\" \\\\ ok@tab\\there\\nnl\\rcr ts=1000000 dur=0 "
       "a0=9223372036854775807 a1=-9223372036854775808"
       " | X log/ctl\\u0001\\u001f@caf\xc3\xa9 \xe2\x9c\x93 ts=2000000 "
       "dur=3000000 a0=-8 a1=0"},
      {"mutated_key.json",
       "OK | i /thread_name@tid2 ts=0 dur=0 a0=0 a1=0"
       " | i job/job.submit@tid2 ts=0 dur=0 a0=1 a1=0"
       " | X kernel/sweep_chunk@kernel ts=1000000000000 dur=2000000000000 "
       "a0=7 a1=8"
       " | i job/job.finish@tid2 ts=3000000000000 dur=0 a0=1 a1=0"},
      {"not_json.json",
       "INVALID_ARGUMENT: trace json: expected top-level object near offset 0"},
      {"truncated.json",
       "INVALID_ARGUMENT: trace json: expected ',' or '}' near offset 348"},
      {"unicode_escapes.json",
       "OK | i job/\xc5\x81od\xc5\xba@\xf0\x9f\x98\x80 ts=0 dur=0 a0=1 a1=0"
       " | i job/caf\xc3\xa9@\xf0\x9f\x98\x80 ts=1000000 dur=0 a0=2 "
       "a1=0"},
      {"valid_export.json",
       "OK | i job/job.submit@NASA ts=0 dur=0 a0=1 a1=0"
       " | X kernel/sweep_chunk@kernel ts=1000000000000 dur=2000000000000 "
       "a0=7 a1=8"
       " | i job/job.finish@NASA ts=3000000000000 dur=0 a0=1 a1=0"},
      {"whitespace_everywhere.json",
       "OK | X job/job.run@NASA ts=-5 dur=7 a0=-1 a1=2"
       " | i job/job.submit@tid3 ts=0 dur=0 a0=0 a1=0"},
  };
  return pins;
}

TEST(TraceJson, EveryCorpusSeedHasAPinnedVerdict) {
  std::set<std::string> pinned;
  for (const auto& pin : corpus_pins()) pinned.insert(pin.file);
  std::set<std::string> seeds;
  for (const auto& entry :
       std::filesystem::directory_iterator(DC_TRACE_JSON_CORPUS_DIR)) {
    seeds.insert(entry.path().filename().string());
  }
  EXPECT_EQ(seeds, pinned);
  for (const auto& pin : corpus_pins()) {
    SCOPED_TRACE(pin.file);
    auto bytes =
        read_file(std::string(DC_TRACE_JSON_CORPUS_DIR) + "/" + pin.file);
    ASSERT_TRUE(bytes.is_ok()) << bytes.status().to_string();
    EXPECT_EQ(verdict_of(*bytes), pin.verdict);
  }
}

// The reader's grammar, offsets and error texts, input by input: each
// truncation depth, the escapes, the integer edges and the shapes a
// hand-edited trace gets wrong.
TEST(TraceJson, MalformedInputsHavePinnedVerdicts) {
  struct Pin {
    const char* label;
    std::string input;
    std::string verdict;
  };
  const std::string head = R"({"traceEvents":[)";
  const std::string record = R"({"ph":"i","tid":1,"ts":5,"name":"a",)"
                             R"("cat":"job","args":{"a0":1,"a1":2}})";
  const auto with_ts = [&](const std::string& ts) {
    return head + R"({"ph":"i","ts":)" + ts + "}]}";
  };
  // Error texts all start so; the offset is where the reader stood.
  const auto error = [](const std::string& what) {
    return "INVALID_ARGUMENT: trace json: " + what;
  };
  const std::string unnamed = " | i /@tid0 ts=";
  const std::vector<Pin> pins = {
      {"an array at top level", "[]",
       error("expected top-level object near offset 0")},
      {"cut after the top-level brace", "{",
       error("expected string near offset 1")},
      {"cut after a top-level key", R"({"traceEvents")",
       error("expected ':' near offset 14")},
      {"cut after a top-level colon", R"({"traceEvents":)",
       error("expected traceEvents array near offset 15")},
      {"cut inside traceEvents", head,
       error("expected record object near offset 16")},
      {"cut inside a record", head + "{",
       error("expected string near offset 17")},
      {"cut after a record key", head + R"({"ph")",
       error("expected ':' near offset 21")},
      {"cut after a record colon", head + R"({"ph":)",
       error("expected integer near offset 22")},
      {"cut inside a string", head + R"({"ph":"i)",
       error("unterminated string near offset 24")},
      {"cut after a record value", head + R"({"ph":"i")",
       error("expected ',' or '}' near offset 25")},
      {"cut inside an integer", head + R"({"ts":12)",
       error("expected ',' or '}' near offset 24")},
      {"cut inside args", head + R"({"args":{)",
       error("expected string near offset 25")},
      {"cut after an args key", head + R"({"args":{"a0")",
       error("expected ':' near offset 29")},
      {"cut after an args value", head + R"({"args":{"a0":1)",
       error("expected ',' or '}' in args near offset 31")},
      {"cut after args", head + R"({"args":{"a0":1})",
       error("expected ',' or '}' near offset 32")},
      {"cut after a record", head + R"({"ph":"i"})",
       error("expected ',' or ']' in traceEvents near offset 26")},
      {"cut after traceEvents", head + R"({"ph":"i"}])",
       error("expected ',' or '}' at top level near offset 27")},
      {"cut after a backslash", head + R"({"name":"a\)",
       error("unterminated string near offset 27")},
      {"cut inside a \\u escape", head + R"({"name":"\u00)",
       error("bad \\u escape near offset 27")},
      {"escape \\q", head + R"({"name":"a\qb"}]})",
       error("unsupported escape near offset 28")},
      {"escape \\u00zz", head + R"({"name":"a\u00zzb"}]})",
       error("bad \\u escape near offset 31")},
      {"escape \\u0041", head + R"({"name":"x\u0041y"}]})",
       "OK | i /xAy@tid0 ts=0 dur=0 a0=0 a1=0"},
      {"an escaped key", R"({"trace\u0045vents":[)" + record + "]}",
       "OK | i job/a@tid1 ts=5 dur=0 a0=1 a1=2"},
      {"a lone minus", with_ts("-"), error("bad integer near offset 32")},
      {"a plus sign", with_ts("+1"), error("expected integer near offset 31")},
      {"a fraction", with_ts("1.5"),
       error("expected ',' or '}' near offset 32")},
      {"leading zeros", with_ts("007"), "OK" + unnamed + "7 dur=0 a0=0 a1=0"},
      {"minus zero", with_ts("-0"), "OK" + unnamed + "0 dur=0 a0=0 a1=0"},
      {"INT64_MIN", with_ts("-9223372036854775808"),
       "OK" + unnamed + "-9223372036854775808 dur=0 a0=0 a1=0"},
      {"INT64_MAX", with_ts("9223372036854775807"),
       "OK" + unnamed + "9223372036854775807 dur=0 a0=0 a1=0"},
      {"INT64_MIN - 1", with_ts("-9223372036854775809"),
       error("bad integer near offset 51")},
      {"INT64_MAX + 1", with_ts("9223372036854775808"),
       error("bad integer near offset 50")},
      {"31 characters", with_ts(std::string(30, '0') + "7"),
       "OK" + unnamed + "7 dur=0 a0=0 a1=0"},
      {"32 characters", with_ts(std::string(31, '0') + "7"),
       error("bad integer near offset 63")},
      {"33 characters", with_ts(std::string(32, '0') + "7"),
       error("bad integer near offset 64")},
      {"32 characters with a minus", with_ts("-" + std::string(30, '0') + "7"),
       error("bad integer near offset 63")},
      {"40 zeros then 7", with_ts(std::string(40, '0') + "7"),
       error("bad integer near offset 72")},
      {"a trailing comma in traceEvents", head + record + ",]}",
       error("expected record object near offset 88")},
      {"a trailing comma in a record", head + R"({"ph":"i",}]})",
       error("expected string near offset 26")},
      {"a trailing comma in args", head + R"({"args":{"a0":1,}}]})",
       error("expected string near offset 32")},
      {"a trailing comma at top level", R"({"traceEvents":[],})",
       error("expected string near offset 18")},
      {"args as an array", head + R"({"args":[1,2]}]})",
       error("expected args object near offset 24")},
      {"a missing comma in a record", head + R"({"ph":"i" "name":"a"}]})",
       error("expected ',' or '}' near offset 26")},
      {"a missing comma between records", head + record + record + "]}",
       error("expected ',' or ']' in traceEvents near offset 87")},
      {"no traceEvents", R"({"displayTimeUnit":"ms"})",
       error("no traceEvents")},
      {"an integer top-level value",
       R"({"displayTimeUnit":5,"traceEvents":[]})",
       error("expected string near offset 19")},
      {"an empty object", "{}", error("expected string near offset 1")},
      {"bytes after the top-level object", R"({"traceEvents":[]} trailing)",
       error("bytes after the top-level object near offset 19")},
      {"two exports in one file",
       R"({"traceEvents":[)" + record + R"(]}{"traceEvents":[]})",
       error("bytes after the top-level object near offset 89")},
      {"whitespace after the top-level object",
       R"({"traceEvents":[]} )" "\n\t\r\n", "OK"},
      {"escapes of two- and three-byte UTF-8",
       head + R"({"name":"\u0141od\u017a \u2713"}]})",
       "OK | i /\xc5\x81od\xc5\xba \xe2\x9c\x93@tid0 ts=0 dur=0 a0=0 a1=0"},
      {"a surrogate pair", head + R"({"name":"\ud83d\ude00!"}]})",
       "OK | i /\xf0\x9f\x98\x80!@tid0 ts=0 dur=0 a0=0 a1=0"},
      {"a lone high surrogate", head + R"({"name":"\ud83dx"}]})",
       error("bad \\u escape near offset 31")},
      {"a high surrogate before a non-surrogate",
       head + R"({"name":"\ud83d\u0041"}]})",
       error("bad \\u escape near offset 37")},
      {"a high surrogate cut short", head + R"({"name":"\ud83d\u00)",
       error("bad \\u escape near offset 33")},
      {"a lone low surrogate", head + R"({"name":"\ude00"}]})",
       error("bad \\u escape near offset 31")},
      {"a tid without thread_name",
       head + R"({"ph":"i","tid":7,"name":"a"}]})",
       "OK | i /a@tid7 ts=0 dur=0 a0=0 a1=0"},
      {"thread names apply from their record on",
       head +
           R"({"ph":"M","tid":7,"name":"process_name","args":{"name":"x"}},)"
           R"({"ph":"i","tid":7,"name":"a"},)"
           R"({"ph":"M","tid":7,"name":"thread_name","args":{"name":"p"}},)"
           R"({"ph":"X","tid":7,"name":"b","dur":4}]})",
       "OK | i /a@tid7 ts=0 dur=0 a0=0 a1=0 | X /b@p ts=0 dur=4 a0=0 a1=0"},
      {"an empty record and an unknown phase",
       head + R"({},{"ph":"B","name":"b"}]})",
       "OK" + unnamed + "0 dur=0 a0=0 a1=0 | i /b@tid0 ts=0 dur=0 a0=0 a1=0"},
      {"values of the other type are skipped",
       head +
           R"({"ph":"M","tid":1,"name":"thread_name","args":{"name":5}},)"
           R"({"ph":"i","tid":1,"args":{"a0":"x","a1":3}}]})",
       "OK | i /@ ts=0 dur=0 a0=0 a1=3"},
      {"the last duplicate key wins",
       head + R"({"ph":"X","ph":"i","name":"a","name":"b"}]})",
       "OK | i /b@tid0 ts=0 dur=0 a0=0 a1=0"},
      {"two traceEvents arrays",
       R"({"traceEvents":[)" + record + R"(],"traceEvents":[)" + record + "]}",
       "OK | i job/a@tid1 ts=5 dur=0 a0=1 a1=2"
       " | i job/a@tid1 ts=5 dur=0 a0=1 a1=2"},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(pin.label);
    EXPECT_EQ(verdict_of(pin.input), pin.verdict) << pin.input;
  }
}

// Names that need every kind of escape, and UTF-8, which needs none.
TraceSink escaped_names_sink() {
  TraceSink sink;
  sink.instant(1, TraceCategory::kJob, "say \"hi\" \\ ok", "tab\there\nnl\rcr",
               std::numeric_limits<std::int64_t>::max(),
               std::numeric_limits<std::int64_t>::min());
  sink.span(2, 3, TraceCategory::kLog, "ctl\x01\x1f",
            "caf\xc3\xa9 \xe2\x9c\x93", -8, 0);
  return sink;
}

TEST(TraceSink, ChromeJsonEscapesNamesToPinnedBytes) {
  const std::string json = escaped_names_sink().chrome_json();
  EXPECT_EQ(json,
            R"({"displayTimeUnit":"ms","traceEvents":[)" "\n"
            R"({"ph":"M","pid":1,"tid":2,"name":"thread_name",)"
            R"("args":{"name":"tab\there\nnl\rcr"}},)" "\n"
            R"({"ph":"M","pid":1,"tid":4,"name":"thread_name",)"
            R"("args":{"name":"caf)" "\xc3\xa9 \xe2\x9c\x93" R"("}},)" "\n"
            R"({"ph":"i","pid":1,"tid":2,"ts":1000000,"s":"t",)"
            R"("name":"say \"hi\" \\ ok","cat":"job",)"
            R"("args":{"a0":9223372036854775807,"a1":-9223372036854775808}},)"
            "\n"
            R"({"ph":"X","pid":1,"tid":4,"ts":2000000,"dur":3000000,)"
            R"("name":"ctl\u0001\u001f","cat":"log","args":{"a0":-8,"a1":0}})"
            "\n]}\n");
  // The corpus seed is this export, so the fuzz replay runs the escapes.
  auto seed = read_file(std::string(DC_TRACE_JSON_CORPUS_DIR) +
                        "/escaped_names.json");
  ASSERT_TRUE(seed.is_ok()) << seed.status().to_string();
  EXPECT_EQ(*seed, json);
}

TEST(TraceSink, EscapedNamesRoundTripThroughParser) {
  auto parsed = parse_chrome_json(escaped_names_sink().chrome_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed->size(), 2u);
  const auto& first = (*parsed)[0];
  EXPECT_EQ(first.name, "say \"hi\" \\ ok");
  EXPECT_EQ(first.actor, "tab\there\nnl\rcr");
  EXPECT_EQ(first.category, "job");
  EXPECT_EQ(first.a0, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(first.a1, std::numeric_limits<std::int64_t>::min());
  const auto& second = (*parsed)[1];
  EXPECT_EQ(second.name, "ctl\x01\x1f");
  EXPECT_EQ(second.actor, "caf\xc3\xa9 \xe2\x9c\x93");
  EXPECT_EQ(second.phase, 'X');
  EXPECT_EQ(second.dur_us, 3000000);
  EXPECT_EQ(second.a0, -8);
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
