// Per-component snapshot round trips: each stateful building block saves
// mid-flight state into a stream and restores it into a fresh instance
// that then behaves byte-identically. The capstone tests take a full
// SystemRunner mid-run, restore it into a passive runner, and require the
// re-saved stream to be byte-identical to the original — a restore that
// loses or invents any field in any component fails immediately.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/billing.hpp"
#include "cluster/resource_pool.hpp"
#include "cluster/usage_recorder.hpp"
#include "core/job_emulator.hpp"
#include "core/mtc_server.hpp"
#include "core/system_runner.hpp"
#include "core/systems.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "snapshot/format.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"
#include "workflow/montage.hpp"
#include "workload/models.hpp"
#include "workload/trace.hpp"

namespace dc {
namespace {

using core::SystemModel;
using snapshot::SnapshotReader;
using snapshot::SnapshotWriter;

TEST(SnapshotComponents, RngContinuesTheExactStream) {
  Rng original(97);
  for (int i = 0; i < 1000; ++i) original();
  const std::array<std::uint64_t, 4> saved = original.state();
  Rng resumed(1);  // different seed: state transplant must fully override
  resumed.set_state(saved);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original(), resumed());
  }
}

TEST(SnapshotComponents, LeaseLedgerRoundTrip) {
  cluster::LeaseLedger ledger;
  const cluster::LeaseId open = ledger.open(0, 8, "initial");
  const cluster::LeaseId closed = ledger.open(kHour, 4, "grant");
  ledger.close(closed, 3 * kHour);
  ledger.amend_end(closed, 2 * kHour);
  (void)open;

  SnapshotWriter writer;
  ASSERT_TRUE(ledger.save(writer).is_ok());
  auto reader = SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok());
  cluster::LeaseLedger restored;
  ASSERT_TRUE(restored.restore(*reader).is_ok());

  EXPECT_EQ(restored.lease_count(), ledger.lease_count());
  EXPECT_EQ(restored.billed_node_hours(kDay), ledger.billed_node_hours(kDay));
  EXPECT_DOUBLE_EQ(restored.exact_node_hours(kDay),
                   ledger.exact_node_hours(kDay));
  // The restored ledger stays live: closing the still-open lease behaves
  // as it would have in the original.
  restored.close(open, 5 * kHour);
  ledger.close(open, 5 * kHour);
  EXPECT_EQ(restored.billed_node_hours(kDay), ledger.billed_node_hours(kDay));
}

TEST(SnapshotComponents, UsageRecorderRoundTrip) {
  cluster::UsageRecorder usage;
  usage.change(0, 10);
  usage.change(kHour, 5);
  usage.change(2 * kHour, -8);

  SnapshotWriter writer;
  ASSERT_TRUE(usage.save(writer).is_ok());
  auto reader = SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok());
  cluster::UsageRecorder restored;
  ASSERT_TRUE(restored.restore(*reader).is_ok());

  EXPECT_EQ(restored.current(), usage.current());
  EXPECT_EQ(restored.peak(), usage.peak());
  EXPECT_DOUBLE_EQ(restored.node_hours(kDay), usage.node_hours(kDay));
  EXPECT_EQ(restored.hourly_peak_series(4 * kHour),
            usage.hourly_peak_series(4 * kHour));
}

TEST(SnapshotComponents, ResourcePoolRoundTrip) {
  cluster::ResourcePool pool(256);
  ASSERT_TRUE(pool.allocate(100).is_ok());
  SnapshotWriter writer;
  ASSERT_TRUE(pool.save(writer).is_ok());
  auto reader = SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok());
  cluster::ResourcePool restored(256);
  ASSERT_TRUE(restored.restore(*reader).is_ok());
  EXPECT_EQ(restored.allocated(), 100);
  EXPECT_TRUE(restored.is_bounded());
  EXPECT_TRUE(restored.can_allocate(156));
  EXPECT_FALSE(restored.can_allocate(157));
}

core::ConsolidationWorkload small_workload() {
  workload::SyntheticTraceSpec trace_spec;
  trace_spec.name = "snap";
  trace_spec.capacity_nodes = 32;
  trace_spec.period = kDay;
  trace_spec.submit_margin = 2 * kHour;
  trace_spec.jobs_per_day = 120;
  trace_spec.width_weights = {{1, 0.4}, {2, 0.3}, {4, 0.2}, {8, 0.1}};
  trace_spec.hyper_p = 0.9;
  trace_spec.hyper_mean1 = 400;
  trace_spec.hyper_mean2 = 3600;

  core::HtcWorkloadSpec htc;
  htc.name = "snap";
  htc.trace = workload::generate_trace(trace_spec, /*seed=*/23);
  htc.fixed_nodes = 32;
  htc.policy = core::ResourceManagementPolicy::htc(8, 1.5, 32);

  workflow::MontageParams params;
  params.inputs = 12;
  core::MtcWorkloadSpec mtc;
  mtc.name = "wf";
  mtc.dag = workflow::make_montage(params, /*seed=*/5);
  mtc.submit_time = 6 * kHour;
  mtc.fixed_nodes = 20;
  mtc.policy = core::ResourceManagementPolicy::mtc(4, 8.0);

  core::ConsolidationWorkload workload;
  workload.htc.push_back(std::move(htc));
  workload.mtc.push_back(std::move(mtc));
  return workload;
}

core::RunOptions faulted_options() {
  core::RunOptions options;
  core::fault::FaultDomain::Config faults;
  faults.mean_time_between_failures = 3 * kHour;
  faults.mean_time_to_repair = 30 * kMinute;
  faults.seed = 4242;
  options.faults = faults;
  return options;
}

// Mid-run world: save, restore into a passive runner, save again — the two
// streams must be byte-identical. Every save/restore asymmetry in any
// component (dropped field, re-encoded default, wrong order) shows up as a
// first-diverging-record diff.
void expect_double_snapshot_identical(SystemModel model) {
  const core::ConsolidationWorkload workload = small_workload();
  const core::RunOptions options = faulted_options();

  core::SystemRunner original(model, workload, options);
  original.run_until(10 * kHour);
  SnapshotWriter first;
  ASSERT_TRUE(original.save(first).is_ok());

  core::SystemRunner resumed(model, workload, options,
                             core::SystemRunner::Mode::kRestore);
  auto reader = SnapshotReader::from_buffer(first.finish());
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  const Status restored = resumed.restore(*reader);
  ASSERT_TRUE(restored.is_ok()) << restored.to_string();

  SnapshotWriter second;
  ASSERT_TRUE(resumed.save(second).is_ok());
  ASSERT_EQ(first.buffer().size(), second.buffer().size());
  EXPECT_EQ(first.buffer(), second.buffer())
      << core::system_model_name(model)
      << ": restore must reconstruct the exact component state";
  EXPECT_EQ(first.digest(), second.digest());
}

TEST(SnapshotComponents, DoubleSnapshotIsByteIdenticalDcs) {
  expect_double_snapshot_identical(SystemModel::kDcs);
}

TEST(SnapshotComponents, DoubleSnapshotIsByteIdenticalSsp) {
  expect_double_snapshot_identical(SystemModel::kSsp);
}

TEST(SnapshotComponents, DoubleSnapshotIsByteIdenticalDrp) {
  expect_double_snapshot_identical(SystemModel::kDrp);
}

TEST(SnapshotComponents, DoubleSnapshotIsByteIdenticalDawningCloud) {
  expect_double_snapshot_identical(SystemModel::kDawningCloud);
}

TEST(SnapshotComponents, RestoreIntoFreshRunnerIsRejected) {
  const core::ConsolidationWorkload workload = small_workload();
  core::SystemRunner original(SystemModel::kDcs, workload, {});
  original.run_until(4 * kHour);
  SnapshotWriter writer;
  ASSERT_TRUE(original.save(writer).is_ok());

  core::SystemRunner fresh(SystemModel::kDcs, workload, {});
  auto reader = SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok());
  const Status status = fresh.restore(*reader);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotComponents, ModelMismatchIsRejectedWithBothNames) {
  const core::ConsolidationWorkload workload = small_workload();
  core::SystemRunner original(SystemModel::kDcs, workload, {});
  original.run_until(4 * kHour);
  SnapshotWriter writer;
  ASSERT_TRUE(original.save(writer).is_ok());

  core::SystemRunner other(SystemModel::kSsp, workload, {},
                           core::SystemRunner::Mode::kRestore);
  auto reader = SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok());
  const Status status = other.restore(*reader);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("DCS"), std::string::npos);
  EXPECT_NE(status.message().find("SSP"), std::string::npos);
}


// --- Job emulator ------------------------------------------------------------

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

// The pin stream's emulator section at t=250: jobs 2..5 pending, the
// first queued on seq 4 at t=300 and the rest reserved on seqs 5..7 (seq 1
// is marker a, 8 the one-shot, 9 marker b).
constexpr const char* kPinnedEmulatorSection =
    "4443534e41500d0a" "01000000"                                // magic, version
    "030c0073747265616d5f636f756e74" "0100000000000000"          // stream_count 1
    "030d0070656e64696e675f636f756e74" "0400000000000000"        // pending_count 4
    "03090066697273745f736571" "0400000000000000"                // first_seq 4
    "04040074696d65" "2c01000000000000"                          // time 300
    "030d006f6e6573686f745f636f756e74" "0100000000000000"        // oneshot_count 1
    "06070070656e64696e67" "01"                                  // pending
    "04040074696d65" "5e01000000000000"                          //   time 350
    "030300736571" "0800000000000000";                           //   seq 8

// The same section as the emulator wrote it before a stream was stored as
// its count, first seq and time: a (job_index, time, seq) triple for every
// unfired submission.
constexpr const char* kPreChangeEmulatorSection =
    "4443534e41500d0a" "01000000"                                // magic, version
    "030c0073747265616d5f636f756e74" "0100000000000000"          // stream_count 1
    "030d0070656e64696e675f636f756e74" "0400000000000000"        // pending_count 4
    "0309006a6f625f696e646578" "0200000000000000"                // job_index 2
    "04040074696d65" "2c01000000000000"                          //   time 300
    "030300736571" "0400000000000000"                            //   seq 4
    "0309006a6f625f696e646578" "0300000000000000"                // job_index 3
    "04040074696d65" "2c01000000000000"                          //   time 300
    "030300736571" "0500000000000000"                            //   seq 5
    "0309006a6f625f696e646578" "0400000000000000"                // job_index 4
    "04040074696d65" "9001000000000000"                          //   time 400
    "030300736571" "0600000000000000"                            //   seq 6
    "0309006a6f625f696e646578" "0500000000000000"                // job_index 5
    "04040074696d65" "f401000000000000"                          //   time 500
    "030300736571" "0700000000000000"                            //   seq 7
    "030d006f6e6573686f745f636f756e74" "0100000000000000"        // oneshot_count 1
    "06070070656e64696e67" "01"                                  // pending
    "04040074696d65" "5e01000000000000"                          //   time 350
    "030300736571" "0800000000000000";                           //   seq 8

// Six jobs; jobs 2 and 3 share t=300.
workload::Trace pin_trace() {
  std::vector<workload::TraceJob> jobs;
  const std::array<SimTime, 6> submits = {100, 200, 300, 300, 400, 500};
  for (std::int64_t i = 0; i < 6; ++i) {
    jobs.push_back({i, submits[static_cast<std::size_t>(i)], 60 + i, 1 + i % 3});
  }
  return workload::Trace("pin", 8, std::move(jobs));
}

// A kernel with the pin stream registered between two marker events at
// t=300 (one drawn before the stream's seqs, one after) and a one-shot at
// t=350. Every fire appends to `log`.
struct EmulatorWorld {
  explicit EmulatorWorld(bool passive) : emulator(sim, 1.0, passive) {}

  void register_streams() {
    emulator.emulate_trace(pin_trace(), [this](const workload::TraceJob& job) {
      log += "j" + std::to_string(job.id) + "@" + std::to_string(sim.now()) + ";";
    });
    emulator.emulate_at(350, [this] { log += "w;"; });
  }
  sim::Simulator::Callback marker(char name) {
    return [this, name] { log += std::string(1, name) + ";"; };
  }

  sim::Simulator sim;
  core::JobEmulator emulator;
  std::string log;
};

// The emulator section of the pin stream saved at t=250 (jobs 0 and 1
// submitted). Restored into a passive emulator on a fresh kernel, the rest
// must fire exactly as in the uninterrupted run.
TEST(SnapshotComponents, JobEmulatorSectionMatchesPinnedBytesAndResumes) {
  EmulatorWorld original(/*passive=*/false);
  const sim::EventId before = original.sim.schedule_at(300, original.marker('a'));
  original.register_streams();
  const sim::EventId after = original.sim.schedule_at(300, original.marker('b'));
  original.sim.run_until(250);
  ASSERT_EQ(original.log, "j0@100;j1@200;");

  SnapshotWriter writer;
  ASSERT_TRUE(original.emulator.save(writer).is_ok());
  EXPECT_EQ(to_hex(writer.buffer()), kPinnedEmulatorSection);

  EmulatorWorld resumed(/*passive=*/true);
  resumed.sim.begin_restore(original.sim.now(), original.sim.next_seq(),
                            original.sim.events_processed());
  resumed.register_streams();
  for (const auto& [id, name] : {std::pair{before, 'a'}, std::pair{after, 'b'}}) {
    const auto info = original.sim.pending_event_info(id);
    ASSERT_TRUE(info.has_value());
    ASSERT_TRUE(
        resumed.sim.restore_event(info->time, info->seq, resumed.marker(name))
            .is_ok());
  }
  auto reader = SnapshotReader::from_buffer(writer.finish());
  ASSERT_TRUE(reader.is_ok());
  const Status restored = resumed.emulator.restore(*reader);
  ASSERT_TRUE(restored.is_ok()) << restored.to_string();
  const Status finished =
      resumed.sim.finish_restore(original.sim.pending_live());
  ASSERT_TRUE(finished.is_ok()) << finished.to_string();

  // Saving the restored emulator writes the same section.
  SnapshotWriter again;
  ASSERT_TRUE(resumed.emulator.save(again).is_ok());
  EXPECT_EQ(again.buffer(), writer.buffer());

  original.log.clear();
  original.sim.run();
  resumed.sim.run();
  EXPECT_EQ(original.log, "a;j2@300;j3@300;b;w;j4@400;j5@500;");
  EXPECT_EQ(resumed.log, original.log);
  EXPECT_EQ(resumed.sim.events_processed(), original.sim.events_processed());
}

// An emulator section for the pin stream plus its (fired) one-shot, with
// `pending` unfired submissions, the first queued at `time` on `first_seq`.
std::string emulator_section(std::uint64_t pending, std::uint64_t first_seq,
                             SimTime time) {
  SnapshotWriter writer;
  writer.u64("stream_count", 1);
  writer.u64("pending_count", pending);
  if (pending > 0) {
    writer.u64("first_seq", first_seq);
    writer.i64("time", time);
  }
  writer.u64("oneshot_count", 1);
  writer.boolean("pending", false);
  return writer.finish();
}

// Restores `section` into a passive pin world whose kernel resumes at
// t=250 with `next_seq`.
Status restore_emulator_section(const std::string& section,
                                std::uint32_t next_seq = 10) {
  EmulatorWorld world(/*passive=*/true);
  world.sim.begin_restore(250, next_seq, 2);
  world.register_streams();
  auto reader = SnapshotReader::from_buffer(section);
  EXPECT_TRUE(reader.is_ok());
  return world.emulator.restore(*reader);
}

// Restore re-queues one submission and reserves the rest. A section names
// the unfired jobs by their count alone, so they are always a suffix of
// the stream on consecutive seqs: a skipped or repeated job, or a jump or
// reversal in the seqs, cannot be written. What can be written and is
// still refused: more unfired jobs than the stream has, seq 0, seqs at or
// past the kernel's next seq (so at or past 0xffffffff), and a time that
// is not the first unfired job's submit time or lies in the past.
TEST(SnapshotComponents, JobEmulatorRefusesPendingListsItCannotReserve) {
  EXPECT_TRUE(restore_emulator_section(emulator_section(4, 4, 300)).is_ok());
  EXPECT_TRUE(restore_emulator_section(emulator_section(4, 6, 300)).is_ok());
  EXPECT_TRUE(restore_emulator_section(emulator_section(0, 0, 0)).is_ok());
  // The largest seq a kernel draws is 0xfffffffe.
  EXPECT_TRUE(restore_emulator_section(emulator_section(4, 0xfffffffbull, 300),
                                       0xffffffffu)
                  .is_ok());

  const std::vector<std::pair<const char*, Status>> refused = {
      {"more unfired jobs than the stream has",
       restore_emulator_section(emulator_section(7, 4, 100))},
      {"first seq 0", restore_emulator_section(emulator_section(4, 0, 300))},
      {"a seq at the kernel's next seq",
       restore_emulator_section(emulator_section(4, 7, 300))},
      {"first seq + count past 0xffffffff",
       restore_emulator_section(emulator_section(4, 0xfffffffcull, 300),
                                0xffffffffu)},
      {"first seq past u32",
       restore_emulator_section(emulator_section(1, 0x100000000ull, 500),
                                0xffffffffu)},
      {"first seq + count past u64",
       restore_emulator_section(emulator_section(4, ~0ull, 300), 0xffffffffu)},
      {"a time is not the first unfired job's submit time",
       restore_emulator_section(emulator_section(4, 4, 301))},
      {"the time of a later job",
       restore_emulator_section(emulator_section(4, 4, 400))},
      {"a submit time in the past",
       restore_emulator_section(emulator_section(6, 2, 100))},
  };
  for (const auto& [what, status] : refused) {
    SCOPED_TRACE(what);
    ASSERT_FALSE(status.is_ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(status.message().find("trace stream 0"), std::string::npos)
        << status.message();
  }
  EXPECT_NE(refused[0].second.message().find("beyond the stream's 6 jobs"),
            std::string::npos)
      << refused[0].second.message();
}

// The stream SnapshotWriter::finish() makes of `hex` (header and records).
std::string finished_from_hex(std::string_view hex) {
  std::string body;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    body += static_cast<char>(std::stoi(std::string(hex.substr(i, 2)),
                                        nullptr, 16));
  }
  char footer[8];
  snapshot::store_le(footer, snapshot::fnv1a(body));
  return body.append(footer, sizeof(footer));
}

// A section written before streams were stored as (count, first seq,
// time) is refused at its first drifted record, which the error names.
TEST(SnapshotComponents, JobEmulatorRefusesThePreChangeSection) {
  const Status status =
      restore_emulator_section(finished_from_hex(kPreChangeEmulatorSection));
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("expected field 'first_seq', found "
                                  "'job_index'"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("drifted"), std::string::npos)
      << status.message();
}

// --- HTC server restore: ids must name what they claim -----------------------

// Re-encodes a finished snapshot record by record, replacing the integer
// payload of the first record named `name` in section `section` with
// `value` (no replacement when nothing matches). A bytes record so named
// becomes an i64 record of `value`.
std::string reencode(const std::string& finished, std::string_view section,
                     std::string_view name, std::int64_t value) {
  auto records = snapshot::decode_records(finished);
  EXPECT_TRUE(records.is_ok());
  SnapshotWriter writer;
  bool replaced = false;
  for (const snapshot::SnapshotRecord& record : *records) {
    const bool target =
        !replaced && record.section == section && record.name == name;
    const std::uint64_t word =
        record.payload.size() == 8
            ? snapshot::load_le<std::uint64_t>(record.payload.data())
            : 0;
    switch (record.kind) {
      case snapshot::RecordKind::kSectionBegin:
        writer.begin_section(record.name);
        break;
      case snapshot::RecordKind::kSectionEnd:
        writer.end_section();
        break;
      case snapshot::RecordKind::kU64:
        writer.u64(record.name,
                         target ? static_cast<std::uint64_t>(value) : word);
        break;
      case snapshot::RecordKind::kI64:
        writer.i64(record.name,
                         target ? value : static_cast<std::int64_t>(word));
        break;
      case snapshot::RecordKind::kF64:
        writer.f64(record.name, std::bit_cast<double>(word));
        break;
      case snapshot::RecordKind::kBool:
        writer.boolean(record.name, record.payload[0] != 0);
        break;
      case snapshot::RecordKind::kStr:
        writer.str(record.name, record.payload);
        break;
      case snapshot::RecordKind::kBytes:
        // An integer in place of a packed column is the layout a job
        // table had before it was packed.
        if (target) {
          writer.i64(record.name, value);
        } else {
          writer.bytes(record.name, record.payload);
        }
        break;
    }
    replaced = replaced || target;
  }
  EXPECT_TRUE(replaced || name.empty()) << "no record " << name;
  return writer.finish();
}

// The first integer record named `name` in `section`, or -1.
std::int64_t first_value(const std::string& finished, std::string_view section,
                         std::string_view name) {
  auto records = snapshot::decode_records(finished);
  EXPECT_TRUE(records.is_ok());
  for (const snapshot::SnapshotRecord& record : *records) {
    if (record.section == section && record.name == name &&
        record.payload.size() == 8) {
      return static_cast<std::int64_t>(
          snapshot::load_le<std::uint64_t>(record.payload.data()));
    }
  }
  return -1;
}

// The small workload on a fixed HTC holding of 8 nodes, so DCS queues.
core::ConsolidationWorkload crowded_workload() {
  core::ConsolidationWorkload workload = small_workload();
  workload.htc[0].fixed_nodes = 8;
  return workload;
}

// The first 10-minute boundary at which `model`'s snapshot of the crowded
// workload has a record `name` in `section`.
std::string snapshot_with(SystemModel model, std::string_view section,
                          std::string_view name) {
  const core::ConsolidationWorkload workload = crowded_workload();
  core::SystemRunner runner(model, workload, {});
  for (SimTime t = 10 * kMinute; t <= kDay; t += 10 * kMinute) {
    runner.run_until(t);
    SnapshotWriter writer;
    EXPECT_TRUE(runner.save(writer).is_ok());
    std::string finished = writer.finish();
    if (first_value(finished, section, name) >= 0) return finished;
  }
  ADD_FAILURE() << "no snapshot has a '" << name << "' record";
  return {};
}

Status restore_into_passive(SystemModel model, const std::string& finished) {
  const core::ConsolidationWorkload workload = crowded_workload();
  core::SystemRunner resumed(model, workload, {},
                             core::SystemRunner::Mode::kRestore);
  auto reader = SnapshotReader::from_buffer(finished);
  EXPECT_TRUE(reader.is_ok());
  return resumed.restore(*reader);
}

// A typed refusal that names `who` (the provider or component) and `value`.
void expect_refused(const Status& status, const std::string& who,
                    const std::string& value) {
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(who), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(value), std::string::npos)
      << status.message();
}

TEST(SnapshotComponents, HtcRestoreRefusesQueuedIdsOfNoQueuedJob) {
  const std::string finished =
      snapshot_with(SystemModel::kDcs, "htc:snap", "queued");
  ASSERT_FALSE(finished.empty());
  // The unedited re-encoding is the same stream, and restores.
  ASSERT_EQ(reencode(finished, "", "", 0), finished);
  ASSERT_TRUE(restore_into_passive(SystemModel::kDcs, finished).is_ok());

  const std::int64_t running = first_value(finished, "htc:snap", "running");
  ASSERT_GE(running, 0);
  for (const std::int64_t bad : {std::int64_t{50000000}, std::int64_t{-1},
                                 running}) {
    SCOPED_TRACE(bad);
    expect_refused(restore_into_passive(
                       SystemModel::kDcs,
                       reencode(finished, "htc:snap", "queued", bad)),
                   "snap", std::to_string(bad));
  }
}

TEST(SnapshotComponents, HtcRestoreRefusesLeaseIdsBeyondTheLedger) {
  const std::string finished =
      snapshot_with(SystemModel::kDawningCloud, "htc:snap", "grant_lease");
  ASSERT_FALSE(finished.empty());
  ASSERT_TRUE(
      restore_into_passive(SystemModel::kDawningCloud, finished).is_ok());
  for (const char* field : {"initial_lease", "grant_lease"}) {
    SCOPED_TRACE(field);
    expect_refused(restore_into_passive(
                       SystemModel::kDawningCloud,
                       reencode(finished, "htc:snap", field, 40000000)),
                   "snap", "40000000");
  }
}

// The job table is nine packed columns of job_count values each. A count
// one off the columns' length is refused naming the first column, as is
// the scalar 'submit' record with which the pre-packing layout began each
// job.
TEST(SnapshotComponents, HtcRestoreRefusesJobColumnsOfAnotherLength) {
  const std::string finished =
      snapshot_with(SystemModel::kDcs, "htc:snap", "queued");
  ASSERT_FALSE(finished.empty());
  const std::int64_t jobs = first_value(finished, "htc:snap", "job_count");
  ASSERT_GT(jobs, 1);
  for (const std::int64_t count : {jobs - 1, jobs + 1}) {
    SCOPED_TRACE(count);
    expect_refused(restore_into_passive(
                       SystemModel::kDcs,
                       reencode(finished, "htc:snap", "job_count", count)),
                   "packed column 'submit' of " + std::to_string(count),
                   "section 'htc:snap'");
  }
  expect_refused(
      restore_into_passive(SystemModel::kDcs,
                           reencode(finished, "htc:snap", "submit", 0)),
      "expected bytes field 'submit', found i64 'submit'", "drifted");
}

// --- Re-armed events: the kernel refuses a forged identity -------------------
// A pending event's (time, seq) and a timer's period come from the stream.
// Simulator::restore_event and restore_periodic refuse a seq outside
// [1, next_seq), a time before the snapshot's and a period <= 0, and the
// walk names the records the refused values came from.

TEST(SnapshotComponents, RestoreRefusesACompletionSeqTheKernelNeverDrew) {
  const std::string finished =
      snapshot_with(SystemModel::kDcs, "htc:snap", "completion_seq");
  ASSERT_FALSE(finished.empty());
  ASSERT_TRUE(restore_into_passive(SystemModel::kDcs, finished).is_ok());
  const Status status = restore_into_passive(
      SystemModel::kDcs,
      reencode(finished, "htc:snap", "completion_seq", 0xfffffff0));
  expect_refused(status, "'completion_time'/'completion_seq'", "4294967280");
  EXPECT_NE(status.message().find("section 'htc:snap'"), std::string::npos)
      << status.message();
}

TEST(SnapshotComponents, RestoreRefusesACompletionTimeBeforeTheSnapshot) {
  const std::string finished =
      snapshot_with(SystemModel::kDcs, "htc:snap", "completion_time");
  ASSERT_FALSE(finished.empty());
  ASSERT_TRUE(restore_into_passive(SystemModel::kDcs, finished).is_ok());
  const Status status = restore_into_passive(
      SystemModel::kDcs, reencode(finished, "htc:snap", "completion_time", 5));
  expect_refused(status, "'completion_time'/'completion_seq'", "t=5 ");
  EXPECT_NE(status.message().find("section 'htc:snap'"), std::string::npos)
      << status.message();
}

TEST(SnapshotComponents, RestoreRefusesATimerPeriodOfZero) {
  const std::string finished =
      snapshot_with(SystemModel::kDawningCloud, "htc:snap", "scan_period");
  ASSERT_FALSE(finished.empty());
  ASSERT_TRUE(
      restore_into_passive(SystemModel::kDawningCloud, finished).is_ok());
  const Status status = restore_into_passive(
      SystemModel::kDawningCloud,
      reencode(finished, "htc:snap", "scan_period", 0));
  expect_refused(status, "'scan_next_fire'/'scan_seq'/'scan_period'",
                 "period 0 is not positive");
  EXPECT_NE(status.message().find("section 'htc:snap'"), std::string::npos)
      << status.message();
}

// --- MTC, DRP and trigger-monitor restore: task ids name a task --------------
// A task id indexes its workflow's DAG when the job completes or the trigger
// fires, so an id beyond the DAG must be refused at restore, not crash the
// resumed run later.

// A field of `model`'s snapshot of the crowded workload.
struct SnapshotField {
  SystemModel model;
  std::string_view section;
  std::string_view name;
};

TEST(SnapshotComponents, RestoreRefusesTaskIdsBeyondTheirWorkflow) {
  const SnapshotField ids[] = {
      {SystemModel::kDawningCloud, "mtc:wf", "ref_task"},
      {SystemModel::kDrp, "drp:wf", "work_task"},
  };
  for (const SnapshotField& id : ids) {
    SCOPED_TRACE(id.name);
    const std::string finished = snapshot_with(id.model, id.section, id.name);
    ASSERT_FALSE(finished.empty());
    ASSERT_TRUE(restore_into_passive(id.model, finished).is_ok());
    for (const std::int64_t bad : {std::int64_t{50000000}, std::int64_t{-1}}) {
      SCOPED_TRACE(bad);
      const std::string edited =
          reencode(finished, id.section, id.name, bad);
      expect_refused(restore_into_passive(id.model, edited), "wf",
                     std::to_string(bad));
    }
  }
}

TEST(SnapshotComponents, TriggerMonitorRestoreRefusesTriggersBeyondTheirDag) {
  workflow::MontageParams params;
  params.inputs = 4;
  core::TriggerMonitor monitor;
  const auto wf = monitor.register_workflow(workflow::make_montage(params, 5));
  monitor.add_external_trigger(wf, 1);
  SnapshotWriter writer;
  ASSERT_TRUE(monitor.save(writer).is_ok());
  const std::string finished = writer.finish();

  const auto restore = [](const std::string& stream) {
    auto reader = SnapshotReader::from_buffer(stream);
    if (!reader.is_ok()) return reader.status();
    core::TriggerMonitor restored;
    return restored.restore(*reader);
  };
  ASSERT_TRUE(restore(finished).is_ok());
  for (const std::int64_t bad : {std::int64_t{50000000}, std::int64_t{-1}}) {
    SCOPED_TRACE(bad);
    expect_refused(restore(reencode(finished, "", "task", bad)),
                   "trigger monitor", std::to_string(bad));
  }
}

// --- Restore refuses element counts the stream cannot hold -------------------
// Each of these counts sizes a reserve() before any element is read. A
// count of 2^62 must come back as a typed error naming the field and its
// section, not abort the process with std::length_error.

constexpr std::int64_t kHugeCount = std::int64_t{1} << 62;

void expect_count_refused(const Status& status, std::string_view section,
                          std::string_view name) {
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(name), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("section '" + std::string(section) + "'"),
            std::string::npos)
      << status.message();
}

TEST(SnapshotComponents, RestoreRefusesCountsTheStreamCannotHold) {
  const SnapshotField counts[] = {
      {SystemModel::kDcs, "htc:snap", "job_count"},
      {SystemModel::kDawningCloud, "htc:snap", "grant_count"},
      {SystemModel::kDawningCloud, "mtc:wf", "task_ref_count"},
      {SystemModel::kDawningCloud, "lifecycle", "record_count"},
      {SystemModel::kDawningCloud, "lifecycle", "transition_count"},
      {SystemModel::kDawningCloud, "htc:snap.ledger", "lease_count"},
      {SystemModel::kDcs, "provision", "breakpoint_count"},
      {SystemModel::kDawningCloud, "provision", "event_count"},
      {SystemModel::kDrp, "drp:wf", "run_count"},
      {SystemModel::kDrp, "drp:wf", "vm_lease_count"},
      {SystemModel::kDrp, "drp:snap", "active_count"},
      {SystemModel::kDrp, "drp:snap", "finish_count"},
      {SystemModel::kDrp, "drp:snap", "completion_count"},
  };
  for (const SnapshotField& count : counts) {
    SCOPED_TRACE(std::string(count.section) + " " + std::string(count.name));
    const std::string finished =
        snapshot_with(count.model, count.section, count.name);
    ASSERT_FALSE(finished.empty());
    ASSERT_TRUE(restore_into_passive(count.model, finished).is_ok());
    expect_count_refused(
        restore_into_passive(count.model, reencode(finished, count.section,
                                                   count.name, kHugeCount)),
        count.section, count.name);
  }
}

// --- TraceSink restore: the ring is sized by the stream ----------------------

std::string saved_trace(std::size_t capacity, int events) {
  obs::TraceSink sink(capacity);
  for (int i = 0; i < events; ++i) {
    sink.instant(i * kMinute, obs::TraceCategory::kKernel, "tick", "sim", i);
  }
  SnapshotWriter writer;
  EXPECT_TRUE(sink.save(writer).is_ok());
  return writer.finish();
}

Status restore_trace(const std::string& finished) {
  auto reader = SnapshotReader::from_buffer(finished);
  if (!reader.is_ok()) return reader.status();
  obs::TraceSink sink;
  return sink.restore(*reader);
}

TEST(SnapshotComponents, TraceRestoreRefusesAnEventCountTheStreamCannotHold) {
  // An empty ring packs an empty payload.
  const std::string finished = saved_trace(64, 0);
  ASSERT_TRUE(restore_trace(finished).is_ok());
  expect_count_refused(
      restore_trace(reencode(finished, "trace", "events", kHugeCount)),
      "trace", "events");
}

TEST(SnapshotComponents, TraceRestoreRefusesARingCapacityOutOfRange) {
  const std::string finished = saved_trace(64, 4);
  ASSERT_TRUE(restore_trace(finished).is_ok());
  // Too large to allocate, one past the named maximum, and smaller than
  // the 4 events the ring must hold.
  for (const std::int64_t bad :
       {kHugeCount, static_cast<std::int64_t>(obs::kMaxTraceCapacity) + 1,
        std::int64_t{3}}) {
    SCOPED_TRACE(bad);
    expect_refused(
        restore_trace(reencode(finished, "trace", "capacity", bad)),
        "trace ring capacity", std::to_string(bad));
  }
}

// A trace section naming "job.submit" (id 0) and "p" (id 1), with
// `events` events packed into the record `ring`.
std::string trace_section(std::uint64_t events, std::string_view packed,
                          std::string_view ring = "packed_ring") {
  SnapshotWriter writer;
  writer.begin_section("trace");
  writer.u64("capacity", 64);
  writer.u64("filter", obs::kTraceAll);
  writer.u64("emitted", events);
  writer.u64("dropped", 0);
  writer.u64("names", 2);
  writer.str("name", "job.submit");
  writer.str("name", "p");
  writer.u64("events", events);
  writer.bytes(ring, packed);
  writer.end_section();
  return writer.finish();
}

// One packed event: t=0 (+0), dur 0, a0 1, a1 0, name 0, actor 1, job
// instant.
constexpr std::string_view kOneEvent("\x00\x00\x02\x00\x00\x01\x00", 7);

TEST(SnapshotComponents, TraceRestoreRefusesAMalformedPackedRing) {
  ASSERT_TRUE(restore_trace(trace_section(1, kOneEvent)).is_ok());
  const std::string eleven = std::string(10, '\x80') + '\x00';
  const struct {
    const char* what;
    std::uint64_t events;
    std::string packed;
    const char* names;
  } cases[] = {
      {"a name id past the table", 1,
       std::string("\x00\x00\x02\x00\x02\x01\x00", 7),
       "name id 2 or actor id 1 is past the 2-name table"},
      {"an actor id past the table", 1,
       std::string("\x00\x00\x02\x00\x00\x05\x00", 7),
       "name id 0 or actor id 5 is past the 2-name table"},
      {"an unknown category", 1,
       std::string("\x00\x00\x02\x00\x00\x01\x12", 7),
       "unknown category 9"},
      {"a truncated varint", 1,
       std::string("\x00\x00\x02\x00\x00\x01\x80", 7), "cut short"},
      {"an 11-byte varint", 1, eleven + std::string(kOneEvent.substr(1)),
       "runs past 10 bytes"},
      {"one event short", 2, std::string(kOneEvent), "ends after 1"},
      {"trailing bytes after the last event", 1,
       std::string(kOneEvent) + '\x00', "1 bytes follow the last event"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const Status status = restore_trace(trace_section(c.events, c.packed));
    expect_refused(status, "trace ring of " + std::to_string(c.events) +
                               " events",
                   c.names);
    EXPECT_NE(status.message().find("section 'trace'"), std::string::npos)
        << status.message();
  }
}

TEST(SnapshotComponents, TraceRestoreWrapsATimeDeltaPastInt64) {
  // t = INT64_MAX, then +1: the running time wraps in unsigned arithmetic
  // (no signed overflow for UBSan to find) to INT64_MIN.
  std::string packed = "\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01";
  packed += std::string(kOneEvent.substr(1));
  packed += "\x02";
  packed += std::string(kOneEvent.substr(1));
  auto reader = SnapshotReader::from_buffer(trace_section(2, packed));
  ASSERT_TRUE(reader.is_ok());
  obs::TraceSink sink;
  const Status restored = sink.restore(*reader);
  ASSERT_TRUE(restored.is_ok()) << restored.to_string();
  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, std::numeric_limits<SimTime>::max());
  EXPECT_EQ(events[1].time, std::numeric_limits<SimTime>::min());
}

// The ring as it was saved before it was packed, a 'ring' record of
// 44-byte events, is refused by its name and never decoded as varints.
TEST(SnapshotComponents, TraceRestoreRefusesThePreChangeRing) {
  const Status status =
      restore_trace(trace_section(1, std::string(44, '\0'), "ring"));
  expect_refused(status, "expected field 'packed_ring', found 'ring'",
                 "drifted");
}


// --- History: rows that can no longer change, one chunk per save ---------------

// Writes `records` (a decoded stream, possibly edited) as a finished stream.
std::string encode(const std::vector<snapshot::SnapshotRecord>& records) {
  SnapshotWriter writer;
  for (const snapshot::SnapshotRecord& record : records) {
    const std::uint64_t word =
        record.payload.size() == 8
            ? snapshot::load_le<std::uint64_t>(record.payload.data())
            : 0;
    switch (record.kind) {
      case snapshot::RecordKind::kSectionBegin:
        writer.begin_section(record.name);
        break;
      case snapshot::RecordKind::kSectionEnd: writer.end_section(); break;
      case snapshot::RecordKind::kU64: writer.u64(record.name, word); break;
      case snapshot::RecordKind::kI64:
        writer.i64(record.name, static_cast<std::int64_t>(word));
        break;
      case snapshot::RecordKind::kF64:
        writer.f64(record.name, std::bit_cast<double>(word));
        break;
      case snapshot::RecordKind::kBool:
        writer.boolean(record.name, record.payload[0] != 0);
        break;
      case snapshot::RecordKind::kStr:
        writer.str(record.name, record.payload);
        break;
      case snapshot::RecordKind::kBytes:
        writer.bytes(record.name, record.payload);
        break;
    }
  }
  return writer.finish();
}

std::vector<snapshot::SnapshotRecord> records_of(const std::string& finished) {
  auto records = snapshot::decode_records(finished);
  EXPECT_TRUE(records.is_ok()) << records.status().to_string();
  return records.is_ok() ? std::move(*records)
                         : std::vector<snapshot::SnapshotRecord>{};
}

// [begin, end) record indices of each history chunk, oldest first.
std::vector<std::pair<std::size_t, std::size_t>> chunks_of(
    const std::vector<snapshot::SnapshotRecord>& records) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    if (record.section != "history" || record.name != "chunk") continue;
    if (record.kind == snapshot::RecordKind::kSectionBegin) {
      chunks.emplace_back(i, i);
    } else {
      chunks.back().second = i + 1;
    }
  }
  return chunks;
}

std::string history_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "snap_history_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string file_bytes(const std::string& path) {
  auto bytes = read_file(path);
  EXPECT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  return bytes.is_ok() ? *bytes : std::string();
}

// A runner of `model` that has saved to `dir` every `every` up to `until`,
// the file of its last save in `last`.
void save_every(core::SystemRunner& runner, SystemModel model,
                const std::string& dir, SimDuration every, SimTime until,
                std::string& last) {
  for (SimTime t = runner.now() + every; t <= until; t += every) {
    runner.run_until(t);
    last = core::snapshot_path(dir, model, t);
    ASSERT_TRUE(runner.save_file(last).is_ok());
  }
}

Status restore_file_into(core::SystemRunner& runner, const std::string& path) {
  return runner.restore_file(path);
}

// save -> restore -> save at the same instant, with history of several
// chunks: the restored runner continues the file's history, so it writes
// the same bytes, and keeps writing what the uninterrupted run writes.
TEST(SnapshotComponents, DoubleSnapshotWithHistoryIsByteIdentical) {
  const core::ConsolidationWorkload workload = small_workload();
  const core::RunOptions options = faulted_options();
  for (const SystemModel model :
       {SystemModel::kDcs, SystemModel::kSsp, SystemModel::kDrp,
        SystemModel::kDawningCloud}) {
    SCOPED_TRACE(core::system_model_name(model));
    const std::string dir = history_dir(core::system_model_name(model));
    core::SystemRunner original(model, workload, options);
    std::string last;
    save_every(original, model, dir, 2 * kHour, 10 * kHour, last);
    const std::string saved = file_bytes(last);
    EXPECT_EQ(chunks_of(records_of(saved)).size(), 5u);

    core::SystemRunner resumed(model, workload, options,
                               core::SystemRunner::Mode::kRestore);
    const Status restored = restore_file_into(resumed, last);
    ASSERT_TRUE(restored.is_ok()) << restored.to_string();
    const std::string again = dir + "/again.dcsnap";
    ASSERT_TRUE(resumed.save_file(again).is_ok());
    EXPECT_EQ(file_bytes(again), saved);

    original.run_until(12 * kHour);
    resumed.run_until(12 * kHour);
    ASSERT_TRUE(original.save_file(dir + "/a12.dcsnap").is_ok());
    ASSERT_TRUE(resumed.save_file(dir + "/b12.dcsnap").is_ok());
    EXPECT_EQ(file_bytes(dir + "/b12.dcsnap"), file_bytes(dir + "/a12.dcsnap"));
  }
}

// The rows each history chunk's entries of `key` hold, summed over `finished`.
std::uint64_t history_rows(const std::string& finished, std::string_view key) {
  std::uint64_t rows = 0;
  for (const auto& record : records_of(finished)) {
    if (record.section == "history.chunk." + std::string(key) &&
        record.name == "rows") {
      rows += snapshot::load_le<std::uint64_t>(record.payload.data());
    }
  }
  return rows;
}

// A ring far smaller than what a run emits between two saves: each save's
// chunk skips what the ring dropped unwritten, and the history starts
// afresh whenever half of it is events the ring has dropped, so what a
// snapshot holds stays bounded by the ring, not by the run. Restore and
// resume still write the uninterrupted run's bytes.
TEST(SnapshotComponents, WrappingTraceRingKeepsItsHistoryBounded) {
  constexpr std::size_t kCapacity = 40;
  const core::ConsolidationWorkload workload = small_workload();
  const SystemModel model = SystemModel::kDawningCloud;
  const std::string dir = history_dir("ring");
  const auto traced = [&](obs::TraceSink& sink) {
    core::RunOptions options = faulted_options();
    options.trace = &sink;
    return options;
  };
  obs::TraceSink sink(kCapacity);
  core::SystemRunner original(model, workload, traced(sink));
  std::vector<std::string> files;
  for (SimTime t = 30 * kMinute; t <= 12 * kHour; t += 30 * kMinute) {
    original.run_until(t);
    files.push_back(core::snapshot_path(dir, model, t));
    ASSERT_TRUE(original.save_file(files.back()).is_ok());
  }
  ASSERT_GT(sink.dropped(), 10 * kCapacity);
  std::vector<std::string> golden;
  for (const std::string& file : files) golden.push_back(file_bytes(file));
  std::uint64_t most = 0;
  for (const std::string& bytes : golden) {
    most = std::max(most, history_rows(bytes, "obs.trace.events"));
  }
  EXPECT_GE(most, kCapacity);
  EXPECT_LT(most, 3 * kCapacity);

  for (std::size_t i = 0; i + 1 < files.size(); i += 5) {
    SCOPED_TRACE(files[i]);
    obs::TraceSink resumed_sink(kCapacity);
    core::SystemRunner resumed(model, workload, traced(resumed_sink),
                               core::SystemRunner::Mode::kRestore);
    const Status restored = restore_file_into(resumed, files[i]);
    ASSERT_TRUE(restored.is_ok()) << restored.to_string();
    ASSERT_TRUE(resumed.save_file(files[i]).is_ok());
    EXPECT_EQ(file_bytes(files[i]), golden[i]);
    for (std::size_t j = i + 1; j < files.size(); ++j) {
      resumed.run_until(static_cast<SimTime>(j + 1) * 30 * kMinute);
      ASSERT_TRUE(resumed.save_file(files[j]).is_ok());
      EXPECT_EQ(file_bytes(files[j]), golden[j]) << files[j];
    }
    EXPECT_EQ(resumed_sink.chrome_json(), sink.chrome_json());
  }
}

// A DawningCloud snapshot of the crowded workload whose history holds
// three chunks, traced so that one of them is the trace's.
std::string three_chunk_snapshot(const std::string& name) {
  const std::string dir = history_dir(name);
  obs::TraceSink sink;
  core::RunOptions options;
  options.trace = &sink;
  core::SystemRunner runner(SystemModel::kDawningCloud, crowded_workload(),
                            options);
  std::string last;
  save_every(runner, SystemModel::kDawningCloud, dir, 3 * kHour, 9 * kHour,
             last);
  return file_bytes(last);
}

Status restore_traced(const std::string& finished) {
  obs::TraceSink sink;
  core::RunOptions options;
  options.trace = &sink;
  core::SystemRunner resumed(SystemModel::kDawningCloud, crowded_workload(),
                             options, core::SystemRunner::Mode::kRestore);
  auto reader = SnapshotReader::from_buffer(finished);
  if (!reader.is_ok()) return reader.status();
  return resumed.restore(*reader);
}

// Forged history is refused with a typed error naming the chunk and the
// record, never an abort.
TEST(SnapshotComponents, RestoreRefusesForgedHistory) {
  const std::string finished = three_chunk_snapshot("forged");
  ASSERT_TRUE(restore_traced(finished).is_ok());
  const std::vector<snapshot::SnapshotRecord> records = records_of(finished);
  ASSERT_EQ(encode(records), finished);
  const auto chunks = chunks_of(records);
  ASSERT_EQ(chunks.size(), 3u);
  const auto span = [&](std::size_t chunk) {
    return std::vector<snapshot::SnapshotRecord>(
        records.begin() + static_cast<std::ptrdiff_t>(chunks[chunk].first),
        records.begin() + static_cast<std::ptrdiff_t>(chunks[chunk].second));
  };
  const auto with_chunks = [&](std::initializer_list<std::size_t> order) {
    std::vector<snapshot::SnapshotRecord> out(
        records.begin(),
        records.begin() + static_cast<std::ptrdiff_t>(chunks[0].first));
    for (const std::size_t chunk : order) {
      const auto part = span(chunk);
      out.insert(out.end(), part.begin(), part.end());
    }
    out.insert(out.end(),
               records.begin() + static_cast<std::ptrdiff_t>(chunks[2].second),
               records.end());
    return encode(out);
  };
  // The first entry `key` of chunk `chunk`: its records, edited by `edit`.
  const auto with_entry = [&](std::size_t chunk, std::string_view key,
                              const auto& edit) {
    std::vector<snapshot::SnapshotRecord> out = records;
    const std::string section = "history.chunk." + std::string(key);
    bool edited = false;
    for (std::size_t i = chunks[chunk].first;
         i < chunks[chunk].second && !edited; ++i) {
      if (out[i].section == "history.chunk" && out[i].name == key &&
          out[i].kind == snapshot::RecordKind::kSectionBegin) {
        edit(out, i);
        edited = true;
      }
    }
    EXPECT_TRUE(edited) << "no entry " << key << " in chunk " << chunk;
    return encode(out);
  };
  const auto set_word = [](snapshot::SnapshotRecord& record,
                           std::uint64_t value) {
    snapshot::store_le(record.payload.data(), value);
  };
  const auto expect_typed = [](const Status& status,
                               std::initializer_list<std::string_view> parts) {
    ASSERT_FALSE(status.is_ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
    for (const std::string_view part : parts) {
      EXPECT_NE(status.message().find(part), std::string::npos)
          << status.message();
    }
  };

  {
    SCOPED_TRACE("chunks out of boundary order");
    expect_typed(restore_traced(with_chunks({0, 2, 1})),
                 {"history chunk 3 (t=21600) does not follow chunk 2 "
                  "(t=32400)",
                  "out of boundary order"});
  }
  {
    SCOPED_TRACE("a duplicated chunk");
    expect_typed(restore_traced(with_chunks({0, 1, 1, 2})),
                 {"history chunk 3 (t=21600) does not follow chunk 2 "
                  "(t=21600)"});
  }
  {
    SCOPED_TRACE("a chunk's rows overrun their table");
    // The job table counts only the rows before the second chunk's.
    expect_typed(
        restore_traced(with_entry(
            1, "htc:snap.jobs",
            [&](std::vector<snapshot::SnapshotRecord>& out, std::size_t i) {
              const auto first =
                  snapshot::load_le<std::uint64_t>(out[i + 1].payload.data());
              for (snapshot::SnapshotRecord& record : out) {
                if (record.section == "htc:snap" &&
                    record.name == "job_count") {
                  set_word(record, first);
                }
              }
            })),
        {"history chunk 2 (t=21600) record 'htc:snap.jobs'",
         "overrun the table's"});
  }
  {
    SCOPED_TRACE("a chunk's row count its bytes cannot hold");
    expect_typed(
        restore_traced(with_entry(
            1, "htc:snap.jobs",
            [&](std::vector<snapshot::SnapshotRecord>& out, std::size_t i) {
              set_word(out[i + 2], std::uint64_t{1} << 62);
            })),
        {"history chunk 2 (t=21600) record 'htc:snap.jobs'",
         "count 'rows' of 4611686018427387904"});
  }
  {
    SCOPED_TRACE("a chunk whose rows leave a gap");
    expect_typed(
        restore_traced(with_entry(
            1, "htc:snap.jobs",
            [&](std::vector<snapshot::SnapshotRecord>& out, std::size_t i) {
              set_word(out[i + 1],
                       snapshot::load_le<std::uint64_t>(
                           out[i + 1].payload.data()) +
                           1);
            })),
        {"history chunk 2 (t=21600) record 'htc:snap.jobs'",
         "a chunk is missing"});
  }
  {
    SCOPED_TRACE("history for an unknown record");
    expect_typed(
        restore_traced(with_entry(
            0, "htc:snap.jobs",
            [&](std::vector<snapshot::SnapshotRecord>& out, std::size_t i) {
              snapshot::SnapshotRecord begin = out[i];
              begin.name = "htc:snap.bogus";
              snapshot::SnapshotRecord first = out[i + 1];
              snapshot::SnapshotRecord rows = out[i + 2];
              set_word(first, 0);
              set_word(rows, 0);
              snapshot::SnapshotRecord end = begin;
              end.kind = snapshot::RecordKind::kSectionEnd;
              out.insert(out.begin() + static_cast<std::ptrdiff_t>(i),
                         {begin, first, rows, end});
            })),
        {"history chunk 1 (t=10800) record 'htc:snap.bogus' belongs to no "
         "table",
         "drifted"});
  }
  {
    SCOPED_TRACE("history for an unknown section");
    expect_typed(
        restore_traced(with_entry(
            0, "htc:snap.jobs",
            [&](std::vector<snapshot::SnapshotRecord>& out, std::size_t i) {
              snapshot::SnapshotRecord begin = out[i];
              begin.name = "htc:elsewhere.jobs";
              snapshot::SnapshotRecord first = out[i + 1];
              snapshot::SnapshotRecord rows = out[i + 2];
              set_word(first, 0);
              set_word(rows, 0);
              snapshot::SnapshotRecord end = begin;
              end.kind = snapshot::RecordKind::kSectionEnd;
              out.insert(out.begin() + static_cast<std::ptrdiff_t>(i),
                         {begin, first, rows, end});
            })),
        {"record 'htc:elsewhere.jobs' belongs to no table"});
  }
  {
    SCOPED_TRACE("a trace chunk naming ids past the name table");
    // One event whose name id (its fifth varint) is 120.
    const std::string event("\x00\x00\x02\x00\x78\x00\x00", 7);
    expect_typed(
        restore_traced(with_entry(
            0, "obs.trace.events",
            [&](std::vector<snapshot::SnapshotRecord>& out, std::size_t i) {
              set_word(out[i + 2], 1);  // rows
              out[i + 3].payload = event;
            })),
        {"history chunk 1 (t=10800) record 'obs.trace.events'",
         "name id 120 or actor id 0 is past the"});
  }
}

// Every value a history holds, set to an edge value, either restores or
// is refused with a typed error: none aborts, and no forged row count
// sizes a table past what the stream holds.
TEST(SnapshotComponents, EveryForgedHistoryValueIsRefusedOrRestores) {
  const std::string finished = three_chunk_snapshot("every");
  const std::vector<snapshot::SnapshotRecord> records = records_of(finished);
  std::size_t forged = 0;
  std::size_t refused = 0;
  const auto restore_edited = [&](const std::vector<snapshot::SnapshotRecord>&
                                      edited) {
    const Status status = restore_traced(encode(edited));
    ++forged;
    if (status.is_ok()) return;
    ++refused;
    EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                status.code() == StatusCode::kFailedPrecondition)
        << status.to_string();
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    const snapshot::SnapshotRecord& record = records[i];
    if (record.section.rfind("history", 0) != 0) continue;
    SCOPED_TRACE(record.section + " " + record.name);
    if (record.kind == snapshot::RecordKind::kU64 ||
        record.kind == snapshot::RecordKind::kI64) {
      const auto original =
          snapshot::load_le<std::uint64_t>(record.payload.data());
      for (const std::uint64_t value :
           {std::uint64_t{0}, original + 1, std::uint64_t{1} << 62}) {
        std::vector<snapshot::SnapshotRecord> edited = records;
        snapshot::store_le(edited[i].payload.data(), value);
        restore_edited(edited);
      }
    } else if (record.kind == snapshot::RecordKind::kBytes ||
               record.kind == snapshot::RecordKind::kStr) {
      for (const std::size_t keep :
           {std::size_t{0}, record.payload.size() / 2}) {
        std::vector<snapshot::SnapshotRecord> edited = records;
        edited[i].payload.resize(keep);
        restore_edited(edited);
      }
    }
  }
  EXPECT_GT(forged, 300u);
  EXPECT_GT(refused, forged / 4);
}

// A snapshot written before history was split out — `kernel` where
// `history` now follows `meta` — is refused at that record.
TEST(SnapshotComponents, RestoreRefusesThePreChangeLayout) {
  const core::ConsolidationWorkload workload = crowded_workload();
  core::SystemRunner runner(SystemModel::kDcs, workload, {});
  runner.run_until(4 * kHour);
  SnapshotWriter writer;
  ASSERT_TRUE(runner.save(writer).is_ok());
  std::vector<snapshot::SnapshotRecord> records = records_of(writer.finish());
  std::erase_if(records, [](const snapshot::SnapshotRecord& record) {
    return record.section.empty() && record.name == "history";
  });
  const Status status =
      restore_into_passive(SystemModel::kDcs, encode(records));
  expect_refused(status, "expected field 'history', found 'kernel'",
                 "drifted");
}

// The snapshot_fuzzer corpus holds a DawningCloud snapshot with three
// history chunks, as this build writes it, so the container fuzzer starts
// from the history layout.
TEST(SnapshotComponents, SnapshotFuzzerSeedIsAMultiChunkSnapshot) {
  const std::string finished = three_chunk_snapshot("seed");
  const std::string seed =
      std::string(DC_SNAPSHOT_CORPUS_DIR) + "/multi_chunk_dawningcloud.bin";
  const std::string fresh = ::testing::TempDir() + "multi_chunk_dawningcloud.bin";
  ASSERT_TRUE(atomic_write_file(fresh, finished, "test").is_ok());
  EXPECT_EQ(file_bytes(seed), finished)
      << "re-capture with: cp " << fresh << " " << seed;
}

}  // namespace
}  // namespace dc
