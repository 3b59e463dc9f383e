#include "core/job_emulator.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace dc::core {

void JobEmulator::emulate_trace(
    const workload::Trace& trace,
    std::function<void(const workload::TraceJob&)> submit) {
  TraceStream& stream = streams_.emplace_back();
  stream.submit = std::move(submit);
  stream.scaled_jobs.reserve(trace.jobs().size());
  for (const workload::TraceJob& job : trace.jobs()) {
    workload::TraceJob scaled = job;
    if (time_scale_ != 1.0) {
      scaled.submit =
          static_cast<SimTime>(static_cast<double>(job.submit) / time_scale_);
      scaled.runtime = std::max<SimDuration>(
          1, static_cast<SimDuration>(static_cast<double>(job.runtime) /
                                      time_scale_));
    }
    stream.scaled_jobs.push_back(scaled);
  }
  assert(std::is_sorted(stream.scaled_jobs.begin(), stream.scaled_jobs.end(),
                        [](const workload::TraceJob& a,
                           const workload::TraceJob& b) {
                          return a.submit < b.submit;
                        }) &&
         "a trace keeps its jobs sorted by submit time");
  if (passive_ || stream.scaled_jobs.empty()) {
    // Passive streams have nothing pending until restore() says so.
    stream.next = stream.scaled_jobs.size();
    return;
  }
  stream.reservation = simulator_->reserve_seqs(
      static_cast<std::uint32_t>(stream.scaled_jobs.size()));
  queue_next(streams_.size() - 1);
}

void JobEmulator::queue_next(std::size_t index) {
  TraceStream& stream = streams_[index];
  stream.event = simulator_->schedule_reserved(
      stream.reservation, stream.scaled_jobs[stream.next].submit,
      [this, index] { submit_next(index); });
}

void JobEmulator::submit_next(std::size_t index) {
  TraceStream& stream = streams_[index];
  const workload::TraceJob& job = stream.scaled_jobs[stream.next++];
  if (stream.next < stream.scaled_jobs.size()) queue_next(index);
  stream.submit(job);
}

void JobEmulator::emulate_at(SimTime at, std::function<void()> submit) {
  OneShot oneshot;
  oneshot.at = time_scale_ == 1.0
                   ? at
                   : static_cast<SimTime>(static_cast<double>(at) / time_scale_);
  oneshot.submit = std::move(submit);
  if (!passive_) {
    oneshot.event = simulator_->schedule_at(
        oneshot.at, [submit = oneshot.submit] { submit(); });
  }
  oneshots_.push_back(std::move(oneshot));
}

Status JobEmulator::save(snapshot::SnapshotWriter& writer) const {
  writer.field_u64("stream_count", streams_.size());
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    const TraceStream& stream = streams_[s];
    // The unfired submissions are jobs next..end: the queued one, then
    // the reserved ones on the seqs right after it, each at its own
    // submit time. The count, the queued one's seq and its time say all.
    const std::size_t count = stream.scaled_jobs.size() - stream.next;
    writer.field_u64("pending_count", count);
    if (count == 0) continue;
    const auto queued = simulator_->pending_event_info(stream.event);
    if (!queued.has_value()) {
      return Status::internal("job emulator: trace stream " +
                              std::to_string(s) +
                              " has no queued submission");
    }
    writer.field_u64("first_seq", queued->seq);
    writer.field_time("time", queued->time);
  }
  writer.field_u64("oneshot_count", oneshots_.size());
  for (const OneShot& oneshot : oneshots_) {
    const auto info = simulator_->pending_event_info(oneshot.event);
    writer.field_bool("pending", info.has_value());
    if (info.has_value()) {
      writer.field_time("time", info->time);
      writer.field_u64("seq", info->seq);
    }
  }
  return Status::ok();
}

Status JobEmulator::restore(snapshot::SnapshotReader& reader) {
  std::uint64_t stream_count = 0;
  if (auto st = reader.read_u64("stream_count", stream_count); !st.is_ok()) {
    return st;
  }
  if (stream_count != streams_.size()) {
    return Status::failed_precondition(
        "job emulator: snapshot has " + std::to_string(stream_count) +
        " trace streams but the rebuilt emulator registered " +
        std::to_string(streams_.size()) +
        " — the snapshot belongs to a different workload");
  }
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    TraceStream& stream = streams_[s];
    const std::size_t jobs = stream.scaled_jobs.size();
    const std::string where = "job emulator: trace stream " + std::to_string(s);
    std::uint64_t pending_count = 0;
    if (auto st = reader.read_u64("pending_count", pending_count);
        !st.is_ok()) {
      return st;
    }
    if (pending_count > jobs) {
      return Status::failed_precondition(
          where + ": " + std::to_string(pending_count) +
          " unfired submissions, beyond the stream's " + std::to_string(jobs) +
          " jobs");
    }
    if (pending_count == 0) {
      stream.next = jobs;
      continue;
    }
    std::uint64_t first_seq = 0;
    if (auto st = reader.read_u64("first_seq", first_seq); !st.is_ok()) {
      return st;
    }
    SimTime time = 0;
    if (auto st = reader.read_time("time", time); !st.is_ok()) return st;
    // The unfired submissions are the last pending_count jobs, on the
    // consecutive seqs from first_seq, the queued one at its job's submit
    // time: the one shape that re-queuing a submission and reserving the
    // rest reproduces. The seqs were drawn before the snapshot, so they lie
    // below the kernel's next seq (itself at most 0xffffffff), and the
    // queued submission is not in the past.
    const std::size_t first = jobs - static_cast<std::size_t>(pending_count);
    const SimTime submit = stream.scaled_jobs[first].submit;
    const std::uint64_t next_seq = simulator_->next_seq();
    if (first_seq == 0 || first_seq > next_seq ||
        pending_count > next_seq - first_seq || time != submit ||
        time < simulator_->now()) {
      return Status::failed_precondition(
          where + ": unfired jobs " + std::to_string(first) + ".." +
          std::to_string(jobs - 1) + " queued at t=" + std::to_string(time) +
          " on seqs from " + std::to_string(first_seq) + ", want job " +
          std::to_string(first) + "'s submit time " + std::to_string(submit) +
          " (not before t=" + std::to_string(simulator_->now()) +
          ") and seqs in [1, " + std::to_string(next_seq) + ")");
    }
    stream.next = first;
    stream.event = simulator_->restore_event(
        time, static_cast<std::uint32_t>(first_seq),
        [this, s] { submit_next(s); });
    if (pending_count > 1) {
      stream.reservation = simulator_->restore_reservation(
          static_cast<std::uint32_t>(first_seq + 1),
          static_cast<std::uint32_t>(pending_count - 1));
    }
  }
  std::uint64_t oneshot_count = 0;
  if (auto st = reader.read_u64("oneshot_count", oneshot_count); !st.is_ok()) {
    return st;
  }
  if (oneshot_count != oneshots_.size()) {
    return Status::failed_precondition(
        "job emulator: snapshot has " + std::to_string(oneshot_count) +
        " one-shot submissions but the rebuilt emulator registered " +
        std::to_string(oneshots_.size()));
  }
  for (OneShot& oneshot : oneshots_) {
    bool pending = false;
    if (auto st = reader.read_bool("pending", pending); !st.is_ok()) return st;
    if (!pending) continue;
    SimTime time = 0;
    if (auto st = reader.read_time("time", time); !st.is_ok()) return st;
    std::uint64_t seq = 0;
    if (auto st = reader.read_u64("seq", seq); !st.is_ok()) return st;
    oneshot.event = simulator_->restore_event(
        time, static_cast<std::uint32_t>(seq),
        [submit = oneshot.submit] { submit(); });
  }
  return Status::ok();
}

}  // namespace dc::core
