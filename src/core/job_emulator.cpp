#include "core/job_emulator.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "core/snapshot_walk.hpp"

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

template <class Io>
Status JobEmulator::persist(Io& io) {
  std::uint64_t stream_count = streams_.size();
  if (auto st = io.u64("stream_count", stream_count); !st.is_ok()) return st;
  if constexpr (!Io::kSaving) {
    if (stream_count != streams_.size()) {
      return Status::failed_precondition(
          "job emulator: snapshot has " + std::to_string(stream_count) +
          " trace streams but the rebuilt emulator registered " +
          std::to_string(streams_.size()) +
          " — the snapshot belongs to a different workload");
    }
  }
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    TraceStream& stream = streams_[s];
    const std::size_t jobs = stream.scaled_jobs.size();
    const std::string where = "job emulator: trace stream " + std::to_string(s);
    // The unfired submissions are jobs next..end: the queued one, then
    // the reserved ones on the seqs right after it, each at its own
    // submit time. The count, the queued one's seq and its time say all.
    std::uint64_t pending_count = jobs - stream.next;
    if (auto st = io.u64("pending_count", pending_count); !st.is_ok()) {
      return st;
    }
    if constexpr (!Io::kSaving) {
      if (pending_count > jobs) {
        return Status::failed_precondition(
            where + ": " + std::to_string(pending_count) +
            " unfired submissions, beyond the stream's " +
            std::to_string(jobs) + " jobs");
      }
      stream.next = jobs - pending_count;
    }
    if (pending_count == 0) continue;
    // Seq first, then time: the reverse of EventRecord::persist.
    EventRecord queued{"time", "first_seq"};
    if constexpr (Io::kSaving) {
      const auto info = simulator_->pending_event_info(stream.event);
      if (!info.has_value()) {
        return Status::internal(where + " has no queued submission");
      }
      queued.time = info->time;
      queued.seq = info->seq;
    }
    if (auto st = io.u64(queued.seq_name, queued.seq); !st.is_ok()) return st;
    if (auto st = io.i64(queued.time_name, queued.time); !st.is_ok()) return st;
    if constexpr (!Io::kSaving) {
      // Re-queuing one submission and reserving the rest reproduces only
      // that shape. The seqs were drawn before the snapshot, so they lie
      // below the kernel's next seq (itself at most 0xffffffff), and the
      // queued submission is at its job's submit time, not in the past.
      const SimTime submit = stream.scaled_jobs[stream.next].submit;
      const std::uint64_t next_seq = simulator_->next_seq();
      if (queued.seq == 0 || queued.seq > next_seq ||
          pending_count > next_seq - queued.seq || queued.time != submit ||
          queued.time < simulator_->now()) {
        return Status::failed_precondition(
            where + ": unfired jobs " + std::to_string(stream.next) + ".." +
            std::to_string(jobs - 1) + " queued at t=" +
            std::to_string(queued.time) + " on seqs from " +
            std::to_string(queued.seq) + ", want job " +
            std::to_string(stream.next) + "'s submit time " +
            std::to_string(submit) + " (not before t=" +
            std::to_string(simulator_->now()) + ") and seqs in [1, " +
            std::to_string(next_seq) + ")");
      }
      if (auto st = queued.rearm(io, *simulator_, stream.event,
                                 [this, s] { submit_next(s); });
          !st.is_ok()) {
        return st;
      }
      if (pending_count > 1) {
        auto reservation = simulator_->restore_reservation(
            static_cast<std::uint32_t>(queued.seq + 1),
            static_cast<std::uint32_t>(pending_count - 1));
        if (!reservation.is_ok()) return reservation.status();
        stream.reservation = *reservation;
      }
    }
  }
  std::uint64_t oneshot_count = oneshots_.size();
  if (auto st = io.u64("oneshot_count", oneshot_count); !st.is_ok()) return st;
  if constexpr (!Io::kSaving) {
    if (oneshot_count != oneshots_.size()) {
      return Status::failed_precondition(
          "job emulator: snapshot has " + std::to_string(oneshot_count) +
          " one-shot submissions but the rebuilt emulator registered " +
          std::to_string(oneshots_.size()));
    }
  }
  for (OneShot& oneshot : oneshots_) {
    bool pending = Io::kSaving &&
                   simulator_->pending_event_info(oneshot.event).has_value();
    if (auto st = io.boolean("pending", pending); !st.is_ok()) return st;
    if (!pending) continue;
    const auto submission = [&] {
      return [submit = oneshot.submit] { submit(); };
    };
    if (auto st = persist_event(io, *simulator_, {"time", "seq"},
                                oneshot.event, submission);
        !st.is_ok()) {
      return st;
    }
  }
  return Status::ok();
}

Status JobEmulator::save(snapshot::SnapshotWriter& writer) const {
  return const_cast<JobEmulator&>(*this).persist(writer);
}

Status JobEmulator::restore(snapshot::SnapshotReader& reader) {
  return persist(reader);
}

}  // namespace dc::core
