#include "workload/trace.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

namespace dc::workload {

Trace::Trace(std::string name, std::int64_t capacity_nodes,
             std::vector<TraceJob> jobs)
    : name_(std::move(name)),
      capacity_nodes_(capacity_nodes),
      jobs_(std::move(jobs)) {
  assert(capacity_nodes_ > 0);
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const TraceJob& a, const TraceJob& b) {
                     return a.submit < b.submit;
                   });
}

StatusOr<Trace> Trace::from_swf(const SwfFile& file, std::string name,
                                std::int64_t cpus_per_node) {
  if (cpus_per_node <= 0) {
    return Status::invalid_argument("cpus_per_node must be positive");
  }
  std::int64_t capacity = 0;
  if (auto procs = file.header.max_procs(); procs.has_value()) {
    capacity = *procs;  // after normalization, one processor == one node
  } else if (auto nodes = file.header.max_nodes(); nodes.has_value()) {
    capacity = *nodes * cpus_per_node;
  }
  std::optional<std::int64_t> period;
  if (file.header.fields.count("Period") != 0) {
    period = file.header.int_field("Period");
    if (!period.has_value() || *period <= 0) {
      return Status::invalid_argument(
          "SWF Period header must be a positive number of seconds");
    }
  }
  std::vector<TraceJob> jobs;
  jobs.reserve(file.records.size());
  std::int64_t next_id = 1;
  for (const SwfRecord& record : file.records) {
    if (record.run_time <= 0 || record.procs() <= 0 || record.submit_time < 0) {
      continue;  // cancelled / malformed archive entries
    }
    TraceJob job;
    job.id = next_id++;
    job.submit = record.submit_time;
    job.runtime = record.run_time;
    job.nodes = record.procs();  // one processor == one normalized node
    jobs.push_back(job);
  }
  if (capacity == 0) {
    for (const TraceJob& job : jobs) capacity = std::max(capacity, job.nodes);
  }
  if (capacity == 0) {
    return Status::invalid_argument("SWF file has no usable jobs and no capacity header");
  }
  Trace trace(std::move(name), capacity, std::move(jobs));
  if (period.has_value()) trace.set_period(*period);
  return trace;
}

SwfFile Trace::to_swf() const {
  SwfFile file;
  file.header.set("Computer", name_);
  file.header.set_int("MaxProcs", capacity_nodes_);
  file.header.set_int("MaxNodes", capacity_nodes_);
  file.header.set_int("MaxJobs", static_cast<std::int64_t>(jobs_.size()));
  file.header.set("Note", "synthetic trace generated by DawningCloud reproduction");
  if (period_ != kNever) file.header.set_int("Period", period_);
  file.records.reserve(jobs_.size());
  for (const TraceJob& job : jobs_) {
    SwfRecord record;
    record.job_number = job.id;
    record.submit_time = job.submit;
    record.wait_time = -1;
    record.run_time = job.runtime;
    record.allocated_procs = job.nodes;
    record.requested_procs = job.nodes;
    record.requested_time = job.runtime;
    record.status = 1;  // completed
    record.user_id = 1 + job.id % 31;
    file.records.push_back(record);
  }
  return file;
}

SimTime Trace::last_submit() const {
  return jobs_.empty() ? 0 : jobs_.back().submit;
}

SimTime Trace::period() const {
  if (period_ != kNever) return period_;
  return ceil_div(last_submit(), kHour) * kHour;
}

Trace Trace::slice(SimTime from, SimTime to) const {
  assert(from <= to);
  std::vector<TraceJob> jobs;
  for (const TraceJob& job : jobs_) {
    if (job.submit >= from && job.submit < to) {
      TraceJob rebased = job;
      rebased.submit -= from;
      jobs.push_back(rebased);
    }
  }
  Trace out(name_ + "-slice", capacity_nodes_, std::move(jobs));
  if (period_ != kNever) out.set_period(std::min(period_, to) - from);
  return out;
}

void Trace::scale_runtimes(double factor) {
  assert(factor > 0.0);
  for (TraceJob& job : jobs_) {
    job.runtime = std::max<SimDuration>(
        1, static_cast<SimDuration>(std::llround(
               static_cast<double>(job.runtime) * factor)));
  }
}

std::int64_t Trace::max_nodes() const {
  std::int64_t widest = 0;
  for (const TraceJob& job : jobs_) widest = std::max(widest, job.nodes);
  return widest;
}

}  // namespace dc::workload
