#include "sched/job.hpp"

#include <cassert>

namespace dc::sched {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kPending: return "pending";
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

void JobQueue::remove_positions(const std::vector<std::size_t>& positions) {
  if (positions.empty()) return;
  std::size_t kept = 0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (next < positions.size() && positions[next] == i) {
      assert(next + 1 >= positions.size() || positions[next + 1] > i);
      ++next;
      continue;
    }
    items_[kept++] = items_[i];
  }
  assert(next == positions.size() && "position out of range");
  items_.resize(kept);
}

}  // namespace dc::sched
