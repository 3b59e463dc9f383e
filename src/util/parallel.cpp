#include "util/parallel.hpp"

#include <atomic>
#include <exception>

#include "util/check.hpp"

namespace dc {
namespace {

// True on a thread running inside a parallel region (a helper, or the
// caller while its own call runs). Nested calls from it run inline: the
// outer call already keeps every core busy.
thread_local bool t_in_parallel_region = false;

}  // namespace

std::size_t default_thread_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& fn,
                        std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  threads = std::min(threads, count);
  if (threads <= 1 || t_in_parallel_region) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // the first throw, from whichever thread
  DC_CHECKED_ONLY(std::vector<std::atomic<int>> runs(count);)
  const auto drain = [&] {
    t_in_parallel_region = true;
    try {
      for (std::size_t i = next++; i < count; i = next++) {
        fn(i);
        DC_CHECKED_ONLY(runs[i].fetch_add(1, std::memory_order_relaxed);)
      }
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
      next = count;  // stops the claims
    }
    t_in_parallel_region = false;
  };
  std::vector<std::jthread> helpers;
  for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(drain);
  drain();
  helpers.clear();  // joins
  if (error) std::rethrow_exception(error);
  DC_CHECKED_ONLY(for (const std::atomic<int>& ran : runs) {
    DC_INVARIANT(ran.load(std::memory_order_relaxed) == 1,
                 "parallel_for_index ran an index other than exactly once");
  })
}

}  // namespace dc
