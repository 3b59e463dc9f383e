// Thread-parallel sweep execution.
//
// Experiments are pure functions of their inputs and each owns its
// Simulator, so parameter sweeps (Figures 9-11, the tuner's grids, the
// robustness studies) are embarrassingly parallel. parallel_for_index is a
// fork-join: each call starts `threads - 1` helper threads, and they and
// the caller claim indices one at a time from one atomic cursor until
// [0, count) is exhausted; the call returns after joining them. Results
// are written by index, so output ordering — and therefore every CSV and
// table — is identical to the sequential run. See docs/ARCHITECTURE.md,
// "Threading model", for why a call spawns its helpers rather than
// reusing a pool.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace dc {

/// Number of threads a sweep uses by default: the hardware concurrency,
/// at least 1.
std::size_t default_thread_count();

/// Invokes fn(i) for every i in [0, count), distributing indices over
/// `threads` threads (0 = default_thread_count()), the caller included.
/// fn must be safe to call concurrently for distinct i. Runs inline when
/// count <= 1, one thread, or when called from inside another
/// parallel_for_index. A throw from fn, on any thread, stops further
/// claims; the first one is rethrown once the helpers have joined.
void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& fn,
                        std::size_t threads = 0);

/// Maps fn over [0, count) into a vector, in parallel, preserving order.
template <typename T, typename Fn>
std::vector<T> parallel_map_index(std::size_t count, Fn&& fn,
                                  std::size_t threads = 0) {
  std::vector<T> results(count);
  parallel_for_index(
      count, [&](std::size_t i) { results[i] = fn(i); }, threads);
  return results;
}

}  // namespace dc
