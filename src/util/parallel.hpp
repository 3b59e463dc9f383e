// Thread-parallel sweep execution.
//
// Experiments are pure functions of their inputs and each owns its
// Simulator, so parameter sweeps (Figures 9-11, the tuner's grids, the
// robustness studies) are embarrassingly parallel. parallel_for_index
// partitions [0, count) over a persistent worker pool; results are written
// by index, so output ordering — and therefore every CSV and table — is
// identical to the sequential run.
//
// Pool model (see docs/ARCHITECTURE.md, "Threading model"): workers are
// spawned lazily on the first parallel call and reused for every
// subsequent sweep — no thread spawn/join cost per call. Indices are
// claimed in contiguous chunks from a shared atomic cursor; the calling
// thread participates in its own job, so a sweep completes even with zero
// pool workers (DC_THREADS=1) and nested parallel calls degrade to inline
// execution instead of deadlocking.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace dc {

/// Number of worker threads to use: DC_THREADS env var if set to a valid
/// positive integer, otherwise the hardware concurrency (min 1). A
/// malformed or non-positive DC_THREADS is rejected with a dc::Log warning
/// rather than silently misread.
std::size_t default_thread_count();

/// Invokes fn(i) for every i in [0, count), distributing indices over
/// `threads` workers (0 = default_thread_count()). fn must be safe to call
/// concurrently for distinct i. Runs inline when count <= 1, one thread,
/// or when called from inside another parallel_for_index.
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
