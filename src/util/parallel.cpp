#include "util/parallel.hpp"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "util/check.hpp"
#include "util/log.hpp"

namespace dc {
namespace {

// True on any thread currently executing inside a parallel region (a pool
// worker draining a job, or the submitting thread while its job runs).
// Nested parallel calls from such threads run inline: the outer job
// already saturates the pool, and blocking a worker on an inner job could
// deadlock.
thread_local bool t_in_parallel_region = false;

// Hard cap on pool size: explicit `threads` requests beyond the default
// can grow the pool, but never without bound.
constexpr std::size_t kMaxPoolWorkers = 256;

// One submitted sweep. Indices are claimed in contiguous chunks from
// `next`; `completed` counts finished indices and `active` counts workers
// still inside drain(), so the submitter knows when the job — and every
// reference to it — is gone.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::size_t chunk = 1;
  std::size_t helper_slots = 0;  // workers still allowed to join (mutex-guarded)
  std::size_t active = 0;        // workers inside drain() (mutex-guarded)
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
};

// Lazily created, persistent worker pool. One job runs at a time
// (submissions serialize); the submitting thread always participates, so
// the pool only ever *helps* and zero workers is a valid pool.
class SweepPool {
 public:
  static SweepPool& instance() {
    static SweepPool pool;
    return pool;
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& fn,
           std::size_t max_participants) {
    std::lock_guard<std::mutex> submit_lock(submit_mu_);
    Job job;
    job.fn = &fn;
    job.count = count;
    // Chunks balance claim traffic against load balance: small counts
    // (a 56-point sweep of multi-second simulations) claim index-by-index,
    // large counts amortize the atomic to ~4 claims per participant.
    job.chunk = std::max<std::size_t>(1, count / (max_participants * 4));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ensure_workers(std::min(max_participants - 1, kMaxPoolWorkers));
      job.helper_slots = std::min(workers_.size(), max_participants - 1);
      job_ = &job;
      ++epoch_;
    }
    work_cv_.notify_all();
    t_in_parallel_region = true;
    try {
      drain(job);
    } catch (...) {
      // The job lives on this stack frame and helpers may still hold a
      // pointer to it: claim the remaining indices so they finish quickly,
      // wait them out, then rethrow. (A throw on a *worker* thread
      // terminates, as with the previous spawn-per-call implementation.)
      job.next.store(job.count, std::memory_order_relaxed);
      t_in_parallel_region = false;
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return job.active == 0; });
      job_ = nullptr;
      throw;
    }
    t_in_parallel_region = false;
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job.completed.load(std::memory_order_acquire) == job.count &&
             job.active == 0;
    });
    DC_INVARIANT(job.next.load(std::memory_order_relaxed) >= job.count,
                 "sweep finished with unclaimed indices");
    DC_INVARIANT(job.completed.load(std::memory_order_relaxed) == job.count,
                 "sweep finished with an incomplete index count");
    job_ = nullptr;
  }

 private:
  SweepPool() = default;

  ~SweepPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  // Requires mu_ held.
  void ensure_workers(std::size_t desired) {
    while (workers_.size() < desired) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  static void drain(Job& job) {
    DC_INVARIANT(job.chunk >= 1, "sweep chunk size must be positive");
    while (true) {
      const std::size_t begin =
          job.next.fetch_add(job.chunk, std::memory_order_relaxed);
      if (begin >= job.count) return;
      const std::size_t end = std::min(begin + job.chunk, job.count);
      for (std::size_t i = begin; i < end; ++i) (*job.fn)(i);
      // Cursor sanity: chunks are claimed disjointly from the atomic
      // cursor, so completions can never exceed the index space. A
      // violation means two participants ran the same chunk.
      const std::size_t done_before =
          job.completed.fetch_add(end - begin, std::memory_order_acq_rel);
      DC_INVARIANT(done_before + (end - begin) <= job.count,
                   "sweep completed more indices than exist (double-claimed "
                   "chunk)");
      static_cast<void>(done_before);
    }
  }

  void worker_loop() {
    t_in_parallel_region = true;
    std::uint64_t seen_epoch = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      work_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && epoch_ != seen_epoch);
      });
      if (stop_) return;
      seen_epoch = epoch_;
      Job* job = job_;
      if (job->helper_slots == 0) continue;
      --job->helper_slots;
      ++job->active;
      lock.unlock();
      drain(*job);
      lock.lock();
      --job->active;
      // Wake the submitter when the last helper leaves; the submitter
      // re-checks completion itself (its predicate also covers the abort
      // path, where `completed` never reaches `count`).
      if (job->active == 0) done_cv_.notify_all();
    }
  }

  std::mutex submit_mu_;  // serializes whole jobs from distinct threads
  std::mutex mu_;         // guards pool + per-job bookkeeping below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

}  // namespace

std::size_t default_thread_count() {
  if (const char* env = std::getenv("DC_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env, &end, 10);
    const char* rest = end;
    while (*rest != '\0' && std::isspace(static_cast<unsigned char>(*rest))) {
      ++rest;
    }
    if (end != env && *rest == '\0' && errno != ERANGE && parsed >= 1) {
      return static_cast<std::size_t>(parsed);
    }
    Log::raw(LogLevel::kWarn,
             "[parallel] ignoring DC_THREADS=\"%s\": expected a positive "
             "integer; using hardware concurrency",
             env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& fn,
                        std::size_t threads) {
  if (count == 0) return;
  if (threads == 0) threads = default_thread_count();
  threads = std::min(threads, count);
  if (threads <= 1 || t_in_parallel_region) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  SweepPool::instance().run(count, fn, threads);
}

}  // namespace dc
