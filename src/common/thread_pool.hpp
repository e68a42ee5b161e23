// A fixed-size thread pool with OpenMP-style parallel loops.
//
// BAT evaluates up to ~10^8 constraint predicates and ~10^5 simulated
// kernel launches per experiment; all of that is embarrassingly parallel.
// User code never spawns raw threads (CP.1/CP.25): it calls parallel_for /
// parallel_for_chunked on the shared pool, which chunk the index range
// statically like `#pragma omp parallel for schedule(static)`.
//
// The inline-nesting rule (easy to trip over): a parallel_for issued
// from *inside* a pool task runs its body inline on the calling worker
// instead of fanning out — the outer level owns the parallelism, which
// is what makes composed parallel code deadlock-free. Tuning sessions
// never fan out their evaluation batches (LiveBackend is serial); the
// service and fig2 get their parallelism from running many sessions at
// once, and core::Runner's sweeps from splitting each batch over the
// pool. Blocking a pool task on work that needs another pool task
// (rather than on an external signal) would deadlock a full pool —
// don't.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/contracts.hpp"

namespace bat::common {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Process-wide pool, created lazily, sized to the hardware.
  static ThreadPool& global();

  /// Enqueues one independent fire-and-forget task. Unlike parallel_for
  /// this returns immediately; completion tracking (futures, counters)
  /// is the caller's business — service::TuningService builds its
  /// bounded session queue on top of this. Tasks still queued at
  /// destruction are drained before the workers join. Must not be
  /// called on a pool that is being destroyed.
  void submit(std::function<void()> task);

  /// Runs body(begin..end) split into one contiguous chunk per worker.
  /// body receives (chunk_begin, chunk_end, worker_index). Blocks until all
  /// chunks complete. Exceptions from workers are rethrown (first one wins).
  /// Re-entrant: a nested call from inside a pool task runs its body
  /// inline on the calling worker (the outer level owns the parallelism),
  /// so composed parallel code cannot deadlock the pool.
  void parallel_for_chunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

  /// Element-wise parallel for: body(index).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Task {
    std::function<void()> fn;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience free functions using the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace bat::common
