#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>

namespace bat::common {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    BAT_EXPECTS(!stop_);
    queue_.push(Task{std::move(task)});
  }
  cv_.notify_one();
}

namespace {
// Set while a pool worker runs a task: nested parallel_for calls from
// inside a task execute inline instead of re-entering the queue, which
// would deadlock once every worker is blocked waiting on nested chunks.
thread_local bool t_inside_worker = false;
}  // namespace

void ThreadPool::worker_loop() {
  t_inside_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task.fn();
  }
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  BAT_EXPECTS(begin <= end);
  const std::size_t n = end - begin;
  if (n == 0) return;
  const std::size_t workers = std::min(size(), n);
  if (workers <= 1 || t_inside_worker) {
    body(begin, end, 0);
    return;
  }

  // Completion state is shared-owned: the caller may wake and return the
  // moment `remaining` hits zero, so the last worker must not touch any
  // stack-allocated synchronization objects afterwards.
  struct Completion {
    std::atomic<std::size_t> remaining;
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<Completion>();
  state->remaining.store(workers);

  const std::size_t chunk = (n + workers - 1) / workers;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t lo = begin + w * chunk;
      const std::size_t hi = std::min(end, lo + chunk);
      queue_.push(Task{[state, &body, lo, hi, w] {
        try {
          if (lo < hi) body(lo, hi, w);
        } catch (...) {
          std::lock_guard elock(state->mutex);
          if (!state->first_error) {
            state->first_error = std::current_exception();
          }
        }
        std::size_t left = 0;
        {
          std::lock_guard dlock(state->mutex);
          left = --state->remaining;
        }
        if (left == 0) state->cv.notify_all();
      }});
    }
  }
  cv_.notify_all();

  std::unique_lock lock(state->mutex);
  state->cv.wait(lock, [&] { return state->remaining.load() == 0; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_chunked(begin, end,
                       [&](std::size_t lo, std::size_t hi, std::size_t) {
                         for (std::size_t i = lo; i < hi; ++i) body(i);
                       });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, body);
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  ThreadPool::global().parallel_for_chunked(begin, end, body);
}

}  // namespace bat::common
