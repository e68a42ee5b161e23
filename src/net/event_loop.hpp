// EventLoop: one thread multiplexing many nonblocking fds by readiness.
//
// The core the HTTP server's connection state machines run on. One
// EventLoop == one thread == one readiness set:
//
//   * fds register a callback plus an interest mask (kRead/kWrite);
//     the loop invokes the callback with the events that fired. The
//     notification is level-triggered: a callback that does not drain
//     its fd is simply called again on the next iteration;
//   * the backend is epoll(7) on Linux and a portable poll(2) fallback
//     everywhere else — `force_poll` selects the fallback explicitly
//     so tests exercise both on any platform;
//   * post() is the only cross-thread entry point: it enqueues a task
//     and wakes the loop via a self-pipe; the task runs on the loop
//     thread before the next readiness dispatch. Everything else
//     (add/modify/remove_fd) must be called from the loop thread (or
//     before start()), which is what makes per-fd state single-
//     threaded and mutex-free;
//   * stop() (any thread) wakes the loop and joins. Tasks already
//     queued run on the loop thread right before it exits (an adoption
//     or completion enqueued during shutdown still executes, so its
//     captures release resources normally); tasks posted *after* stop
//     are refused — post() returns false and the caller keeps
//     ownership of whatever the task was about to hand over.
//
// Ownership: the loop never closes registered fds; whoever registered
// them does (net/http_server.cpp owns connections, conn_state.hpp the
// buffers). The self-pipe is the loop's own and is closed with it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace bat::net {

class EventLoop {
 public:
  /// Readiness bits: interest masks use kRead/kWrite; delivered event
  /// masks may add kError (ERR/HUP — the fd is dead, clean up).
  static constexpr std::uint32_t kRead = 1u;
  static constexpr std::uint32_t kWrite = 2u;
  static constexpr std::uint32_t kError = 4u;

  using Callback = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;

  /// `force_poll` selects the poll(2) backend even where epoll exists.
  explicit EventLoop(bool force_poll = false);
  ~EventLoop();  // stop()

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread. Call once.
  void start();
  /// Wakes and joins the loop thread. Idempotent; safe without start().
  void stop();

  /// Registers `fd` with an interest mask. Loop thread (or pre-start)
  /// only. The callback may add/modify/remove fds, including its own.
  void add_fd(int fd, std::uint32_t interest, Callback callback);
  /// Replaces the interest mask. No-op if the fd is not registered.
  void set_interest(int fd, std::uint32_t interest);
  /// Deregisters. The fd stays open — closing it is the caller's job.
  void remove_fd(int fd);

  /// Enqueues a task onto the loop thread and wakes it. Thread-safe.
  /// Returns false (task destroyed, nothing ran) once the loop has
  /// stopped accepting work.
  bool post(Task task);

 private:
  struct Entry {
    std::uint32_t interest = 0;
    Callback callback;
  };

  void run();
  void wake();
  void drain_wake_pipe();
  void run_posted_tasks();
  /// Blocks for readiness, then dispatches callbacks. One iteration.
  void poll_once();
#if defined(__linux__)
  void epoll_update(int fd, std::uint32_t interest, bool adding);
#endif

  bool use_epoll_ = false;
  int epoll_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};

  std::unordered_map<int, Entry> entries_;  // loop-thread-owned

  std::thread thread_;
  std::atomic<bool> stop_flag_{false};
  bool started_ = false;

  std::mutex tasks_mutex_;
  std::vector<Task> tasks_;  // guarded by tasks_mutex_
  bool accepting_tasks_ = true;  // guarded by tasks_mutex_
};

}  // namespace bat::net
