#include "net/event_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <sys/epoll.h>
#endif

namespace bat::net {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("event loop: " + what + ": " +
                           std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    sys_fail("fcntl O_NONBLOCK");
  }
}

}  // namespace

EventLoop::EventLoop(bool force_poll) {
#if defined(__linux__)
  use_epoll_ = !force_poll;
#else
  (void)force_poll;
  use_epoll_ = false;
#endif
  if (::pipe(wake_pipe_) < 0) sys_fail("pipe");
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
#if defined(__linux__)
  if (use_epoll_) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) sys_fail("epoll_create1");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_pipe_[0];
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev) < 0) {
      sys_fail("epoll_ctl wake pipe");
    }
  }
#endif
}

EventLoop::~EventLoop() {
  stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void EventLoop::start() {
  if (started_) {
    throw std::runtime_error("event loop: start() called twice");
  }
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  stop_flag_.store(true);
  wake();
  if (thread_.joinable()) thread_.join();
  {
    // Refuse posts from here on. The loop thread drained everything
    // queued before it exited (see run()), so nothing is dropped here;
    // this only closes the door behind it.
    std::lock_guard lock(tasks_mutex_);
    accepting_tasks_ = false;
  }
}

bool EventLoop::post(Task task) {
  {
    std::lock_guard lock(tasks_mutex_);
    if (!accepting_tasks_) return false;  // stopped: refuse (see header)
    tasks_.push_back(std::move(task));
  }
  wake();
  return true;
}

void EventLoop::wake() {
  const char byte = 1;
  // EAGAIN means a wake is already pending — exactly what we need.
  (void)!::write(wake_pipe_[1], &byte, 1);
}

void EventLoop::drain_wake_pipe() {
  char sink[256];
  while (::read(wake_pipe_[0], sink, sizeof sink) > 0) {
  }
}

void EventLoop::run_posted_tasks() {
  std::vector<Task> batch;
  {
    std::lock_guard lock(tasks_mutex_);
    batch.swap(tasks_);
  }
  for (auto& task : batch) task();
}

void EventLoop::add_fd(int fd, std::uint32_t interest, Callback callback) {
  entries_[fd] = Entry{interest, std::move(callback)};
#if defined(__linux__)
  if (use_epoll_) epoll_update(fd, interest, /*adding=*/true);
#endif
}

void EventLoop::set_interest(int fd, std::uint32_t interest) {
  const auto it = entries_.find(fd);
  if (it == entries_.end()) return;
  if (it->second.interest == interest) return;
  it->second.interest = interest;
#if defined(__linux__)
  if (use_epoll_) epoll_update(fd, interest, /*adding=*/false);
#endif
}

void EventLoop::remove_fd(int fd) {
  if (entries_.erase(fd) == 0) return;
#if defined(__linux__)
  if (use_epoll_) (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
}

#if defined(__linux__)
void EventLoop::epoll_update(int fd, std::uint32_t interest, bool adding) {
  epoll_event ev{};
  ev.events = 0;  // level-triggered
  if (interest & kRead) ev.events |= EPOLLIN;
  if (interest & kWrite) ev.events |= EPOLLOUT;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, adding ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd,
                  &ev) < 0) {
    sys_fail("epoll_ctl");
  }
}
#endif

void EventLoop::run() {
  while (!stop_flag_.load()) {
    poll_once();
  }
  // Exit drain: run everything already posted, then latch the queue
  // shut — a post racing with this drain is refused (returns false),
  // never stranded in the vector with its captures pinned.
  std::vector<Task> remaining;
  {
    std::lock_guard lock(tasks_mutex_);
    accepting_tasks_ = false;
    remaining.swap(tasks_);
  }
  for (auto& task : remaining) task();
}

void EventLoop::poll_once() {
  // Collect (fd, events) pairs first, dispatch after: a callback may
  // add or remove fds (including its own), so every dispatch re-checks
  // the registry and copies the callback before invoking it — an fd
  // erased mid-batch is skipped, and a callback that removes itself
  // cannot destroy the std::function it is executing from under itself.
  struct Fired {
    int fd;
    std::uint32_t events;
  };
  std::vector<Fired> fired;

#if defined(__linux__)
  if (use_epoll_) {
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) return;
      sys_fail("epoll_wait");
    }
    fired.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_pipe_[0]) {
        drain_wake_pipe();
        continue;
      }
      std::uint32_t mask = 0;
      if (events[i].events & (EPOLLIN | EPOLLPRI)) mask |= kRead;
      if (events[i].events & EPOLLOUT) mask |= kWrite;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) mask |= kError | kRead;
      fired.push_back({fd, mask});
    }
  } else
#endif
  {
    std::vector<pollfd> fds;
    fds.reserve(entries_.size() + 1);
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const auto& [fd, entry] : entries_) {
      short interest = 0;
      if (entry.interest & kRead) interest |= POLLIN;
      if (entry.interest & kWrite) interest |= POLLOUT;
      fds.push_back({fd, interest, 0});
    }
    const int n = ::poll(fds.data(), fds.size(), -1);
    if (n < 0) {
      if (errno == EINTR) return;
      sys_fail("poll");
    }
    if (fds.front().revents & POLLIN) drain_wake_pipe();
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      std::uint32_t mask = 0;
      if (revents & (POLLIN | POLLPRI)) mask |= kRead;
      if (revents & POLLOUT) mask |= kWrite;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) mask |= kError | kRead;
      fired.push_back({fds[i].fd, mask});
    }
  }

  // Tasks before events: a posted completion queues response bytes that
  // the very next write-readiness dispatch can flush.
  run_posted_tasks();
  if (stop_flag_.load()) return;

  for (const auto& [fd, events] : fired) {
    const auto it = entries_.find(fd);
    if (it == entries_.end()) continue;  // removed by an earlier callback
    const Callback callback = it->second.callback;
    callback(events);
  }
}

}  // namespace bat::net
