#include "net/conn_state.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>

namespace bat::net {

ConnState::ConnState(int fd, std::uint64_t id) : fd_(fd), id_(id) {}

ConnState::~ConnState() {
  if (fd_ >= 0) ::close(fd_);
}

ConnState::IoStatus ConnState::read_some(std::size_t max_bytes) {
  char chunk[16 * 1024];
  std::size_t landed = 0;
  while (landed < max_bytes) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      in_.append(chunk, static_cast<std::size_t>(n));
      landed += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < sizeof chunk) break;  // drained
      continue;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return landed > 0 ? IoStatus::kOk : IoStatus::kBlocked;
    }
    return IoStatus::kError;
  }
  return landed > 0 ? IoStatus::kOk : IoStatus::kBlocked;
}

ParseResult ConnState::next_request(HttpRequest& out,
                                    const ParseLimits& limits) {
  const ParseResult parsed = parse_request(in_, out, limits);
  if (parsed.status == ParseStatus::kOk) in_.erase(0, parsed.consumed);
  return parsed;
}

void ConnState::queue_output(std::string bytes) {
  if (bytes.empty()) return;
  out_.push_back(std::move(bytes));
}

ConnState::IoStatus ConnState::flush() {
  while (!out_.empty()) {
    // Gather up to 8 queued buffers per writev — one syscall covers a
    // response head + body split or a burst of pipelined responses.
    iovec iov[8];
    int iov_count = 0;
    std::size_t offset = out_front_offset_;
    for (const auto& buffer : out_) {
      if (iov_count == 8) break;
      iov[iov_count].iov_base =
          const_cast<char*>(buffer.data() + offset);
      iov[iov_count].iov_len = buffer.size() - offset;
      ++iov_count;
      offset = 0;
    }
    // sendmsg, not writev: MSG_NOSIGNAL keeps a peer that closed
    // mid-response an error return instead of a process-wide SIGPIPE.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_count);
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kBlocked;
      return IoStatus::kError;
    }
    // Retire fully-written buffers, remember progress into the next.
    std::size_t remaining = static_cast<std::size_t>(n);
    while (remaining > 0) {
      const std::size_t front_left = out_.front().size() - out_front_offset_;
      if (remaining >= front_left) {
        remaining -= front_left;
        out_.pop_front();
        out_front_offset_ = 0;
      } else {
        out_front_offset_ += remaining;
        remaining = 0;
      }
    }
  }
  return IoStatus::kDrained;
}

}  // namespace bat::net
