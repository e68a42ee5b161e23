// ConnState: one nonblocking HTTP connection's state machine.
//
// The per-connection half of the event-driven server: owns the fd, the
// inbound parse buffer and the outbound write queue, and exposes the
// three operations the readiness loop drives —
//
//   read_some()     drain the socket into the inbound buffer (EAGAIN-
//                   bounded, so a loop iteration never blocks);
//   next_request()  frame one request off the buffer with the strict
//                   incremental parser (net/http.hpp) and consume its
//                   bytes; pipelined requests stay queued behind it;
//   flush()         vectored sendmsg(2) of the queued responses until
//                   the kernel pushes back (kPending -> the caller
//                   registers write interest) or everything drained.
//
// Policy lives in the server (dispatch, admission, keep-alive,
// interest juggling); this type is the mechanics, single-threaded by
// construction — a connection is owned by exactly one EventLoop thread.
//
// Backpressure shape: responses append to `out_`; a peer that stops
// reading leaves them queued (bounded by one in-flight response per
// connection — the server parses no further request while one is being
// handled, and stops reading while output is pending), and the inbound
// buffer is bounded by the parser's head/body limits. Memory per
// connection is therefore O(limits), never O(peer behavior).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "net/http.hpp"

namespace bat::net {

class ConnState {
 public:
  enum class IoStatus {
    kOk,        // made progress; more may be pending
    kBlocked,   // EAGAIN: wait for the next readiness event
    kClosed,    // peer closed its end (read side only)
    kError,     // unrecoverable socket error: tear the connection down
    kDrained,   // flush(): output queue fully written
  };

  /// Takes ownership of `fd` (closed in the destructor).
  ConnState(int fd, std::uint64_t id);
  ~ConnState();

  ConnState(const ConnState&) = delete;
  ConnState& operator=(const ConnState&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// recv(2) until EAGAIN or `max_bytes` landed in the inbound buffer.
  /// kOk when any bytes arrived, kBlocked when none were ready.
  [[nodiscard]] IoStatus read_some(std::size_t max_bytes = 64 * 1024);

  /// Frames one request off the inbound buffer. On kOk the request's
  /// bytes are consumed (pipelined successors remain buffered).
  [[nodiscard]] ParseResult next_request(HttpRequest& out,
                                         const ParseLimits& limits);

  /// True when buffered inbound bytes might hold another request.
  [[nodiscard]] bool has_buffered_input() const noexcept {
    return !in_.empty();
  }

  /// Queues serialized response bytes for flush().
  void queue_output(std::string bytes);
  [[nodiscard]] bool has_pending_output() const noexcept {
    return !out_.empty();
  }

  /// Vectored sendmsg(2) of the queued buffers until kDrained,
  /// kBlocked (kernel pushed back) or kError.
  [[nodiscard]] IoStatus flush();

  /// One request handed to the worker pool, response not yet queued.
  [[nodiscard]] bool busy() const noexcept { return busy_; }
  void set_busy(bool busy) noexcept { busy_ = busy; }

  /// Close once the output queue drains (error paths, connection:
  /// close, server shutdown).
  [[nodiscard]] bool close_after_flush() const noexcept {
    return close_after_flush_;
  }
  void set_close_after_flush() noexcept { close_after_flush_ = true; }

  /// Peer sent FIN: no more bytes will arrive, but complete pipelined
  /// requests already buffered are still served before teardown.
  [[nodiscard]] bool peer_closed() const noexcept { return peer_closed_; }
  void set_peer_closed() noexcept { peer_closed_ = true; }

  /// Interest mask currently registered with the loop (server-managed;
  /// cached here so set_interest calls only happen on transitions).
  [[nodiscard]] std::uint32_t interest() const noexcept { return interest_; }
  void set_interest_cache(std::uint32_t interest) noexcept {
    interest_ = interest;
  }

 private:
  int fd_;
  std::uint64_t id_;
  std::string in_;
  std::deque<std::string> out_;
  std::size_t out_front_offset_ = 0;  // bytes of out_.front() already sent
  bool busy_ = false;
  bool close_after_flush_ = false;
  bool peer_closed_ = false;
  std::uint32_t interest_ = 0;
};

}  // namespace bat::net
