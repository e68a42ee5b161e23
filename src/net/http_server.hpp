// HttpServer: event-driven readiness core with overload safety.
//
// The service front-end the tuning API sits behind. Architecture
// (replacing the PR-5 blocking accept thread + one-worker-per-
// connection model, which pinned a thread per keep-alive client):
//
//   * a small fixed pool of EventLoop threads (`event_loops`) drives
//     nonblocking sockets by readiness — epoll on Linux, poll(2)
//     fallback elsewhere (`force_poll` selects it explicitly for
//     tests). The listening socket lives on loop 0; accepted
//     connections are distributed round-robin and each ConnState is
//     owned by exactly one loop thread (no per-connection locks);
//   * per-connection state machines reuse the incremental parsers in
//     net/http.hpp: bytes accumulate until one request frames, the
//     request dispatches, the serialized response is queued and
//     flushed with vectored writes; EAGAIN registers write interest
//     (backpressure) instead of blocking a thread. One request is in
//     flight per connection at a time — pipelined successors wait in
//     the buffer, which keeps responses trivially ordered and memory
//     O(parse limits) per connection;
//   * handlers run on a *bounded* worker pool (`workers`), never on a
//     loop thread, so a slow session (`/v1/sessions:run` can take
//     seconds) cannot stall readiness for the other N thousand
//     connections. While a connection waits on its handler its read
//     interest is dropped: a flooding client backs up into its own
//     kernel socket buffer, not into server memory;
//   * overload sheds load instead of queueing unboundedly:
//     `admission_capacity` bounds dispatched-but-unfinished requests
//     with 503 + Retry-After (cheap: no handler dispatch, and the
//     connection stays alive — the request was well-formed), and over
//     `max_connections` the accept path answers 503 + Retry-After and
//     closes cleanly (shutdown then close, never an abandoned
//     half-open socket);
//   * strictness maps onto wire errors, never exceptions: malformed
//     input -> 400 + close, oversize header block -> 431 + close,
//     oversize body -> 413 + close, handler throw -> 500 (connection
//     survives: the request was well-formed);
//   * stop(): closes every connection from its owning loop, drains the
//     handler pool, joins the loops. Idempotent; the destructor calls
//     it.
//
// Thread-safety: start/stop/port/stats are safe from any thread; the
// handler runs concurrently on pool workers and must be thread-safe
// itself (api::ApiServer is). Connection state is single-threaded by
// ownership: only its loop thread touches it; handler completions are
// posted back to that loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/conn_state.hpp"
#include "net/event_loop.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"

namespace bat::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral, read back via port()
  /// Readiness loop threads. Connections distribute round-robin; a
  /// couple of loops saturate loopback — this is not the handler pool.
  std::size_t event_loops = 2;
  /// Handler workers (bounded). Handlers, not connections, occupy
  /// them: thousands of idle keep-alive connections cost no worker.
  std::size_t workers = 8;
  /// Accepted-but-not-closed cap; beyond it new connections get
  /// 503 + Retry-After and a clean close.
  std::size_t max_connections = 1024;
  /// Dispatched-but-unfinished request cap (the bounded admission
  /// queue); at capacity well-formed requests get 503 + Retry-After
  /// without dispatching. 0 = default (4096).
  std::size_t admission_capacity = 0;
  /// Retry-After hint (seconds) on 503 sheds and connection-cap 503s.
  double retry_after_seconds = 1.0;
  /// Use the poll(2) backend even where epoll is available.
  bool force_poll = false;
  ParseLimits limits;
  /// Registry hosting the bat_http_* series; null makes a private one
  /// (per-instance getters keep working either way).
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

class HttpServer {
 public:
  /// Handler: request in, response out. Runs on pool workers; throwing
  /// yields a 500 with the exception message in a JSON body.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(ServerOptions options, Handler handler);
  ~HttpServer();  // stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, spawns the event loops and handler pool. Throws
  /// std::runtime_error on bind/listen failure. Call once.
  void start();

  /// Closes every connection, drains handlers, joins the loops.
  /// Idempotent; safe to call without start().
  void stop();

  /// The bound port (resolves option port 0 to the ephemeral choice).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_.load(); }
  [[nodiscard]] bool running() const noexcept { return running_.load(); }

  // ------------------------------------------------------------ stats --
  // Telemetry counters live on the metrics registry (bat_http_*); the
  // getters read the same series /v1/metrics renders.
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_total_->value();
  }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return served_total_->value();
  }
  /// Requests answered 503 by the bounded admission queue.
  [[nodiscard]] std::uint64_t requests_shed() const noexcept {
    return shed_total_->value();
  }
  /// Connections answered 503 + close at the max_connections cap.
  [[nodiscard]] std::uint64_t connections_over_capacity() const noexcept {
    return over_capacity_total_->value();
  }
  [[nodiscard]] std::uint64_t connections_open() const noexcept {
    return open_connections_.load();
  }

 private:
  struct LoopShard {
    std::unique_ptr<EventLoop> loop;
    /// Owned by the loop's thread exclusively (id -> connection).
    std::unordered_map<std::uint64_t, std::unique_ptr<ConnState>> conns;
  };

  void on_accept();
  void pause_accept_for_fd_pressure();
  void adopt_connection(std::size_t shard, int fd);
  void on_conn_event(std::size_t shard, std::uint64_t id,
                     std::uint32_t events);
  /// Frames+dispatches buffered requests until busy/incomplete/error.
  void process_input(std::size_t shard, ConnState& conn);
  /// Handler-pool completion, posted back to the owning loop.
  void complete(std::size_t shard, std::uint64_t id, std::string bytes,
                bool keep_alive);
  /// Flushes output, re-computes interest, destroys when done-for.
  /// Returns false when the connection was destroyed.
  bool flush_and_update(std::size_t shard, ConnState& conn);
  void destroy(std::size_t shard, std::uint64_t id);
  [[nodiscard]] HttpResponse dispatch(const HttpRequest& request);
  /// 503 + Retry-After, serialized.
  [[nodiscard]] std::string overloaded_response(const std::string& message,
                                                bool keep_alive) const;

  ServerOptions options_;
  Handler handler_;

  int listen_fd_ = -1;
  std::atomic<std::uint16_t> port_{0};
  std::atomic<bool> running_{false};
  std::mutex lifecycle_mutex_;  // serializes start()/stop()
  bool started_ = false;        // guarded by lifecycle_mutex_

  std::vector<LoopShard> shards_;
  std::unique_ptr<common::ThreadPool> pool_;

  std::atomic<std::size_t> next_shard_{0};
  std::atomic<std::uint64_t> next_conn_id_{1};
  // Control state, NOT telemetry: max_connections and admission
  // enforcement read these, so they must survive BAT_OBS_OFF. The
  // open-connections gauge below exposes the same atomic at scrape.
  std::atomic<std::uint64_t> open_connections_{0};
  std::atomic<std::uint64_t> in_flight_{0};

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* accepted_total_;
  obs::Counter* served_total_;
  obs::Counter* shed_total_;
  obs::Counter* over_capacity_total_;
  obs::Histogram* request_duration_;
  // Declared last: unregisters before the atomics it reads die.
  obs::CallbackGuard open_connections_gauge_;
};

}  // namespace bat::net
