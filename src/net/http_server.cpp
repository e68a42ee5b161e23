#include "net/http_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "obs/trace.hpp"

namespace bat::net {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("http server: " + what + ": " +
                           std::strerror(errno));
}

void set_nodelay(int fd) {
  // Request/response over loopback without TCP_NODELAY hits the
  // Nagle + delayed-ACK interaction: ~40ms per round trip.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

HttpResponse error_response(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.headers.emplace_back("content-type", "application/json");
  common::JsonObject body;
  body.emplace("error", message);
  response.body = common::Json(std::move(body)).dump();
  return response;
}

std::string retry_after_value(double seconds) {
  // Retry-After carries integral delay-seconds; a sub-second hint
  // rounds up to 1 so it never invites an instant retry.
  double s = std::ceil(seconds);
  if (s < 1.0) s = 1.0;
  if (s > 86400.0) s = 86400.0;  // a day: effectively "go away"
  return std::to_string(static_cast<long long>(s));
}

}  // namespace

HttpServer::HttpServer(ServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  if (!handler_) {
    throw std::invalid_argument("http server: handler must be callable");
  }
  if (options_.workers == 0) options_.workers = 1;
  if (options_.event_loops == 0) options_.event_loops = 1;
  if (options_.max_connections == 0) options_.max_connections = 1;
  if (options_.admission_capacity == 0) options_.admission_capacity = 4096;
  if (options_.retry_after_seconds <= 0.0) options_.retry_after_seconds = 1.0;
  metrics_ = options_.metrics ? options_.metrics
                              : std::make_shared<obs::MetricsRegistry>();
  accepted_total_ = metrics_->counter("bat_http_connections_accepted_total",
                                      "Connections accepted");
  served_total_ =
      metrics_->counter("bat_http_requests_total", "Requests served");
  shed_total_ =
      metrics_->counter("bat_http_requests_shed_total",
                        "Requests answered 503 by the admission queue");
  over_capacity_total_ =
      metrics_->counter("bat_http_connections_over_capacity_total",
                        "Connections refused at the max_connections cap");
  // 100us..~6.5s log-scale: spans sub-ms status probes and multi-second
  // synchronous tuning runs.
  request_duration_ = metrics_->histogram(
      "bat_http_request_duration_seconds",
      "Handler wall time per dispatched request",
      obs::Histogram::exponential(1e-4, 2.0, 16));
  open_connections_gauge_ = metrics_->callback(
      "bat_http_connections_open", "Connections currently open",
      obs::MetricsRegistry::CallbackKind::kGauge, {},
      [this] { return static_cast<double>(open_connections_.load()); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (started_) {
    throw std::runtime_error("http server: start() called twice");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");

  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("http server: invalid IPv4 host '" +
                             options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    sys_fail("bind " + options_.host + ":" + std::to_string(options_.port));
  }
  // SOMAXCONN, not a small fixed backlog: a thousand keep-alive clients
  // connecting at once is a supported workload now, and the accept
  // callback drains in batches rather than one accept per wakeup.
  if (::listen(listen_fd_, SOMAXCONN) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    sys_fail("listen");
  }
  if (!set_nonblocking(listen_fd_)) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    sys_fail("fcntl O_NONBLOCK listen fd");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    sys_fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  shards_.reserve(options_.event_loops);
  for (std::size_t i = 0; i < options_.event_loops; ++i) {
    LoopShard shard;
    shard.loop = std::make_unique<EventLoop>(options_.force_poll);
    shards_.push_back(std::move(shard));
  }
  pool_ = std::make_unique<common::ThreadPool>(options_.workers);
  running_.store(true);
  // Pre-start registration is the one cross-thread add_fd the loop
  // allows; the listener lives on loop 0 for its whole life.
  shards_[0].loop->add_fd(listen_fd_, EventLoop::kRead,
                          [this](std::uint32_t) { on_accept(); });
  for (auto& shard : shards_) shard.loop->start();
  started_ = true;
}

void HttpServer::stop() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (!started_) return;
  running_.store(false);
  // Join the loops first: afterwards no thread touches connection
  // state, accepts sockets, or submits handler work, so the rest of
  // teardown is single-threaded. Each loop drains its queued tasks
  // (late adoptions/completions) on its own thread before exiting.
  for (auto& shard : shards_) shard.loop->stop();
  // Drain in-flight handlers. Their completion posts hit stopped loops
  // and are refused — the response is lost, which is what stopping a
  // server means; the connection itself is closed just below.
  pool_.reset();
  for (auto& shard : shards_) {
    open_connections_.fetch_sub(shard.conns.size());
    shard.conns.clear();  // ConnState destructors close the fds: parked
                          // keep-alive clients see EOF immediately
  }
  shards_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
}

void HttpServer::on_accept() {
  // Drain the backlog: level-triggered readiness would re-fire anyway,
  // but accepting in batches costs one wakeup instead of N.
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS) {
        pause_accept_for_fd_pressure();
        return;
      }
      return;  // listener is gone; stop() owns the teardown
    }
    if (!running_.load()) {
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    if (open_connections_.load() >= options_.max_connections) {
      // Clean refusal: tell the client when to come back, half-close
      // so the 503 is flushed ahead of the FIN, then release the fd.
      // Never adopted, so it cannot strand a keep-alive mid-pipeline.
      over_capacity_total_->add();
      const std::string bytes =
          overloaded_response("connection limit reached",
                              /*keep_alive=*/false);
      (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      (void)::shutdown(fd, SHUT_WR);
      ::close(fd);
      continue;
    }
    accepted_total_->add();
    open_connections_.fetch_add(1);
    const std::size_t shard =
        next_shard_.fetch_add(1) % shards_.size();
    if (shard == 0) {
      adopt_connection(0, fd);  // already on loop 0's thread
    } else {
      const bool posted = shards_[shard].loop->post(
          [this, shard, fd] { adopt_connection(shard, fd); });
      if (!posted) {  // that loop stopped mid-shutdown
        ::close(fd);
        open_connections_.fetch_sub(1);
      }
    }
  }
}

void HttpServer::pause_accept_for_fd_pressure() {
  // Out of descriptors. An undrainable level-triggered listener would
  // spin the loop at 100% CPU, so stop watching it and re-arm shortly
  // from a pool worker — connections closing meanwhile free fds, and
  // a deaf-but-alive server beats a busy-looping one.
  shards_[0].loop->set_interest(listen_fd_, 0);
  pool_->submit([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    (void)shards_[0].loop->post([this] {
      if (running_.load()) {
        shards_[0].loop->set_interest(listen_fd_, EventLoop::kRead);
      }
    });
  });
}

void HttpServer::adopt_connection(std::size_t shard, int fd) {
  auto& s = shards_[shard];
  const std::uint64_t id = next_conn_id_.fetch_add(1);
  auto conn = std::make_unique<ConnState>(fd, id);
  conn->set_interest_cache(EventLoop::kRead);
  s.conns.emplace(id, std::move(conn));
  s.loop->add_fd(fd, EventLoop::kRead,
                 [this, shard, id](std::uint32_t events) {
                   on_conn_event(shard, id, events);
                 });
}

void HttpServer::on_conn_event(std::size_t shard, std::uint64_t id,
                               std::uint32_t events) {
  auto& s = shards_[shard];
  const auto it = s.conns.find(id);
  if (it == s.conns.end()) return;
  ConnState& conn = *it->second;

  if (events & EventLoop::kError) {
    // ERR/HUP: the peer is gone in both directions; nothing queued can
    // be delivered and nothing more will arrive.
    destroy(shard, id);
    return;
  }
  if ((events & EventLoop::kRead) && !conn.busy() && !conn.peer_closed()) {
    switch (conn.read_some()) {
      case ConnState::IoStatus::kOk:
      case ConnState::IoStatus::kBlocked:  // spurious wakeup
        break;
      case ConnState::IoStatus::kClosed:
        // FIN. Serve complete pipelined requests already buffered
        // (a batch client may send N requests then half-close);
        // teardown happens once output drains.
        conn.set_peer_closed();
        break;
      case ConnState::IoStatus::kError:
      default:
        destroy(shard, id);
        return;
    }
    process_input(shard, conn);
    if (!flush_and_update(shard, conn)) return;
  }
  if (events & EventLoop::kWrite) {
    (void)flush_and_update(shard, conn);
  }
}

void HttpServer::process_input(std::size_t shard, ConnState& conn) {
  // Frame and answer requests until the buffer runs dry, a handler
  // takes over (one in flight per connection — response order under
  // pipelining falls out of this), or the connection is condemned.
  while (running_.load() && !conn.busy() && !conn.close_after_flush()) {
    HttpRequest request;
    const ParseResult parsed = conn.next_request(request, options_.limits);
    if (parsed.status == ParseStatus::kIncomplete) break;
    if (parsed.status != ParseStatus::kOk) {
      // Malformed or oversize: answer, then close — the framing of
      // anything that follows in the stream cannot be trusted.
      const int status =
          parsed.status == ParseStatus::kBodyTooLarge    ? 413
          : parsed.status == ParseStatus::kHeadTooLarge ? 431
                                                        : 400;
      conn.queue_output(serialize_response(
          error_response(status, parsed.error), /*keep_alive=*/false));
      conn.set_close_after_flush();
      break;
    }

    const bool keep = request.keep_alive() && running_.load();

    // Admission control. A shed is answered inline — no handler
    // dispatch, no pool occupancy — and the connection stays usable:
    // the request was well-formed, only ill-timed.
    if (in_flight_.load() >= options_.admission_capacity) {
      shed_total_->add();
      conn.queue_output(overloaded_response(
          "server overloaded, admission queue full", keep));
      if (!keep) conn.set_close_after_flush();
      continue;
    }

    in_flight_.fetch_add(1);
    conn.set_busy(true);
    const std::uint64_t id = conn.id();
    pool_->submit([this, shard, id, keep,
                   request = std::move(request)]() mutable {
#ifndef BAT_OBS_OFF
      // Every dispatched request gets its own trace: handlers (and the
      // layers they call into) record spans under it implicitly. The
      // span's own clock pair doubles as the duration observation.
      obs::TraceScope trace(obs::mint_trace_id());
      HttpResponse response;
      {
        obs::ScopedSpan span("http.request", request_duration_);
        if (span.active()) {
          span.set_detail(request.method + " " + request.target);
        }
        response = dispatch(request);
      }
#else
      HttpResponse response = dispatch(request);
#endif
      served_total_->add();
      const bool keep_final = keep && running_.load();
      std::string bytes = serialize_response(response, keep_final);
      // Decrement before posting: admission tracks handler occupancy,
      // and from here on this request holds no worker.
      in_flight_.fetch_sub(1);
      (void)shards_[shard].loop->post(
          [this, shard, id, keep_final,
           bytes = std::move(bytes)]() mutable {
            complete(shard, id, std::move(bytes), keep_final);
          });
    });
    break;  // busy now; the completion resumes any pipelined successor
  }
}

void HttpServer::complete(std::size_t shard, std::uint64_t id,
                          std::string bytes, bool keep_alive) {
  auto& s = shards_[shard];
  const auto it = s.conns.find(id);
  if (it == s.conns.end()) return;  // connection died while handler ran
  ConnState& conn = *it->second;
  conn.set_busy(false);
  conn.queue_output(std::move(bytes));
  if (!keep_alive) conn.set_close_after_flush();
  if (!conn.close_after_flush() && conn.has_buffered_input()) {
    process_input(shard, conn);  // pipelined successor already buffered
  }
  (void)flush_and_update(shard, conn);
}

bool HttpServer::flush_and_update(std::size_t shard, ConnState& conn) {
  const std::uint64_t id = conn.id();
  if (conn.has_pending_output()) {
    if (conn.flush() == ConnState::IoStatus::kError) {
      destroy(shard, id);
      return false;
    }
  }
  const bool drained = !conn.has_pending_output();
  if (drained && !conn.busy() &&
      (conn.close_after_flush() || conn.peer_closed())) {
    // Condemned and fully flushed (peer_closed with an idle buffer can
    // only hold an unfinishable fragment — no more bytes will arrive).
    destroy(shard, id);
    return false;
  }
  std::uint32_t want = 0;
  if (drained && !conn.busy() && !conn.close_after_flush() &&
      !conn.peer_closed()) {
    // Read only when idle: while a handler runs or output is pending,
    // a flooding client backs up into its own kernel socket buffer.
    want |= EventLoop::kRead;
  }
  if (!drained) want |= EventLoop::kWrite;
  if (want != conn.interest()) {
    shards_[shard].loop->set_interest(conn.fd(), want);
    conn.set_interest_cache(want);
  }
  return true;
}

void HttpServer::destroy(std::size_t shard, std::uint64_t id) {
  auto& s = shards_[shard];
  const auto it = s.conns.find(id);
  if (it == s.conns.end()) return;
  s.loop->remove_fd(it->second->fd());
  s.conns.erase(it);  // ConnState destructor closes the fd
  open_connections_.fetch_sub(1);
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) {
  try {
    return handler_(request);
  } catch (const std::exception& e) {
    return error_response(500, e.what());
  } catch (...) {
    return error_response(500, "unknown handler failure");
  }
}

std::string HttpServer::overloaded_response(const std::string& message,
                                            bool keep_alive) const {
  HttpResponse response = error_response(503, message);
  response.headers.emplace_back(
      "retry-after", retry_after_value(options_.retry_after_seconds));
  return serialize_response(response, keep_alive);
}

}  // namespace bat::net
