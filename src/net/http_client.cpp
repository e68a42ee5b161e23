#include "net/http_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace bat::net {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("http client: " + what + ": " +
                           std::strerror(errno));
}

/// True when errno after a failed send/recv means the SO_RCVTIMEO /
/// SO_SNDTIMEO budget expired rather than a peer close or error.
bool is_io_timeout(int err) {
  return err == EAGAIN || err == EWOULDBLOCK;
}

}  // namespace

HostPort parse_host_port(std::string_view text) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    throw std::invalid_argument("address '" + std::string(text) +
                                "' is not host:port");
  }
  unsigned long port = 0;
  for (const char c : text.substr(colon + 1)) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("address '" + std::string(text) +
                                  "' has a non-numeric port");
    }
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) {
      throw std::invalid_argument("address '" + std::string(text) +
                                  "' port out of range");
    }
  }
  if (port == 0) {
    throw std::invalid_argument("address '" + std::string(text) +
                                "' needs a nonzero port");
  }
  return HostPort{std::string(text.substr(0, colon)),
                  static_cast<std::uint16_t>(port)};
}

HttpClient::HttpClient(std::string host, std::uint16_t port,
                       ParseLimits limits, ClientOptions options)
    : host_(std::move(host)), port_(port), limits_(limits),
      options_(options) {}

HttpClient::~HttpClient() { disconnect(); }

void HttpClient::disconnect() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

void HttpClient::connect() {
  disconnect();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) sys_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    disconnect();
    throw std::runtime_error("http client: invalid IPv4 host '" + host_ +
                             "'");
  }
  const std::string endpoint = host_ + ":" + std::to_string(port_);
  if (options_.connect_timeout_ms > 0) {
    // Nonblocking connect + poll: a peer that dropped off the network
    // (no RST, packets into the void) fails here after the timeout
    // instead of holding the caller for the kernel's SYN retry budget
    // (minutes).
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    (void)::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    const int rc =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc < 0 && errno != EINPROGRESS) {
      const int saved = errno;
      disconnect();
      errno = saved;
      sys_fail("connect " + endpoint);
    }
    if (rc < 0) {
      pollfd pfd{fd_, POLLOUT, 0};
      int ready = 0;
      do {
        ready = ::poll(&pfd, 1, options_.connect_timeout_ms);
      } while (ready < 0 && errno == EINTR);
      if (ready == 0) {
        disconnect();
        throw std::runtime_error("http client: connect " + endpoint +
                                 " timed out after " +
                                 std::to_string(options_.connect_timeout_ms) +
                                 "ms");
      }
      if (ready < 0) {
        const int saved = errno;
        disconnect();
        errno = saved;
        sys_fail("poll(connect " + endpoint + ")");
      }
      int soerr = 0;
      socklen_t len = sizeof soerr;
      if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0 ||
          soerr != 0) {
        disconnect();
        errno = soerr != 0 ? soerr : errno;
        sys_fail("connect " + endpoint);
      }
    }
    (void)::fcntl(fd_, F_SETFL, flags);  // back to blocking I/O
  } else if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) < 0) {
    const int saved = errno;
    disconnect();
    errno = saved;
    sys_fail("connect " + endpoint);
  }
  if (options_.io_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.io_timeout_ms / 1000;
    tv.tv_usec = (options_.io_timeout_ms % 1000) * 1000;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

HttpResponse HttpClient::get(const std::string& target) {
  return request("GET", target, {}, {});
}

HttpResponse HttpClient::post(const std::string& target, std::string body,
                              const std::string& content_type) {
  return request("POST", target, std::move(body), content_type);
}

std::string HttpClient::serialize(const std::string& method,
                                  const std::string& target,
                                  std::string body,
                                  const std::string& content_type) const {
  HttpRequest req;
  req.method = method;
  req.target = target;
  req.headers.emplace_back("host",
                           host_ + ":" + std::to_string(port_));
  if (!content_type.empty()) {
    req.headers.emplace_back("content-type", content_type);
  }
  req.body = std::move(body);
  return serialize_request(req, /*keep_alive=*/true);
}

void HttpClient::send_request(const std::string& method,
                              const std::string& target, std::string body,
                              const std::string& content_type) {
  const std::string wire =
      serialize(method, target, std::move(body), content_type);
  if (fd_ < 0) connect();
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && is_io_timeout(errno)) {
        throw std::runtime_error("http client: send timed out (pipelined)");
      }
      sys_fail("send (pipelined)");
    }
    sent += static_cast<std::size_t>(n);
  }
}

HttpResponse HttpClient::read_response() {
  if (fd_ < 0) {
    throw std::runtime_error("http client: read_response with no connection");
  }
  HttpResponse out;
  char chunk[16 * 1024];
  while (true) {
    const ParseResult parsed = parse_response(buffer_, out, limits_);
    if (parsed.status == ParseStatus::kOk) {
      buffer_.erase(0, parsed.consumed);
      if (const std::string* connection = out.header("connection")) {
        if (*connection == "close") disconnect();
      }
      return out;
    }
    if (parsed.status != ParseStatus::kIncomplete) {
      throw std::runtime_error("http client: bad response: " + parsed.error);
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && is_io_timeout(errno)) {
      disconnect();  // half-read response: the stream is unusable
      throw std::runtime_error("http client: recv timed out (pipelined)");
    }
    if (n <= 0) {
      throw std::runtime_error(
          "http client: connection closed mid-pipeline");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

HttpResponse HttpClient::request(const std::string& method,
                                 const std::string& target,
                                 std::string body,
                                 const std::string& content_type) {
  const std::string wire =
      serialize(method, target, std::move(body), content_type);

  if (fd_ < 0) connect();
  HttpResponse response;
  if (!round_trip(wire, response)) {
    // Stale keep-alive connection (server closed it between requests);
    // one retry on a fresh connection. round_trip only signals this
    // when zero response bytes arrived.
    connect();
    if (!round_trip(wire, response)) {
      throw std::runtime_error(
          "http client: connection closed before any response bytes");
    }
  }
  // The server may close after responding ("connection: close", error
  // paths): reflect that locally so the next request reconnects.
  if (const std::string* connection = response.header("connection")) {
    if (*connection == "close") disconnect();
  }
  return response;
}

bool HttpClient::round_trip(const std::string& wire, HttpResponse& out) {
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && is_io_timeout(errno)) {
        throw std::runtime_error("http client: send timed out");
      }
      if (sent == 0 && buffer_.empty()) return false;  // dead keep-alive
      sys_fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }

  char chunk[16 * 1024];
  const std::size_t had_bytes = buffer_.size();
  while (true) {
    const ParseResult parsed = parse_response(buffer_, out, limits_);
    if (parsed.status == ParseStatus::kOk) {
      buffer_.erase(0, parsed.consumed);
      return true;
    }
    if (parsed.status != ParseStatus::kIncomplete) {
      throw std::runtime_error("http client: bad response: " + parsed.error);
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && is_io_timeout(errno)) {
      // Never retried: the server may have received (and acted on) the
      // request; only the zero-byte-close path below is replay-safe.
      disconnect();  // half-read response: the stream is unusable
      throw std::runtime_error("http client: response timed out after " +
                               std::to_string(options_.io_timeout_ms) +
                               "ms");
    }
    if (n <= 0) {
      if (buffer_.size() == had_bytes && had_bytes == 0) {
        return false;  // closed with zero response bytes: retryable
      }
      throw std::runtime_error(
          "http client: connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace bat::net
