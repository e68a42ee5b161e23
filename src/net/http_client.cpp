#include "net/http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
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
  std::string host(text.substr(0, colon));
  in_addr parsed{};
  if (::inet_pton(AF_INET, host.c_str(), &parsed) != 1) {
    throw std::invalid_argument("address '" + std::string(text) +
                                "' needs an IPv4 literal host");
  }
  return HostPort{std::move(host), static_cast<std::uint16_t>(port)};
}

HttpClient::HttpClient(std::string host, std::uint16_t port,
                       ParseLimits limits)
    : host_(std::move(host)), port_(port), limits_(limits) {}

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
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    disconnect();
    errno = saved;
    sys_fail("connect " + host_ + ":" + std::to_string(port_));
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
