// HttpClient: minimal blocking keep-alive client for the tuning API.
//
// One client == one persistent connection to one host:port. Requests
// are synchronous: serialize, send, recv until net::parse_response
// frames one full message. The connection is opened lazily on the
// first request and reused; when the server (legitimately) closed a
// kept-alive connection between requests, the client transparently
// reconnects and retries once — the retry only happens when *zero*
// response bytes arrived, so a request is never replayed after the
// server may have acted on it mid-response.
//
// Scope: the test suite, the `tune remote` CLI and the loopback
// throughput bench. IPv4 literal hosts + DNS-free by design; throws
// std::runtime_error on connect/send/recv failure and malformed
// responses (a client, unlike a server, has a caller to throw to).
// Calls block without a timeout, as an interactive CLI wants.
//
// Thread-safety: none — one HttpClient per thread (it is one socket).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/http.hpp"

namespace bat::net {

/// A server address as `tune remote --server` names it.
struct HostPort {
  std::string host;  // IPv4 literal, e.g. "127.0.0.1"
  std::uint16_t port = 0;
};

/// Parses "host:port"; throws std::invalid_argument on malformed input
/// (a host that is not an IPv4 literal, missing colon, non-numeric,
/// zero or out-of-range port).
[[nodiscard]] HostPort parse_host_port(std::string_view text);

class HttpClient {
 public:
  /// `host` is an IPv4 literal ("127.0.0.1"). Does not connect yet.
  HttpClient(std::string host, std::uint16_t port, ParseLimits limits = {
                 .max_head_bytes = 16 * 1024,
                 .max_body_bytes = 64 * 1024 * 1024,
                 .max_headers = 100,
             });
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  [[nodiscard]] HttpResponse get(const std::string& target);
  [[nodiscard]] HttpResponse post(const std::string& target,
                                  std::string body,
                                  const std::string& content_type =
                                      "application/json");

  /// Pipelined mode (benches, concurrency tests): send without waiting,
  /// read later. HTTP/1.1 responses come back in request order, so N
  /// send_request() calls pair with N read_response() calls in order.
  /// No stale-connection retry here — pipelining callers own pacing.
  void send_request(const std::string& method, const std::string& target,
                    std::string body = {},
                    const std::string& content_type = {});
  /// Frames the next pipelined response; throws if the server closed
  /// mid-stream.
  [[nodiscard]] HttpResponse read_response();

  /// Closes the persistent connection (the next request reconnects).
  void disconnect() noexcept;
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

 private:
  [[nodiscard]] HttpResponse request(const std::string& method,
                                     const std::string& target,
                                     std::string body,
                                     const std::string& content_type);
  [[nodiscard]] std::string serialize(const std::string& method,
                                      const std::string& target,
                                      std::string body,
                                      const std::string& content_type) const;
  void connect();
  /// Sends the request and reads one response. Returns false when the
  /// reused connection turned out dead before any response byte (the
  /// caller reconnects and retries); throws on every other failure.
  [[nodiscard]] bool round_trip(const std::string& wire, HttpResponse& out);

  std::string host_;
  std::uint16_t port_;
  ParseLimits limits_;
  int fd_ = -1;
  std::string buffer_;  // bytes past the previous response (pipelining)
};

}  // namespace bat::net
