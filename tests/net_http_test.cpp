// net/: the HTTP/1.1 subset — pure parser/serializer properties, then
// the real server + client over loopback sockets (keep-alive reuse,
// pipelining, error paths, concurrent clients, stop() semantics).
// tools/ci.sh runs this binary under TSan (server worker pool) and
// ASan/UBSan (parser over hostile bytes).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "net/http_client.hpp"
#include "net/http_server.hpp"

namespace bat::net {
namespace {

// ------------------------------------------------------------ pure parse --

TEST(HttpParse, SimpleGet) {
  HttpRequest req;
  const std::string raw =
      "GET /v1/stats HTTP/1.1\r\nHost: localhost:8080\r\n\r\n";
  const auto result = parse_request(raw, req);
  ASSERT_EQ(result.status, ParseStatus::kOk);
  EXPECT_EQ(result.consumed, raw.size());
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/v1/stats");
  EXPECT_EQ(req.version_minor, 1);
  ASSERT_NE(req.header("host"), nullptr);  // name lower-cased
  EXPECT_EQ(*req.header("host"), "localhost:8080");
  EXPECT_TRUE(req.body.empty());
  EXPECT_TRUE(req.keep_alive());  // 1.1 default
}

TEST(HttpParse, PostWithBodyAndPipelinedSecondRequest) {
  HttpRequest req;
  const std::string first =
      "POST /v1/sessions HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
  const std::string raw = first + "GET / HTTP/1.1\r\n\r\n";
  const auto result = parse_request(raw, req);
  ASSERT_EQ(result.status, ParseStatus::kOk);
  EXPECT_EQ(result.consumed, first.size());  // second request untouched
  EXPECT_EQ(req.body, "abcd");

  HttpRequest second;
  const auto rest = parse_request(
      std::string_view(raw).substr(result.consumed), second);
  ASSERT_EQ(rest.status, ParseStatus::kOk);
  EXPECT_EQ(second.method, "GET");
}

TEST(HttpParse, IncompleteUntilTheLastBodyByte) {
  const std::string raw =
      "POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\n0123456789";
  HttpRequest req;
  for (std::size_t cut = 0; cut < raw.size(); ++cut) {
    EXPECT_EQ(parse_request(std::string_view(raw).substr(0, cut), req).status,
              ParseStatus::kIncomplete)
        << "cut=" << cut;
  }
  EXPECT_EQ(parse_request(raw, req).status, ParseStatus::kOk);
}

TEST(HttpParse, KeepAliveSemanticsPerVersion) {
  const auto parse_one = [](const std::string& raw) {
    HttpRequest req;
    EXPECT_EQ(parse_request(raw, req).status, ParseStatus::kOk);
    return req;
  };
  EXPECT_TRUE(parse_one("GET / HTTP/1.1\r\n\r\n").keep_alive());
  EXPECT_FALSE(
      parse_one("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
  EXPECT_FALSE(parse_one("GET / HTTP/1.0\r\n\r\n").keep_alive());
  EXPECT_TRUE(
      parse_one("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
          .keep_alive());
  EXPECT_FALSE(parse_one("GET / HTTP/1.1\r\nconnection: x, close\r\n\r\n")
                   .keep_alive());
}

TEST(HttpParse, MalformedRequestsAreBadNotIncomplete) {
  const char* cases[] = {
      "GET\r\n\r\n",                          // no target
      "GET /x\r\n\r\n",                       // no version
      "GET /x HTTP/2.0\r\n\r\n",              // unsupported version
      "GET /x HTTP/1.1 extra\r\n\r\n",        // junk after version
      "G@T /x HTTP/1.1\r\n\r\n",              // invalid method token
      "GET x HTTP/1.1\r\n\r\n",               // not origin-form
      "GET /x HTTP/1.1\r\nbad header\r\n\r\n",        // no colon
      "GET /x HTTP/1.1\r\nna me: v\r\n\r\n",          // space in name
      "GET /x HTTP/1.1\r\na: 1\r\n b\r\n\r\n",        // obs-fold
      "POST /x HTTP/1.1\r\ncontent-length: 2x\r\n\r\nab",   // bad length
      "POST /x HTTP/1.1\r\ncontent-length: 1\r\n"
      "content-length: 2\r\n\r\nab",                        // conflicting
      "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",  // chunked
  };
  for (const char* raw : cases) {
    HttpRequest req;
    EXPECT_EQ(parse_request(raw, req).status, ParseStatus::kBadRequest)
        << raw;
  }
}

TEST(HttpParse, OversizeMapsOntoDedicatedStatuses) {
  ParseLimits limits;
  limits.max_head_bytes = 64;
  limits.max_body_bytes = 8;
  HttpRequest req;
  // Head too large even before the blank line arrives.
  EXPECT_EQ(parse_request("GET /" + std::string(100, 'a'), req, limits)
                .status,
            ParseStatus::kHeadTooLarge);
  // Declared body over the cap: rejected without waiting for the bytes.
  EXPECT_EQ(parse_request("POST /x HTTP/1.1\r\ncontent-length: 9\r\n\r\n",
                          req, limits)
                .status,
            ParseStatus::kBodyTooLarge);
  ParseLimits few_headers;
  few_headers.max_headers = 2;
  EXPECT_EQ(parse_request(
                "GET /x HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n", req,
                few_headers)
                .status,
            ParseStatus::kBadRequest);
}

TEST(HttpParse, ResponseRoundTrip) {
  HttpResponse out;
  out.status = 404;
  out.headers.emplace_back("content-type", "application/json");
  out.body = "{\"error\":\"nope\"}";
  const std::string wire = serialize_response(out, /*keep_alive=*/true);

  HttpResponse parsed;
  const auto result = parse_response(wire, parsed);
  ASSERT_EQ(result.status, ParseStatus::kOk);
  EXPECT_EQ(result.consumed, wire.size());
  EXPECT_EQ(parsed.status, 404);
  EXPECT_EQ(parsed.body, out.body);
  ASSERT_NE(parsed.header("connection"), nullptr);
  EXPECT_EQ(*parsed.header("connection"), "keep-alive");
}

TEST(HttpParse, ResponseWithoutContentLengthIsRejected) {
  HttpResponse parsed;
  EXPECT_EQ(parse_response("HTTP/1.1 200 OK\r\n\r\n", parsed).status,
            ParseStatus::kBadRequest);
  EXPECT_EQ(parse_response("HTTP/1.1 20 OK\r\ncontent-length: 0\r\n\r\n",
                           parsed)
                .status,
            ParseStatus::kBadRequest);
}

TEST(HttpParse, RequestSerializerRoundTrips) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/v1/sessions:run";
  req.headers.emplace_back("content-type", "application/json");
  req.body = "{}";
  HttpRequest parsed;
  const auto result =
      parse_request(serialize_request(req, /*keep_alive=*/true), parsed);
  ASSERT_EQ(result.status, ParseStatus::kOk);
  EXPECT_EQ(parsed.method, "POST");
  EXPECT_EQ(parsed.target, "/v1/sessions:run");
  EXPECT_EQ(parsed.body, "{}");
  EXPECT_TRUE(parsed.keep_alive());
}

// ------------------------------------------------------- server + client --

/// Echo service: GET returns the target, POST mirrors the body;
/// "/missing" exercises the handler-driven 404 path.
HttpResponse echo_handler(const HttpRequest& request) {
  HttpResponse response;
  response.headers.emplace_back("content-type", "text/plain");
  if (request.target == "/missing") {
    response.status = 404;
    response.body = "not found";
  } else if (request.method == "POST") {
    response.body = request.body;
  } else {
    response.body = request.target;
  }
  return response;
}

ServerOptions loopback_options(std::size_t workers = 4) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.workers = workers;
  return options;
}

TEST(HttpServer, RoundTripsAndHandlerStatusPassThrough) {
  HttpServer server(loopback_options(), echo_handler);
  server.start();
  HttpClient client("127.0.0.1", server.port());

  const auto got = client.get("/hello");
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(got.body, "/hello");

  const auto posted = client.post("/echo", "payload", "text/plain");
  EXPECT_EQ(posted.status, 200);
  EXPECT_EQ(posted.body, "payload");

  EXPECT_EQ(client.get("/missing").status, 404);
  server.stop();
}

TEST(HttpServer, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer server(loopback_options(), echo_handler);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(client.get("/r" + std::to_string(i)).body,
              "/r" + std::to_string(i));
  }
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.requests_served(), 50u);
  server.stop();
}

/// Raw socket helper for malformed-bytes tests (HttpClient refuses to
/// send garbage on purpose).
std::string raw_exchange(std::uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  std::string out;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // server closes after error responses
    out.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(HttpServer, MalformedBytesGet400AndClose) {
  HttpServer server(loopback_options(), echo_handler);
  server.start();
  const std::string reply =
      raw_exchange(server.port(), "NOT-HTTP\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 400 Bad Request"), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("connection: close"), std::string::npos);
  server.stop();
}

TEST(HttpServer, OversizeBodyGets413) {
  ServerOptions options = loopback_options();
  options.limits.max_body_bytes = 16;
  HttpServer server(options, echo_handler);
  server.start();
  const std::string reply = raw_exchange(
      server.port(),
      "POST /x HTTP/1.1\r\ncontent-length: 64\r\n\r\n" +
          std::string(64, 'b'));
  EXPECT_NE(reply.find("HTTP/1.1 413"), std::string::npos) << reply;
  server.stop();
}

TEST(HttpServer, OversizeHeaderBlockGets431) {
  ServerOptions options = loopback_options();
  options.limits.max_head_bytes = 128;
  HttpServer server(options, echo_handler);
  server.start();
  const std::string reply = raw_exchange(
      server.port(), "GET /x HTTP/1.1\r\nbig: " + std::string(512, 'h') +
                         "\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 431"), std::string::npos) << reply;
  server.stop();
}

TEST(HttpServer, ThrowingHandlerBecomes500AndConnectionSurvives) {
  HttpServer server(loopback_options(),
                    [](const HttpRequest& request) -> HttpResponse {
                      if (request.target == "/boom") {
                        throw std::runtime_error("kaboom");
                      }
                      return echo_handler(request);
                    });
  server.start();
  HttpClient client("127.0.0.1", server.port());
  const auto boom = client.get("/boom");
  EXPECT_EQ(boom.status, 500);
  EXPECT_NE(boom.body.find("kaboom"), std::string::npos);
  // The request was well-formed, so keep-alive persists.
  EXPECT_EQ(client.get("/after").body, "/after");
  EXPECT_EQ(server.connections_accepted(), 1u);
  server.stop();
}

TEST(HttpServer, ConcurrentKeepAliveClients) {
  constexpr std::size_t kClients = 4;
  constexpr int kRequests = 50;
  HttpServer server(loopback_options(kClients), echo_handler);
  server.start();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kRequests; ++i) {
        const std::string target =
            "/c" + std::to_string(c) + "-" + std::to_string(i);
        const auto response = client.get(target);
        if (response.status != 200 || response.body != target) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kClients * kRequests));
  server.stop();
}

TEST(HttpServer, StopUnblocksParkedKeepAliveConnections) {
  HttpServer server(loopback_options(2), echo_handler);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/x").status, 200);
  // The connection is now idle, its worker parked in recv. stop() must
  // come back anyway (shutdown() on the fd unblocks the worker) —
  // a deadline guards against regression hanging the whole suite.
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server.stop();
    stopped.store(true);
  });
  for (int i = 0; i < 500 && !stopped.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(stopped.load());
  stopper.join();
}

// --------------------------------- event-driven core + overload safety --

/// Raw keep-alive socket for pipelining / slow-loris / clean-close
/// assertions the cooked HttpClient cannot express.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    timeval timeout{5, 0};  // deadline so a regression fails, not hangs
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void send_all(const std::string& bytes) {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// send() that tolerates the server having closed on us (slow-loris
  /// cut-off tests); returns false once the connection is dead.
  bool try_send(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Appends any already-arrived bytes to the parse buffer without
  /// blocking; true when the buffer holds data.
  bool poll_data() {
    char chunk[4096];
    ssize_t got;
    while ((got = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT)) > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
    return !buffer_.empty();
  }

  /// Reads until `n` complete responses parse out of the stream.
  std::vector<HttpResponse> read_responses(std::size_t n) {
    std::vector<HttpResponse> responses;
    char chunk[4096];
    while (true) {
      while (responses.size() < n) {
        HttpResponse response;
        ParseLimits limits;
        limits.max_body_bytes = 64 * 1024 * 1024;  // tests read big bodies
        const auto result = parse_response(buffer_, response, limits);
        if (result.status != ParseStatus::kOk) break;
        buffer_.erase(0, result.consumed);
        responses.push_back(std::move(response));
      }
      if (responses.size() == n) break;
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got <= 0) break;  // EOF or timeout: return what framed
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
    return responses;
  }

  /// Final recv() result: 0 = clean FIN, <0 = error/reset.
  ssize_t read_eof() {
    char chunk[256];
    ssize_t got;
    while ((got = ::recv(fd_, chunk, sizeof chunk, 0)) > 0) {
    }
    return got;
  }

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received but not yet parsed
};

TEST(HttpServer, PipelinedRequestsInOneSegmentAnswerInOrder) {
  HttpServer server(loopback_options(), echo_handler);
  server.start();
  RawConn conn(server.port());
  // All three requests land in a single readiness event; responses must
  // come back complete and in request order.
  conn.send_all(
      "GET /p0 HTTP/1.1\r\n\r\n"
      "GET /p1 HTTP/1.1\r\n\r\n"
      "GET /p2 HTTP/1.1\r\n\r\n");
  const auto responses = conn.read_responses(3);
  ASSERT_EQ(responses.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(responses[i].status, 200);
    EXPECT_EQ(responses[i].body, "/p" + std::to_string(i));
  }
  EXPECT_EQ(server.requests_served(), 3u);
  EXPECT_EQ(server.connections_accepted(), 1u);
  server.stop();
}

TEST(HttpClient, PipelinedSendThenReadPreservesOrder) {
  HttpServer server(loopback_options(), echo_handler);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 8; ++i) {
    client.send_request("GET", "/q" + std::to_string(i), "", "");
  }
  for (int i = 0; i < 8; ++i) {
    const auto response = client.read_response();
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "/q" + std::to_string(i));
  }
  server.stop();
}

TEST(HttpClient, ParsesHostPortStrictly) {
  const auto a = parse_host_port("127.0.0.1:8080");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 8080);

  EXPECT_THROW((void)parse_host_port("127.0.0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("host:"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("host:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("host:70000"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("host:12ab"), std::invalid_argument);
  EXPECT_THROW((void)parse_host_port(":8080"), std::invalid_argument);
  // The host must be an IPv4 literal: a comma list splits at its last
  // colon into a host the client could never connect to.
  EXPECT_THROW((void)parse_host_port("127.0.0.1:1,127.0.0.1:2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_host_port("localhost:8080"),
               std::invalid_argument);
}

TEST(HttpClient, ConnectRefusedThrowsNamingTheEndpoint) {
  // A bound but never listening socket holds the port, so nothing else
  // can take it and a connect to it is refused.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  const std::string endpoint = "127.0.0.1:" + std::to_string(port);

  HttpClient client("127.0.0.1", port);
  try {
    (void)client.get("/v1/stats");
    ADD_FAILURE() << "get() to a refusing endpoint returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(endpoint), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(client.connected());
  ::close(fd);
}

TEST(HttpServer, SlowLorisByteAtATimeRequestStillFrames) {
  HttpServer server(loopback_options(), echo_handler);
  server.start();
  RawConn conn(server.port());
  // Dripping one byte per write exercises incremental parsing across
  // many readiness events; the server must neither answer early nor
  // buffer-split the request incorrectly.
  const std::string request = "GET /drip HTTP/1.1\r\nhost: x\r\n\r\n";
  for (char byte : request) {
    conn.send_all(std::string(1, byte));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto responses = conn.read_responses(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "/drip");
  server.stop();
}

TEST(HttpServer, SlowLorisHeaderFloodIsCutOffAt431) {
  ServerOptions options = loopback_options();
  options.limits.max_head_bytes = 256;
  HttpServer server(options, echo_handler);
  server.start();
  RawConn conn(server.port());
  // A drip that never finishes its header block: the server must bound
  // memory and answer 431 + close as soon as the cap is crossed, not
  // wait forever for the blank line. Stop dripping the moment the
  // verdict arrives (sending into the closed socket would RST away the
  // buffered response).
  for (int i = 0; i < 64; ++i) {
    if (!conn.try_send("x-flood-" + std::to_string(i) + ": junk\r\n")) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (conn.poll_data()) break;
  }
  const auto responses = conn.read_responses(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 431);
  EXPECT_EQ(conn.read_eof(), 0);  // clean close, not an abandoned socket
  server.stop();
}

TEST(HttpServer, BackpressuredClientEventuallyGetsTheWholeBody) {
  const std::string big_body(2 * 1024 * 1024, 'z');
  HttpServer server(loopback_options(),
                    [&](const HttpRequest&) {
                      HttpResponse response;
                      response.body = big_body;
                      return response;
                    });
  server.start();
  RawConn slow(server.port());
  slow.send_all("GET /big HTTP/1.1\r\n\r\n");
  // Don't read yet: the 2 MiB response cannot fit the socket buffers,
  // so the server parks it behind write-readiness. Meanwhile other
  // connections must be completely unaffected (the loop never blocks).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    HttpClient other("127.0.0.1", server.port());
    EXPECT_EQ(other.get("/tiny").status, 200);
  }
  const auto responses = slow.read_responses(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body.size(), big_body.size());
  server.stop();
}

TEST(HttpServer, PollFallbackServesKeepAliveAndPipelining) {
  ServerOptions options = loopback_options();
  options.force_poll = true;  // exercise the portable backend on Linux
  options.event_loops = 1;
  HttpServer server(options, echo_handler);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client.get("/poll" + std::to_string(i)).body,
              "/poll" + std::to_string(i));
  }
  RawConn conn(server.port());
  conn.send_all("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  const auto responses = conn.read_responses(2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "/a");
  EXPECT_EQ(responses[1].body, "/b");
  server.stop();
}

TEST(HttpServer, ConnectionCap503HasRetryAfterAndClosesCleanly) {
  ServerOptions options = loopback_options();
  options.max_connections = 1;
  options.retry_after_seconds = 2.0;
  HttpServer server(options, echo_handler);
  server.start();

  HttpClient first("127.0.0.1", server.port());
  EXPECT_EQ(first.get("/occupy").status, 200);  // holds the only slot

  RawConn second(server.port());
  const auto responses = second.read_responses(1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 503);
  ASSERT_NE(responses[0].header("retry-after"), nullptr);
  EXPECT_EQ(*responses[0].header("retry-after"), "2");
  // Clean shutdown-then-close: the client reads FIN, never a reset.
  EXPECT_EQ(second.read_eof(), 0);
  EXPECT_GE(server.connections_over_capacity(), 1u);

  // The occupant's keep-alive connection survived the episode.
  EXPECT_EQ(first.get("/still-here").status, 200);
  server.stop();
}

TEST(HttpServer, AdmissionQueueSheds503WithRetryAfterWhileSaturated) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> entered{0};
  ServerOptions options = loopback_options(/*workers=*/2);
  options.admission_capacity = 1;
  options.retry_after_seconds = 3.0;
  HttpServer server(options,
                    [&](const HttpRequest& request) {
                      if (request.target == "/block") {
                        entered.fetch_add(1);
                        gate.wait();
                      }
                      return echo_handler(request);
                    });
  server.start();

  RawConn blocker(server.port());
  blocker.send_all("GET /block HTTP/1.1\r\n\r\n");
  for (int i = 0; i < 500 && entered.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(entered.load(), 1);  // the only admission slot is occupied

  // A second, well-formed request is shed without dispatching — and the
  // connection stays alive (shed is not an error close).
  HttpClient client("127.0.0.1", server.port());
  const auto shed = client.get("/shed-me");
  EXPECT_EQ(shed.status, 503);
  ASSERT_NE(shed.header("retry-after"), nullptr);
  EXPECT_EQ(*shed.header("retry-after"), "3");
  EXPECT_GE(server.requests_shed(), 1u);

  release.set_value();
  const auto unblocked = blocker.read_responses(1);
  ASSERT_EQ(unblocked.size(), 1u);
  EXPECT_EQ(unblocked[0].status, 200);
  // Capacity freed: the shed client's next request dispatches normally.
  EXPECT_EQ(client.get("/now-fits").status, 200);
  server.stop();
}

TEST(HttpServer, EphemeralPortsAreIndependent) {
  HttpServer a(loopback_options(1), echo_handler);
  HttpServer b(loopback_options(1), echo_handler);
  a.start();
  b.start();
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
  HttpClient client_a("127.0.0.1", a.port());
  HttpClient client_b("127.0.0.1", b.port());
  EXPECT_EQ(client_a.get("/a").body, "/a");
  EXPECT_EQ(client_b.get("/b").body, "/b");
}

}  // namespace
}  // namespace bat::net
