// ApiServer: the JSON API that turns a TuningService into a service.
//
// Routes (documented with transcripts in docs/http-api.md):
//
//   POST /v1/sessions        SessionSpec JSON -> 202 {"id",...}; the
//                            spec goes through TuningService::
//                            submit_tracked into the service's
//                            id-keyed registry (asynchronous path) —
//                            with `tune serve --journal-dir` the id is
//                            fsync-durable before the 202 leaves.
//   GET  /v1/sessions        registry listing: [{"id","state"},...]
//   GET  /v1/sessions/<id>   job status; when the future is ready the
//                            full SessionResult (trace included),
//                            served from the bytes the service encoded
//                            once when the session finished.
//   POST /v1/sessions:run    synchronous: run_inline on the handling
//                            connection's worker, full result back
//                            (untracked: no id, never journaled).
//   GET  /v1/stats           cache counters + session/HTTP counters,
//                            including overload sheds (admission
//                            503s, connection-cap refusals) and the
//                            journal's "durability" section.
//                            Every number is a registry series read at
//                            request time — /v1/metrics is the same
//                            data in Prometheus clothes.
//   GET  /v1/spaces          per-kernel search-space statistics.
//   GET  /v1/metrics         Prometheus text exposition (0.0.4) of the
//                            process registry (docs/observability.md).
//   GET  /v1/healthz         liveness: build id, uptime, ready |
//                            draining. Subject to admission like any
//                            request: a server with every worker
//                            wedged should fail its health check.
//   GET  /v1/sessions/<id>/trace
//                            span timeline of a tracked session.
//
// Error mapping: malformed JSON / bad spec -> 400, unknown path or job
// id -> 404, wrong method on a known path -> 405, submit after service
// shutdown -> 503; the transport adds 413/431 for oversize and 500 for
// handler escapes (net/http_server.hpp).
//
// The session registry lives in TuningService (not here) so that with
// a journal it survives restarts — results must outlive their session
// (and, journaled, the process) so a client can poll after completion.
// Bound: the journal's checkpoint retention evicts the oldest
// completed sessions, and the service's bounded backlog (submit blocks
// at queue_capacity, the transport sheds 503 once its admission queue
// fills behind it) caps the growth rate at the sessions' finish rate.
//
// Thread-safety: handle() runs concurrently on HTTP workers;
// TuningService is thread-safe, and handle() is public precisely so
// tests can drive routes without sockets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/http_server.hpp"
#include "obs/metrics.hpp"
#include "service/tuning_service.hpp"

namespace bat::api {

struct ApiOptions {
  net::ServerOptions http;
  /// The registry /v1/metrics renders. Null makes a private one — but
  /// then the exposition only carries the API server's own series;
  /// `tune serve` shares one registry across service, HTTP transport
  /// and here so the scrape sees the whole process.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

class ApiServer {
 public:
  /// Borrows the service; it must outlive the ApiServer and is shared
  /// with any in-process users (tune serve builds both).
  explicit ApiServer(service::TuningService& service, ApiOptions options = {});
  ~ApiServer();  // stop()

  ApiServer(const ApiServer&) = delete;
  ApiServer& operator=(const ApiServer&) = delete;

  void start();
  void stop();
  [[nodiscard]] std::uint16_t port() const noexcept { return http_.port(); }

  /// The route dispatcher (also the HttpServer handler). Public for
  /// socket-free tests and benchmarks.
  [[nodiscard]] net::HttpResponse handle(const net::HttpRequest& request);

  [[nodiscard]] const net::HttpServer& http() const noexcept { return http_; }

 private:
  [[nodiscard]] net::HttpResponse post_session(const net::HttpRequest& req);
  [[nodiscard]] net::HttpResponse run_session(const net::HttpRequest& req);
  [[nodiscard]] net::HttpResponse get_session(const std::string& id) const;
  [[nodiscard]] net::HttpResponse get_trace(const std::string& id) const;
  [[nodiscard]] net::HttpResponse list_sessions() const;
  [[nodiscard]] net::HttpResponse get_stats() const;
  [[nodiscard]] net::HttpResponse get_metrics() const;
  [[nodiscard]] net::HttpResponse get_healthz() const;
  [[nodiscard]] static net::HttpResponse get_spaces();

  service::TuningService& service_;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::vector<obs::CallbackGuard> metric_guards_;

  net::HttpServer http_;  // last member: its workers call handle()
};

}  // namespace bat::api
