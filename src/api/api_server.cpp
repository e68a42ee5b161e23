#include "api/api_server.hpp"

#include <charconv>
#include <chrono>
#include <optional>
#include <string_view>
#include <utility>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "kernels/all_kernels.hpp"
#include "obs/build_info.hpp"
#include "obs/trace.hpp"
#include "service/session_json.hpp"

namespace bat::api {

using common::Json;
using common::JsonArray;
using common::JsonObject;

namespace {

net::HttpResponse json_response(int status, std::string body) {
  net::HttpResponse response;
  response.status = status;
  response.headers.emplace_back("content-type", "application/json");
  response.body = std::move(body);
  return response;
}

net::HttpResponse json_response(int status, const Json& body) {
  return json_response(status, body.dump());
}

net::HttpResponse error_json(int status, std::string message) {
  JsonObject object;
  object.emplace("error", std::move(message));
  return json_response(status, Json(std::move(object)));
}

/// "123" -> 123; nullopt for anything that is not a pure decimal.
std::optional<std::uint64_t> parse_job_id(std::string_view text) {
  std::uint64_t id = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), id);
  if (text.empty() || ec != std::errc() ||
      ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return id;
}

/// One process registry: the transport's bat_http_* series land next
/// to everything else /v1/metrics renders.
net::ServerOptions with_registry(
    net::ServerOptions http, std::shared_ptr<obs::MetricsRegistry> metrics) {
  if (!http.metrics) http.metrics = std::move(metrics);
  return http;
}

}  // namespace

ApiServer::ApiServer(service::TuningService& service, ApiOptions options)
    : service_(service),
      metrics_(options.metrics ? std::move(options.metrics)
                               : std::make_shared<obs::MetricsRegistry>()),
      http_(with_registry(std::move(options.http), metrics_),
            [this](const net::HttpRequest& request) {
              return handle(request);
            }) {
  using CallbackKind = obs::MetricsRegistry::CallbackKind;
  // bat_build_info: the Prometheus idiom for "which binary is this" —
  // constant 1, identity in the label.
  metric_guards_.push_back(metrics_->callback(
      "bat_build_info", "Build identity (value is always 1)",
      CallbackKind::kGauge, {{"build_id", obs::build_id()}},
      [] { return 1.0; }));
  metric_guards_.push_back(metrics_->callback(
      "bat_uptime_seconds", "Seconds since process start",
      CallbackKind::kGauge, {}, [] { return obs::uptime_seconds(); }));
  metric_guards_.push_back(metrics_->callback(
      "bat_trace_spans_recorded_total", "Spans recorded into the trace ring",
      CallbackKind::kCounter, {}, [] {
        return static_cast<double>(obs::trace_buffer().recorded());
      }));
  metric_guards_.push_back(metrics_->callback(
      "bat_trace_spans_dropped_total",
      "Spans overwritten by trace-ring wraparound", CallbackKind::kCounter,
      {}, [] {
        return static_cast<double>(obs::trace_buffer().dropped());
      }));
}

ApiServer::~ApiServer() { stop(); }

void ApiServer::start() { http_.start(); }

void ApiServer::stop() { http_.stop(); }

net::HttpResponse ApiServer::handle(const net::HttpRequest& request) {
  // The API takes no query parameters; tolerate (and ignore) them.
  std::string path = request.target.substr(0, request.target.find('?'));

  if (path == "/v1/sessions") {
    if (request.method == "POST") return post_session(request);
    if (request.method == "GET") return list_sessions();
    return error_json(405, "use GET or POST on /v1/sessions");
  }
  if (path == "/v1/sessions:run") {
    if (request.method != "POST") {
      return error_json(405, "use POST on /v1/sessions:run");
    }
    return run_session(request);
  }
  constexpr std::string_view kSessionPrefix = "/v1/sessions/";
  if (path.size() > kSessionPrefix.size() &&
      path.compare(0, kSessionPrefix.size(), kSessionPrefix) == 0) {
    if (request.method != "GET") {
      return error_json(405, "use GET on /v1/sessions/<id>");
    }
    std::string rest = path.substr(kSessionPrefix.size());
    constexpr std::string_view kTraceSuffix = "/trace";
    if (rest.size() > kTraceSuffix.size() &&
        rest.compare(rest.size() - kTraceSuffix.size(), kTraceSuffix.size(),
                     kTraceSuffix) == 0) {
      return get_trace(rest.substr(0, rest.size() - kTraceSuffix.size()));
    }
    return get_session(rest);
  }
  if (path == "/v1/stats") {
    if (request.method != "GET") {
      return error_json(405, "use GET on /v1/stats");
    }
    return get_stats();
  }
  if (path == "/v1/metrics") {
    if (request.method != "GET") {
      return error_json(405, "use GET on /v1/metrics");
    }
    return get_metrics();
  }
  if (path == "/v1/healthz") {
    if (request.method != "GET") {
      return error_json(405, "use GET on /v1/healthz");
    }
    return get_healthz();
  }
  if (path == "/v1/spaces") {
    if (request.method != "GET") {
      return error_json(405, "use GET on /v1/spaces");
    }
    return get_spaces();
  }
  return error_json(404, "no such endpoint: " + path);
}

net::HttpResponse ApiServer::post_session(const net::HttpRequest& request) {
  service::SessionSpec spec;
  try {
    spec = service::spec_from_json(Json::parse(request.body));
  } catch (const std::exception& e) {
    return error_json(400, e.what());
  }

  std::uint64_t id = 0;
  try {
    // May block while the service backlog is at capacity — that *is*
    // the backpressure: this HTTP worker (and therefore this client)
    // waits its turn. With a journal, the id is durable before
    // submit_tracked returns — the 202 below is a real promise.
    id = service_.submit_tracked(std::move(spec));
  } catch (const std::exception& e) {
    return error_json(503, e.what());
  }

  JsonObject object;
  object.emplace("id", std::to_string(id));
  object.emplace("state", "pending");
  object.emplace("href", "/v1/sessions/" + std::to_string(id));
  return json_response(202, Json(std::move(object)));
}

net::HttpResponse ApiServer::run_session(const net::HttpRequest& request) {
  service::SessionSpec spec;
  try {
    spec = service::spec_from_json(Json::parse(request.body));
  } catch (const std::exception& e) {
    return error_json(400, e.what());
  }
  try {
    return json_response(200, service::to_json(service_.run_inline(spec)));
  } catch (const std::exception& e) {
    return error_json(503, e.what());  // service shut down
  }
}

net::HttpResponse ApiServer::get_session(const std::string& id_text) const {
  const auto id = parse_job_id(id_text);
  if (!id) return error_json(400, "job id must be decimal digits");
  const auto job = service_.tracked(*id);
  if (!job) return error_json(404, "no such session: " + id_text);
  if (job->future.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    JsonObject object;
    object.emplace("id", id_text);
    object.emplace("state", "pending");
    object.emplace("spec", service::to_json(job->spec));
    return json_response(200, Json(std::move(object)));
  }
  // The service encoded the result once, when the session finished or
  // was restored. Splice those bytes into the object the DOM would
  // dump, keys in its order. id_text is decimal digits (parse_job_id),
  // so it needs no escaping.
  const auto& json = job->future.get().json;
  BAT_EXPECTS(json != nullptr);
  constexpr std::string_view kHead = R"({"id":")";
  constexpr std::string_view kResult = R"(","result":)";
  constexpr std::string_view kTail = R"(,"state":"done"})";
  std::string body;
  body.reserve(kHead.size() + id_text.size() + kResult.size() +
               json->size() + kTail.size());
  body += kHead;
  body += id_text;
  body += kResult;
  body += *json;
  body += kTail;
  return json_response(200, std::move(body));
}

net::HttpResponse ApiServer::get_trace(const std::string& id_text) const {
  const auto id = parse_job_id(id_text);
  if (!id) return error_json(400, "job id must be decimal digits");
  const auto job = service_.tracked(*id);
  if (!job) return error_json(404, "no such session: " + id_text);
  if (job->trace_id == 0) {
    // Sessions restored from the journal as already-completed never
    // ran in this process: there is no timeline to show.
    return error_json(404, "session " + id_text +
                               " has no trace in this process");
  }
  const auto spans = obs::trace_buffer().for_trace(job->trace_id);
  JsonArray span_json;
  // Timestamps are relative to the trace's first surviving span: what
  // a reader wants is offsets within the session, not process uptime.
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const auto& span : spans) {
    JsonObject entry;
    entry.emplace("name", span.name);
    if (!span.detail.empty()) entry.emplace("detail", span.detail);
    entry.emplace("start_us", (span.start_ns - t0) / 1000);
    entry.emplace("duration_us", (span.end_ns - span.start_ns) / 1000);
    span_json.emplace_back(std::move(entry));
  }
  JsonObject object;
  object.emplace("id", id_text);
  object.emplace("trace_id", job->trace_id);
  object.emplace("spans", Json(std::move(span_json)));
  return json_response(200, Json(std::move(object)));
}

net::HttpResponse ApiServer::get_metrics() const {
  net::HttpResponse response;
  response.status = 200;
  response.headers.emplace_back(
      "content-type", "text/plain; version=0.0.4; charset=utf-8");
  response.body = metrics_->render_prometheus();
  return response;
}

net::HttpResponse ApiServer::get_healthz() const {
  JsonObject object;
  object.emplace("status",
                 service_.accepting() ? "ready" : "draining");
  object.emplace("build_id", obs::build_id());
  object.emplace("uptime_seconds", obs::uptime_seconds());
  return json_response(200, Json(std::move(object)));
}

net::HttpResponse ApiServer::list_sessions() const {
  JsonArray sessions;
  for (const auto& [id, done] : service_.tracked_sessions()) {
    JsonObject entry;
    entry.emplace("id", std::to_string(id));
    entry.emplace("state", done ? "done" : "pending");
    sessions.emplace_back(std::move(entry));
  }
  JsonObject object;
  object.emplace("sessions", Json(std::move(sessions)));
  return json_response(200, Json(std::move(object)));
}

net::HttpResponse ApiServer::get_stats() const {
  const auto cache = service_.cache_stats();
  JsonObject cache_json;
  cache_json.emplace("lookups", cache.lookups);
  cache_json.emplace("hits", cache.hits);
  cache_json.emplace("waited", cache.waited);
  cache_json.emplace("evaluations", cache.evaluations);
  cache_json.emplace("abandoned", cache.abandoned);
  cache_json.emplace("cross_session_hits", cache.cross_session_hits());

  JsonObject http_json;
  http_json.emplace("connections_accepted", http_.connections_accepted());
  http_json.emplace("requests_served", http_.requests_served());
  http_json.emplace("connections_open", http_.connections_open());
  // Overload counters: how much load the server turned away (503
  // admission sheds, 503-and-close at the connection cap). Flat goodput
  // under a rising one of these is the overload behavior working as
  // designed.
  http_json.emplace("requests_shed", http_.requests_shed());
  http_json.emplace("connections_over_capacity",
                    http_.connections_over_capacity());

  // Journal counters (docs/durability.md). "enabled": false is the
  // whole section for a memory-only registry, so dashboards can alert
  // on a node accidentally started without its journal.
  const auto durability = service_.durability_stats();
  JsonObject durability_json;
  durability_json.emplace("enabled", durability.enabled);
  if (durability.enabled) {
    durability_json.emplace("journal_bytes", durability.file_bytes);
    durability_json.emplace("records_appended", durability.records_appended);
    durability_json.emplace("commits", durability.commits);
    durability_json.emplace("checkpoints", durability.checkpoints);
    durability_json.emplace("recovered_pending",
                            durability.recovered_pending);
    durability_json.emplace("restored_completed",
                            durability.restored_completed);
    durability_json.emplace("evicted_completed",
                            durability.evicted_completed);
    durability_json.emplace("replay_dropped_bytes",
                            durability.replay_dropped_bytes);
  }

  JsonObject object;
  object.emplace("workers", static_cast<std::uint64_t>(service_.workers()));
  object.emplace("sessions_submitted",
                 static_cast<std::uint64_t>(service_.sessions_submitted()));
  object.emplace("sessions_active",
                 static_cast<std::uint64_t>(service_.sessions_active()));
  object.emplace("cache", Json(std::move(cache_json)));
  object.emplace("durability", Json(std::move(durability_json)));
  object.emplace("http", Json(std::move(http_json)));
  return json_response(200, Json(std::move(object)));
}

net::HttpResponse ApiServer::get_spaces() {
  // Compile-once: the statistics are process-lifetime constants, and
  // recompiling seven spaces (constraint sweeps up to 2^20 configs)
  // per GET would hand a hostile poller free CPU burn.
  static const net::HttpResponse cached = [] {
    JsonArray spaces;
    for (const auto& name : kernels::paper_benchmark_names()) {
      const auto bench = kernels::make(name);
      const auto& compiled = bench->space().compiled();
      JsonObject entry;
      entry.emplace("kernel", name);
      entry.emplace("params",
                    static_cast<std::uint64_t>(compiled.num_params()));
      entry.emplace("cardinality", compiled.cardinality());
      if (compiled.has_valid_set()) {
        entry.emplace("valid", compiled.num_valid());
        entry.emplace("mode", "materialized");
      } else {
        entry.emplace("valid", nullptr);
        entry.emplace("mode", "streamed");
      }
      spaces.emplace_back(std::move(entry));
    }
    JsonObject object;
    object.emplace("spaces", Json(std::move(spaces)));
    return json_response(200, Json(std::move(object)));
  }();
  return cached;
}

}  // namespace bat::api
