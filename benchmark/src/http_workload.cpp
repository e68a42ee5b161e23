// http: `tune serve` traffic against an in-process ApiServer on
// loopback sockets, server and service at `tune serve` defaults with no
// rate limit. Set-up submits 64 tracked sessions and waits for them.
// The request mix puts reads beside writes, so a wire-stack change that
// helps one and hurts the other shows:
//   70% GET /v1/sessions/<id> of those sessions (JSON-encodes a full
//       result on every read),
//   20% POST /v1/sessions:run of small generated specs (real tuning
//       work inline in the handler),
//   10% GET /v1/stats and /v1/metrics, alternating at random.
// Phases, all from three client threads on keep-alive connections:
//   capacity  closed loop (callers of `tune remote run` wait for each
//             reply), ten rounds of equal length, 50% of the run; it
//             gives capacity and the end-to-end request latency;
//   low/high  open loop at two fixed rates, 30% and 20% of the run;
//             each request is timed from its due time.
// The latency limit is p99 <= 2 ms. A rate meets it when its p99 does
// and the requests did not back up: with one request in flight per
// connection, a request whose predecessor on the connection is still
// running goes out late, so the open loop turns closed. The phase
// counts as backed up when its p99 lateness exceeds one inter-arrival
// interval per connection.
// The traced run also replays the start of the request sequence
// through ApiServer::handle without sockets, alternating untraced and
// traced replays, with spans per route.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "api/api_server.hpp"
#include "common/statistics.hpp"
#include "core/backend.hpp"
#include "kernels/all_kernels.hpp"
#include "net/http.hpp"
#include "net/http_client.hpp"
#include "service/session_json.hpp"
#include "service/tuning_service.hpp"
#include "tuners/tuner.hpp"
#include "workloads.hpp"

namespace batbench {

using bat::service::SessionSpec;

namespace {

constexpr std::size_t kTrackedSessions = 64;
constexpr std::size_t kRunSpecs = 32;
constexpr std::size_t kClients = 3;
// A closed-loop round moves with every stall of the host, so capacity
// is the median of many short rounds.
constexpr std::size_t kCapacityRounds = 10;
constexpr double kCapacityShare = 0.50;  // of --seconds, all rounds
constexpr double kLowShare = 0.30;       // of --seconds
constexpr double kHighShare = 0.20;      // of --seconds
/// wall_s is the time the closed loop takes for this many requests.
constexpr double kWallRequests = 10000.0;
// About 25% and 50% of the lowest closed-loop capacity measured on a
// 4-vCPU x86 VM (Intel Xeon, shared host): 12k req/s, 17-19k in quiet
// hours. Even at 50%, host stalls back the requests up in some runs.
constexpr double kLowRate = 3000.0;  // requests/s
constexpr double kHighRate = 6000.0;
constexpr double kLatencyLimitMs = 2.0;  // on p99
/// handle() replays alternate untraced and traced, ABBA, this many
/// requests each.
constexpr std::size_t kReplays = 8;
constexpr std::size_t kReplayRequests = 5000;

// Fixed budgets and a fixed kernel x tuner design keep the response
// sizes and the set-up work, and so the latency mix, the same from seed
// to seed; the seed picks devices and tuner seeds.
constexpr std::size_t kTrackedBudget = 200;
constexpr std::size_t kRunBudget = 32;

const std::vector<std::string> kKernels{"gemm",        "pnpoly",  "nbody",
                                        "convolution", "hotspot", "expdist"};
const std::vector<std::string> kSessionTuners{
    "random", "local", "annealing", "genetic", "ils", "pso", "de"};
const std::vector<std::string> kRunTuners{"random", "local", "annealing",
                                          "genetic"};

enum class Kind { kGetSession, kRunSession, kStats, kMetrics };

struct Request {
  Kind kind;
  std::size_t slot;  // tracked-session or run-spec index
};

/// Request i of the seed's sequence (every phase and the handle replay
/// walk the same infinite sequence).
Request request_at(std::uint64_t seed, std::size_t i) {
  const std::uint64_t h = mix_seed(seed, (1ULL << 40) + i);
  const std::uint64_t pick = h % 100;
  const std::size_t rest = static_cast<std::size_t>(h >> 8);
  if (pick < 70) return {Kind::kGetSession, rest % kTrackedSessions};
  if (pick < 90) return {Kind::kRunSession, rest % kRunSpecs};
  return {(rest & 1) != 0 ? Kind::kStats : Kind::kMetrics, 0};
}

/// Spec `i` of a list: kernel i mod 6, tuner (i / 6) mod |tuners|;
/// device and tuner seed from `h`.
SessionSpec make_spec(std::size_t i, std::uint64_t h,
                      const std::vector<std::string>& tuners,
                      std::size_t budget) {
  SessionSpec spec;
  spec.kernel = kKernels[i % kKernels.size()];
  spec.tuner = tuners[(i / kKernels.size()) % tuners.size()];
  spec.device = h % 4;
  spec.budget = budget;
  spec.seed = h >> 32;
  spec.backend = "live";
  return spec;
}

/// A running `tune serve` stack plus what its responses must contain.
struct Server {
  std::unique_ptr<bat::service::TuningService> service;
  std::unique_ptr<bat::api::ApiServer> api;
  std::vector<std::string> session_ids;
  std::vector<std::string> session_bodies;  // GET /v1/sessions/<id>
};

struct Inputs {
  std::vector<SessionSpec> tracked;
  std::vector<SessionSpec> runs;
  std::vector<std::string> run_bodies;  // spec JSON
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  for (std::size_t i = 0; i < kTrackedSessions; ++i) {
    in.tracked.push_back(
        make_spec(i, mix_seed(seed, i), kSessionTuners, kTrackedBudget));
  }
  for (std::size_t i = 0; i < kRunSpecs; ++i) {
    in.runs.push_back(make_spec(i, mix_seed(seed, kTrackedSessions + i),
                                kRunTuners, kRunBudget));
    in.run_bodies.push_back(bat::service::to_json(in.runs.back()).dump());
  }
  return in;
}

bat::net::HttpRequest make_request(std::string method, std::string target,
                                   std::string body = {}) {
  bat::net::HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

/// `tune serve` start plus the fixture: the tracked sessions are
/// submitted in-process and the expected bodies come straight from the
/// route handler, so set-up measures the server and the sessions, not
/// loopback round trips.
std::unique_ptr<Server> start_server(const Inputs& in) {
  auto server = std::make_unique<Server>();
  auto metrics = std::make_shared<bat::obs::MetricsRegistry>();
  bat::service::ServiceOptions service_options;
  service_options.metrics = metrics;
  server->service =
      std::make_unique<bat::service::TuningService>(service_options);
  bat::api::ApiOptions api_options;
  api_options.metrics = metrics;
  server->api =
      std::make_unique<bat::api::ApiServer>(*server->service, api_options);
  server->api->start();
  for (const auto& spec : in.tracked) {
    server->session_ids.push_back(
        std::to_string(server->service->submit_tracked(spec)));
  }
  server->service->wait_idle();
  for (const auto& id : server->session_ids) {
    server->session_bodies.push_back(
        server->api->handle(make_request("GET", "/v1/sessions/" + id)).body);
  }
  // The run specs once each, as a client warming the shared cache.
  for (const auto& body : in.run_bodies) {
    if (server->api->handle(make_request("POST", "/v1/sessions:run", body))
            .status != 200) {
      throw std::runtime_error("POST /v1/sessions:run failed in set-up");
    }
  }
  return server;
}

bat::service::SessionResult run_standalone(const SessionSpec& spec) {
  const auto bench = bat::kernels::make(spec.kernel);
  bat::core::LiveBackend backend(*bench, spec.device);
  const auto tuner = bat::tuners::make_tuner(spec.tuner);
  bat::service::SessionResult result;
  result.spec = spec;
  result.run = bat::tuners::run_tuner(*tuner, backend, spec.budget, spec.seed);
  result.status = bat::service::SessionStatus::kCompleted;
  return result;
}

/// What correct responses contain.
struct Expected {
  const Server* server = nullptr;
  const Inputs* inputs = nullptr;
  std::vector<std::string> run_traces;  // "trace" JSON per run spec
  std::atomic<std::uint64_t> status_5xx{0};
  std::atomic<std::uint64_t> status_429{0};
};

/// `"trace":<expected>` must appear verbatim in the body.
bool has_trace(const std::string& body, const std::string& trace) {
  const auto at = body.find("\"trace\":");
  return at != std::string::npos &&
         body.compare(at + 8, trace.size(), trace) == 0 &&
         body.find("\"status\":\"completed\"") != std::string::npos;
}

bool perform(bat::net::HttpClient& client, Expected& expected,
             const Request& request) {
  bat::net::HttpResponse response;
  bool body_ok = true;
  switch (request.kind) {
    case Kind::kGetSession:
      response = client.get("/v1/sessions/" +
                            expected.server->session_ids[request.slot]);
      body_ok = response.body == expected.server->session_bodies[request.slot];
      break;
    case Kind::kRunSession:
      response = client.post("/v1/sessions:run",
                             expected.inputs->run_bodies[request.slot]);
      body_ok = has_trace(response.body, expected.run_traces[request.slot]);
      break;
    case Kind::kStats:
      response = client.get("/v1/stats");
      break;
    case Kind::kMetrics:
      response = client.get("/v1/metrics");
      break;
  }
  if (response.status >= 500) expected.status_5xx.fetch_add(1);
  if (response.status == 429) expected.status_429.fetch_add(1);
  return response.status == 200 && body_ok;
}

struct Clients {
  explicit Clients(std::uint16_t port) {
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(
          std::make_unique<bat::net::HttpClient>("127.0.0.1", port));
    }
  }
  std::vector<std::unique_ptr<bat::net::HttpClient>> clients;
};

struct CapacityRound {
  std::size_t requests = 0;
  double seconds = 0.0;
  std::vector<double> latency_ms;  // of the requests that succeeded
  [[nodiscard]] double rps() const {
    return static_cast<double>(requests) / seconds;
  }
};

/// One closed-loop round of about `seconds`: kClients threads, each
/// sending its next request as soon as the previous reply arrived, and
/// none after the deadline. The round ends when the last reply is in.
CapacityRound capacity_round(Clients& clients, Expected& expected,
                             std::uint64_t seed, std::size_t first,
                             double seconds,
                             std::atomic<std::uint64_t>& failed) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<double>> latency_ms(kClients);
  const auto start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      while (now_ns() < deadline) {
        bool ok = false;
        const auto sent = now_ns();
        try {
          ok = perform(*clients.clients[c], expected,
                       request_at(seed, first + next.fetch_add(1)));
        } catch (const std::exception&) {
          ok = false;
        }
        if (ok) {
          latency_ms[c].push_back(seconds_since(sent) * 1e3);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  CapacityRound round{next.load(), seconds_since(start), {}};
  for (const auto& own : latency_ms) {
    round.latency_ms.insert(round.latency_ms.end(), own.begin(), own.end());
  }
  return round;
}

double percentile_or_zero(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : bat::common::quantile(values, p / 100.0);
}

/// One open-loop phase at a fixed rate.
struct OpenLoop {
  double rate = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::uint64_t failed = 0;

  [[nodiscard]] double p50_ms() const { return median_or_zero(latency_ms); }
  [[nodiscard]] double p95_ms() const {
    return percentile_or_zero(latency_ms, 95);
  }
  [[nodiscard]] double p99_ms() const {
    return percentile_or_zero(latency_ms, 99);
  }
  [[nodiscard]] double late_p99_ms() const {
    return percentile_or_zero(late_ms, 99);
  }
  /// One inter-arrival interval per connection: a request later than
  /// this waited for its predecessor's reply.
  [[nodiscard]] double late_limit_ms() const {
    return static_cast<double>(kClients) / rate * 1e3;
  }
  [[nodiscard]] bool backed_up() const {
    return late_p99_ms() > late_limit_ms();
  }
  /// A failed request misses any limit.
  [[nodiscard]] bool meets_limit() const {
    return failed == 0 && !backed_up() && p99_ms() <= kLatencyLimitMs;
  }
};

OpenLoop open_loop(Clients& clients, Expected& expected, std::uint64_t seed,
                   std::size_t first, double rate, double seconds) {
  const auto samples = run_open_loop(
      rate, seconds, kClients, [&](std::size_t c, std::size_t i) {
        return perform(*clients.clients[c], expected,
                       request_at(seed, first + i));
      });
  OpenLoop out;
  out.rate = rate;
  for (const auto& s : samples) {
    // A failed request counts as failed and stays out of the latency
    // sample.
    if (!s.ok) {
      ++out.failed;
      continue;
    }
    out.latency_ms.push_back(s.latency_s() * 1e3);
    out.late_ms.push_back(s.late_s() * 1e3);
  }
  std::fprintf(stderr,
               "rate %.0f/s: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms (limit "
               "%.1f ms), p99 lateness %.3f ms (backed up above %.3f ms): "
               "limit %s\n",
               rate, out.p50_ms(), out.p95_ms(), out.p99_ms(),
               kLatencyLimitMs, out.late_p99_ms(), out.late_limit_ms(),
               out.meets_limit() ? "met" : "MISSED");
  return out;
}

/// The request sequence through ApiServer::handle, no sockets. Spans,
/// when tracing is on: net.parse_request, one api.* per route, and
/// service.result_to_json for the session a GET reads.
double replay_handle(Server& server, const Expected& expected,
                     std::uint64_t seed) {
  const auto start = now_ns();
  Span root("bench.round");
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    const auto request = request_at(seed, i);
    bat::net::HttpRequest wire_request;
    const char* span_name = "";
    switch (request.kind) {
      case Kind::kGetSession:
        wire_request = make_request(
            "GET", "/v1/sessions/" + server.session_ids[request.slot]);
        span_name = "api.get_session";
        break;
      case Kind::kRunSession:
        wire_request = make_request("POST", "/v1/sessions:run",
                                    expected.inputs->run_bodies[request.slot]);
        span_name = "api.run_session";
        break;
      case Kind::kStats:
        wire_request = make_request("GET", "/v1/stats");
        span_name = "api.stats";
        break;
      case Kind::kMetrics:
        wire_request = make_request("GET", "/v1/metrics");
        span_name = "api.metrics";
        break;
    }
    const auto wire = bat::net::serialize_request(wire_request, true);
    bat::net::HttpRequest parsed;
    {
      Span span("net.parse_request");
      if (bat::net::parse_request(wire, parsed).status !=
          bat::net::ParseStatus::kOk) {
        throw std::runtime_error("replayed request failed to parse");
      }
    }
    {
      Span span(span_name);
      if (server.api->handle(parsed).status != 200) {
        throw std::runtime_error("replayed request answered non-200");
      }
    }
    if (request.kind == Kind::kGetSession) {
      const auto id = std::stoull(server.session_ids[request.slot]);
      const auto result = server.service->tracked(id)->future.get();
      Span span("service.result_to_json");
      const auto body = bat::service::to_json(result).dump();
      if (body.empty()) throw std::runtime_error("empty session JSON");
    }
  }
  return seconds_since(start);
}

/// Median duration (us) of every span with this name, or of every api.*
/// span when `name` is "api.".
double median_span_us(const std::vector<SpanRecord>& spans,
                      const std::string& name) {
  std::vector<double> us;
  for (const auto& s : spans) {
    const std::string span_name = s.name;
    if (span_name == name ||
        (name == "api." && span_name.rfind("api.", 0) == 0)) {
      us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return median_or_zero(us);
}

}  // namespace

RunResult run_http(const RunConfig& config) {
  RunResult result;
  const auto inputs = make_inputs(config.seed);
  std::unique_ptr<Server> server;
  const auto setup_seconds = measure_setup(
      [&] { server = start_server(inputs); }, [&] { server.reset(); });

  // Reference results computed in-process, untimed: the tracked
  // sessions (served to GETs) and the run specs (served to POSTs).
  Expected expected;
  expected.server = server.get();
  expected.inputs = &inputs;
  Digest served;
  Digest reference;
  for (std::size_t i = 0; i < kTrackedSessions; ++i) {
    const auto got = server->service->tracked(std::stoull(server->session_ids[i]))
                         ->future.get();
    add_session(served, bat::service::to_string(got.status), got.run.trace);
    const auto want = run_standalone(inputs.tracked[i]);
    add_session(reference, "completed", want.run.trace);
  }
  result.check(served.hex() == reference.hex(),
               "tracked-session digest " + served.hex() +
                   " equals the standalone composition's");
  result.observed.emplace("http_digest", served.hex());
  if (const auto* golden = seed_golden(config, "http_digest")) {
    result.check(golden->as_string() == served.hex(),
                 "http digest matches golden " + golden->as_string());
  }
  for (const auto& spec : inputs.runs) {
    expected.run_traces.push_back(
        bat::service::to_json(run_standalone(spec)).at("trace").dump());
  }

  Clients clients(server->api->port());
  std::atomic<std::uint64_t> capacity_failed{0};
  std::vector<double> capacity;
  std::vector<double> closed_p50;
  std::vector<double> closed_p99;
  std::size_t smallest_round = 0;
  std::size_t next = 0;  // position in the request sequence
  for (std::size_t r = 0; r < kCapacityRounds; ++r) {
    const auto round =
        capacity_round(clients, expected, config.seed, next,
                       kCapacityShare * config.seconds / kCapacityRounds,
                       capacity_failed);
    capacity.push_back(round.rps());
    closed_p50.push_back(percentile_or_zero(round.latency_ms, 50));
    closed_p99.push_back(percentile_or_zero(round.latency_ms, 99));
    smallest_round = r == 0 ? round.latency_ms.size()
                            : std::min(smallest_round, round.latency_ms.size());
    next += round.requests;
  }
  result.check(tail_percentile(smallest_round).value_or(0) >= 99.0,
               "every closed-loop round's p99 rests on at least " +
                   std::to_string(smallest_round) + " samples");
  const double capacity_rps = median_or_zero(capacity);
  std::fprintf(stderr,
               "closed loop: %.0f req/s, p50 %.3f ms, p99 %.3f ms (medians "
               "of %zu rounds)\n",
               capacity_rps, median_or_zero(closed_p50),
               median_or_zero(closed_p99), kCapacityRounds);
  const double low_phase = kLowShare * config.seconds;
  const auto low = open_loop(clients, expected, config.seed, next, kLowRate,
                             low_phase);
  next += static_cast<std::size_t>(kLowRate * low_phase);
  const double high_phase = kHighShare * config.seconds;
  const auto high = open_loop(clients, expected, config.seed, next, kHighRate,
                              high_phase);
  next += static_cast<std::size_t>(kHighRate * high_phase);
  result.attempted = next;
  result.failed = capacity_failed.load() + low.failed + high.failed;
  result.check(result.failed == 0, "every response 200 with the expected body");
  // The reporting rule: a percentile needs ten samples beyond it.
  for (const auto* phase_samples : {&low.latency_ms, &high.latency_ms}) {
    result.check(tail_percentile(phase_samples->size()).value_or(0) >= 99.0,
                 "open-loop p99 rests on " +
                     std::to_string(phase_samples->size()) + " samples");
  }

  if (!config.trace) {
    result.metric("setup_s", median_or_zero(setup_seconds), "s");
    result.metric("wall_s", kWallRequests / capacity_rps, "s");
    // Latency as a caller waiting for each reply sees it. In the open
    // loop a host stall delays every request due during it and the
    // backlog behind them, so there even p95 moved several-fold between
    // runs on a shared host; in the closed loop it delays only the three
    // requests in flight.
    result.metric("p50_ms", median_or_zero(closed_p50), "ms");
    result.metric("tail_ms", median_or_zero(closed_p99), "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    complete_metrics(result, kEndToEnd);
    return result;
  }

  std::vector<double> untraced_replays;
  std::vector<double> traced_replays;
  LayerRecorder traced;
  for (std::size_t r = 0; r < kReplays; ++r) {
    const bool on = r % 4 == 1 || r % 4 == 2;  // untraced, traced x2, untraced
    Tracer::set_enabled(on);
    const double seconds = replay_handle(*server, expected, config.seed);
    Tracer::set_enabled(false);
    (on ? traced_replays : untraced_replays).push_back(seconds);
    if (on) traced.take();
  }
  // Per-call medians from the first traced replay: thousands of calls.
  const auto& spans = traced.first_spans();
  result.metric("trace_overhead_ratio",
                median_or_zero(traced_replays) / median_or_zero(untraced_replays),
                "ratio");
  result.metric("trace.coverage", traced.median_of([](const NameMap& m) {
    const auto& root = m.at("bench.round");
    return 1.0 - root.self_s / root.total_s;
  }), "ratio");
  for (const char* name : {"api.get_session", "api.run_session", "api.stats",
                           "api.metrics", "service.result_to_json",
                           "net.parse_request"}) {
    result.metric(std::string(name) + "_us", median_span_us(spans, name),
                  "us");
  }
  result.metric("net.transport_us",
                low.p50_ms() * 1e3 - median_span_us(spans, "api."), "us");
  result.metric("http.capacity_rps", capacity_rps, "1/s");
  result.metric("http.p50_ms.low", low.p50_ms(), "ms");
  result.metric("http.p99_ms.low", low.p99_ms(), "ms");
  result.metric("http.p50_ms.high", high.p50_ms(), "ms");
  result.metric("http.p99_ms.high", high.p99_ms(), "ms");
  result.metric("http.late_ms.low", low.late_p99_ms(), "ms");
  result.metric("http.late_ms.high", high.late_p99_ms(), "ms");
  // The highest of the fixed rates that meets the latency limit.
  result.metric("http.limit_rps",
                high.meets_limit() ? kHighRate
                                   : (low.meets_limit() ? kLowRate : 0.0),
                "1/s");
  result.metric("http.status_5xx",
                static_cast<double>(expected.status_5xx.load()), "count");
  result.metric("http.status_429",
                static_cast<double>(expected.status_429.load()), "count");
  write_run_trace(config, LayerRecorder{}, traced);
  complete_metrics(result, kPerLayer);
  return result;
}

}  // namespace batbench
