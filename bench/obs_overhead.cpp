// obs_overhead: the instrumentation-cost benchmark behind
// BENCH_obs.json — proof that "observability is on by default" does
// not tax the hot paths.
//
// The same binary is built twice by tools/ci.sh: once normally
// (obs_enabled=true) and once with -DBAT_OBS_OFF=ON (obs_enabled=
// false, every metric mutation and span compiled out). Each run
// measures the identical scenarios. The CI gate runs the two builds in
// on/off process pairs, each pair pinned to one CPU, and requires the
// median per-pair on/off ratio <= 1.03x for the end-to-end paths:
//
//   counter-add         one registry counter add (micro; reference)
//   histogram-observe   one histogram observation (micro; reference)
//   inline-session      one TuningService::run_inline live session
//                       (pnpoly, local, budget 100) inside a trace
//                       scope: the instrumented evaluation path POST
//                       /v1/sessions:run takes — the coalesced
//                       backend.batch span of its one-config batches,
//                       session counters, the duration histogram
//                       (gated)
//   http-handle         GET /v1/healthz through the transport's
//                       per-request instrumentation wrapper — trace
//                       mint, http.request span, duration histogram —
//                       exactly what net::HttpServer's worker does
//                       around dispatch (micro; reference — the span
//                       plus two clock reads cost ~250ns, visible
//                       against a ~1us in-process dispatch but noise
//                       against a real request's socket round trip)
//   http-rps            the HTTP baseline: 4 concurrent keep-alive
//                       clients driving GET /v1/healthz against a
//                       live loopback server — request bytes, event
//                       loop, handler pool, response bytes. Gated:
//                       per-request metrics and spans run on handler
//                       workers with idle capacity, so steady-state
//                       throughput must not move (a single
//                       synchronous client would instead measure the
//                       span cost serialized into each round trip —
//                       that number is http-handle's job)
//
// All scenario timings are min-of-3 self-calibrating windows (>= 50ms
// of wall time each; http-rps uses min-of-5 x 200ms against socket
// noise): the minimum is the noise floor within one process. Which
// CPU a process lands on moves it by more than that, hence the pinned
// pairs.
//
//   obs_overhead [--repeats 200] [--out BENCH_obs.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api_server.hpp"
#include "common/json.hpp"
#include "net/http_client.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/tuning_service.hpp"

namespace {

using bat::common::Json;
using bat::common::JsonObject;

struct Options {
  std::size_t repeats = 200;
  std::string out = "BENCH_obs.json";
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--repeats") {
      options.repeats = std::stoul(value());
    } else if (arg == "--out") {
      options.out = value();
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (options.repeats == 0) options.repeats = 1;
  return options;
}

double now_ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct TimedRun {
  double wall_ms = 0.0;
  std::size_t repeats = 0;
  [[nodiscard]] double per_repeat_ms() const {
    return repeats ? wall_ms / static_cast<double>(repeats) : 0.0;
  }
};

/// Self-calibrating window over `body(repeats)`: grow the repeat count
/// until one window clears `min_wall_ms`, then report it.
template <typename Body>
TimedRun timed_at_least(Body&& body, std::size_t repeats,
                        double min_wall_ms) {
  constexpr std::size_t kMaxRepeats = 1u << 26;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    body(repeats);
    TimedRun run;
    run.repeats = repeats;
    run.wall_ms = now_ms_since(t0);
    if (run.wall_ms >= min_wall_ms || repeats >= kMaxRepeats) return run;
    repeats = std::min<std::size_t>(
        kMaxRepeats,
        std::max<std::size_t>(
            repeats * 2,
            static_cast<std::size_t>(
                static_cast<double>(repeats) *
                (1.5 * min_wall_ms / std::max(run.wall_ms, 0.01)))));
  }
}

/// Min-of-N windows: the noise floor of the scenario.
template <typename Body>
TimedRun min_of_rounds(Body&& body, std::size_t repeats,
                       int extra_rounds = 2, double min_wall_ms = 50.0) {
  TimedRun best = timed_at_least(body, repeats, min_wall_ms);
  for (int round = 0; round < extra_rounds; ++round) {
    const TimedRun run = timed_at_least(body, best.repeats, min_wall_ms);
    if (run.per_repeat_ms() < best.per_repeat_ms()) best = run;
  }
  return best;
}

volatile std::uint64_t g_sink = 0;  // defeat dead-code elimination

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);

  JsonObject scenarios;
  const auto emit = [&scenarios](const char* name, const TimedRun& run) {
    JsonObject entry;
    entry.emplace("per_repeat_ns", run.per_repeat_ms() * 1e6);
    entry.emplace("repeats", static_cast<std::uint64_t>(run.repeats));
    entry.emplace("wall_ms", run.wall_ms);
    scenarios.emplace(name, Json(std::move(entry)));
    std::printf("%-18s %12.1f ns/op  (%zu reps, %.1fms)\n", name,
                run.per_repeat_ms() * 1e6, run.repeats, run.wall_ms);
  };

  // --- micro: one counter add / one histogram observe ------------------
  bat::obs::MetricsRegistry registry;
  auto* counter = registry.counter("bench_ops_total", "bench");
  emit("counter-add", min_of_rounds(
                          [&](std::size_t n) {
                            for (std::size_t i = 0; i < n; ++i) {
                              counter->add();
                            }
                            g_sink = g_sink + counter->value();
                          },
                          1 << 16));
  auto* histogram = registry.histogram(
      "bench_latency_seconds", "bench",
      bat::obs::Histogram::exponential(1e-4, 2.0, 16));
  emit("histogram-observe",
       min_of_rounds(
           [&](std::size_t n) {
             for (std::size_t i = 0; i < n; ++i) {
               histogram->observe(1e-4 * static_cast<double>(i & 1023));
             }
             g_sink = g_sink + histogram->snapshot().count;
           },
           1 << 16));

  // --- inline-session: the instrumented evaluation path ---------------
  {
    bat::service::TuningService svc;
    bat::service::SessionSpec spec;
    spec.kernel = "pnpoly";
    spec.tuner = "local";
    spec.budget = 100;
    (void)svc.run_inline(spec);  // workload build outside the window
    emit("inline-session",
         min_of_rounds(
             [&](std::size_t n) {
               for (std::size_t i = 0; i < n; ++i) {
                 bat::obs::TraceScope trace(bat::obs::mint_trace_id());
                 g_sink = g_sink + svc.run_inline(spec).run.trace.size();
               }
             },
             options.repeats));
  }

  // --- http-handle: the transport's per-request instrumentation --------
  {
    bat::service::TuningService svc;
    bat::api::ApiServer api(svc);  // never started: dispatch directly
    bat::net::HttpRequest request;
    request.method = "GET";
    request.target = "/v1/healthz";
    [[maybe_unused]] auto* duration = registry.histogram(
        "bench_http_request_duration_seconds", "bench",
        bat::obs::Histogram::exponential(1e-4, 2.0, 16));
    emit("http-handle",
         min_of_rounds(
             [&](std::size_t n) {
               for (std::size_t i = 0; i < n; ++i) {
                 // The exact wrapper net::HttpServer's worker runs
                 // around dispatch: trace mint + http.request span +
                 // duration observation. Under BAT_OBS_OFF this is a
                 // bare handle() call — the baseline the gate divides
                 // by.
#ifndef BAT_OBS_OFF
                 bat::obs::TraceScope trace(bat::obs::mint_trace_id());
                 {
                   bat::obs::ScopedSpan span("http.request", duration);
                   if (span.active()) {
                     span.set_detail(request.method + " " + request.target);
                   }
                   g_sink = g_sink + api.handle(request).body.size();
                 }
#else
                 g_sink = g_sink + api.handle(request).body.size();
#endif
               }
             },
             1 << 10));
  }

  // --- http-rps: the HTTP baseline over a live loopback server ---------
  {
    bat::service::TuningService svc;
    bat::api::ApiServer api(svc);
    api.start();
    constexpr std::size_t kClients = 4;
    std::vector<std::unique_ptr<bat::net::HttpClient>> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<bat::net::HttpClient>(
          "127.0.0.1", api.port()));
      g_sink = g_sink + clients.back()->get("/v1/healthz").body.size();
    }
    emit("http-rps",
         min_of_rounds(
             [&](std::size_t n) {
               std::vector<std::thread> drivers;
               drivers.reserve(kClients);
               for (std::size_t c = 0; c < kClients; ++c) {
                 drivers.emplace_back([&, c] {
                   auto& client = *clients[c];
                   for (std::size_t i = 0; i < n / kClients; ++i) {
                     g_sink =
                         g_sink + client.get("/v1/healthz").body.size();
                   }
                 });
               }
               for (auto& driver : drivers) driver.join();
             },
             1 << 10, /*extra_rounds=*/4, /*min_wall_ms=*/200.0));
    api.stop();
  }

  JsonObject root;
#ifndef BAT_OBS_OFF
  root.emplace("obs_enabled", true);
#else
  root.emplace("obs_enabled", false);
#endif
  root.emplace("scenarios", Json(std::move(scenarios)));

  std::ofstream out(options.out);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", options.out.c_str());
    return 1;
  }
  out << Json(std::move(root)).dump(2) << "\n";
  std::printf("wrote %s\n", options.out.c_str());
  return 0;
}
