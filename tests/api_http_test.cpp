// api/: the JSON API over TuningService — route dispatch without
// sockets, then full loopback round trips:
//   * end-to-end determinism: a session submitted over HTTP serializes
//     to a trace byte-identical to run_inline of the same spec on a
//     fresh service (the acceptance bar for the wire layer: transport
//     must not perturb results);
//   * two concurrent remote clients on one workload register
//     cross_session_hits > 0 (the service's raison d'être survives the
//     network hop);
//   * spec (de)serialization strictness and the async job registry;
//   * GET /v1/sessions/<id> bodies, finished and pending, byte-equal to
//     their DOM encoding.
// tools/ci.sh runs this binary under TSan: HTTP workers, service
// workers and the sharded cache all interleave here.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api_server.hpp"
#include "common/json.hpp"
#include "net/http_client.hpp"
#include "obs/metrics.hpp"
#include "service/session_json.hpp"
#include "service/tuning_service.hpp"

namespace bat::api {
namespace {

using common::Json;

service::SessionSpec small_spec(std::uint64_t seed = 42) {
  service::SessionSpec spec;
  spec.kernel = "pnpoly";  // smallest space: fast live evaluations
  spec.tuner = "local";
  spec.budget = 40;
  spec.seed = seed;
  spec.backend = "live";
  return spec;
}

// ------------------------------------------------- spec json round trips --

TEST(SessionJson, SpecRoundTripsAndAppliesDefaults) {
  const auto spec = small_spec(7);
  const auto round =
      service::spec_from_json(Json::parse(service::to_json(spec).dump()));
  EXPECT_EQ(round.kernel, spec.kernel);
  EXPECT_EQ(round.tuner, spec.tuner);
  EXPECT_EQ(round.device, spec.device);
  EXPECT_EQ(round.budget, spec.budget);
  EXPECT_EQ(round.seed, spec.seed);
  EXPECT_EQ(round.backend, spec.backend);

  const auto defaults = service::spec_from_json(Json::parse("{}"));
  EXPECT_EQ(defaults.kernel, "gemm");
  EXPECT_EQ(defaults.budget, 150u);
}

TEST(SessionJson, SpecRejectsUnknownKeysAndWrongTypes) {
  EXPECT_THROW((void)service::spec_from_json(Json::parse(
                   R"({"budjet": 10})")),
               std::invalid_argument);
  EXPECT_THROW((void)service::spec_from_json(Json::parse(
                   R"({"budget": "ten"})")),
               common::JsonTypeError);
  EXPECT_THROW((void)service::spec_from_json(Json::parse(
                   R"({"seed": -1})")),
               common::JsonTypeError);
  EXPECT_THROW((void)service::spec_from_json(Json::parse("[1,2]")),
               common::JsonTypeError);
}

// ---------------------------------------------------- socket-free routes --

TEST(ApiServer, RoutesWithoutSockets) {
  service::TuningService svc;
  ApiServer api(svc);  // never started: handle() directly

  net::HttpRequest req;
  req.method = "GET";
  req.target = "/v1/spaces";
  const auto spaces = api.handle(req);
  EXPECT_EQ(spaces.status, 200);
  const auto parsed = Json::parse(spaces.body);
  EXPECT_EQ(parsed.at("spaces").as_array().size(), 7u);  // paper kernels

  req.target = "/v1/nope";
  EXPECT_EQ(api.handle(req).status, 404);
  req.target = "/v1/sessions/99";
  EXPECT_EQ(api.handle(req).status, 404);
  req.target = "/v1/sessions/xyz";
  EXPECT_EQ(api.handle(req).status, 400);
  req.target = "/v1/stats";
  req.method = "POST";
  EXPECT_EQ(api.handle(req).status, 405);

  req.method = "POST";
  req.target = "/v1/sessions:run";
  req.body = "{not json";
  EXPECT_EQ(api.handle(req).status, 400);
  req.body = R"({"kernell": "gemm"})";
  EXPECT_EQ(api.handle(req).status, 400);

  // A well-formed spec naming an unknown kernel is a *session* failure,
  // reported in-band like everywhere else in the service layer.
  req.body = R"({"kernel": "warpdrive", "budget": 5})";
  const auto failed = api.handle(req);
  EXPECT_EQ(failed.status, 200);
  EXPECT_EQ(Json::parse(failed.body).at("status").as_string(), "failed");
}

/// What GET /v1/sessions/<id> answers for a finished session: the
/// {id, result, state} object built as a DOM and dumped whole.
std::string done_body(const std::string& id,
                      const service::SessionResult& result) {
  return Json(common::JsonObject{{"id", id},
                                 {"result", service::to_json(result)},
                                 {"state", "done"}})
      .dump();
}

TEST(ApiServer, FinishedSessionBodiesAreTheDomEncoding) {
  service::TuningService svc;
  ApiServer api(svc);
  auto unknown_kernel = small_spec(5);
  unknown_kernel.kernel = "warpdrive";
  ASSERT_EQ(svc.submit_tracked(small_spec(5)), 1u);
  ASSERT_EQ(svc.submit_tracked(unknown_kernel), 2u);
  svc.wait_idle();
  const auto completed = svc.tracked(1)->future.get();
  const auto failed = svc.tracked(2)->future.get();
  ASSERT_EQ(completed.status, service::SessionStatus::kCompleted);
  ASSERT_EQ(failed.status, service::SessionStatus::kFailed);

  net::HttpRequest req;
  req.method = "GET";
  // The id is echoed as the client wrote it, leading zeros included.
  for (const auto& [id, result] :
       {std::pair{"1", &completed}, std::pair{"2", &failed},
        std::pair{"001", &completed}}) {
    req.target = std::string("/v1/sessions/") + id;
    const auto response = api.handle(req);
    ASSERT_EQ(response.status, 200) << req.target;
    EXPECT_EQ(response.body, done_body(id, *result)) << req.target;
    ASSERT_EQ(response.headers.size(), 1u);
    EXPECT_EQ(response.headers[0].first, "content-type");
    EXPECT_EQ(response.headers[0].second, "application/json");
  }
}

TEST(ApiServer, PendingSessionAnswersWithItsSpec) {
  service::ServiceOptions options;
  options.workers = 1;
  service::TuningService svc(options);
  ApiServer api(svc);
  // The one worker runs a session far too long to finish during this
  // test, so the next submission waits in the queue.
  service::SessionSpec blocker;
  blocker.kernel = "dedisp";
  blocker.tuner = "random";
  blocker.budget = 100'000'000;
  (void)svc.submit_tracked(blocker);
  const auto id = std::to_string(svc.submit_tracked(small_spec(3)));

  net::HttpRequest req;
  req.method = "GET";
  req.target = "/v1/sessions/" + id;
  const auto response = api.handle(req);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.body,
            Json(common::JsonObject{{"id", id},
                                    {"spec", service::to_json(small_spec(3))},
                                    {"state", "pending"}})
                .dump());
  svc.shutdown();  // cancels the blocker at its next batch boundary
}

// -------------------------------------------------------- loopback e2e ----

TEST(ApiServer, SynchronousRunMatchesRunInlineByteForByte) {
  const auto spec = small_spec(123);

  // Local reference: a fresh service, run_inline, serialized here.
  std::string local_trace;
  {
    service::TuningService svc;
    const auto result = svc.run_inline(spec);
    ASSERT_EQ(result.status, service::SessionStatus::kCompleted);
    local_trace = service::to_json(result).at("trace").dump();
  }

  // Remote: same spec JSON over loopback HTTP into another service.
  service::TuningService svc;
  ApiServer api(svc);
  api.start();
  net::HttpClient client("127.0.0.1", api.port());
  const auto response =
      client.post("/v1/sessions:run", service::to_json(spec).dump());
  ASSERT_EQ(response.status, 200);
  const auto remote = Json::parse(response.body);
  EXPECT_EQ(remote.at("status").as_string(), "completed");

  // Byte-identical trace: same serializer, same measurements, same
  // order — the transport added nothing and lost nothing.
  EXPECT_EQ(remote.at("trace").dump(), local_trace);
  ASSERT_FALSE(remote.at("best").is_null());
  EXPECT_GT(remote.at("evaluations").as_uint(), 0u);
  api.stop();
}

TEST(ApiServer, AsyncSubmitPollCompletes) {
  service::TuningService svc;
  ApiServer api(svc);
  api.start();
  net::HttpClient client("127.0.0.1", api.port());

  const auto submitted =
      client.post("/v1/sessions", service::to_json(small_spec(9)).dump());
  ASSERT_EQ(submitted.status, 202);
  const auto ticket = Json::parse(submitted.body);
  const std::string id = ticket.at("id").as_string();
  EXPECT_EQ(ticket.at("href").as_string(), "/v1/sessions/" + id);

  // Poll until done (seconds of headroom; the session is tiny).
  Json job;
  for (int i = 0; i < 2000; ++i) {
    const auto got = client.get("/v1/sessions/" + id);
    ASSERT_EQ(got.status, 200);
    job = Json::parse(got.body);
    if (job.at("state").as_string() == "done") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(job.at("state").as_string(), "done");
  EXPECT_EQ(job.at("result").at("status").as_string(), "completed");
  EXPECT_EQ(job.at("result").at("evaluations").as_uint(), 40u);

  const auto listing = Json::parse(client.get("/v1/sessions").body);
  ASSERT_EQ(listing.at("sessions").as_array().size(), 1u);
  EXPECT_EQ(listing.at("sessions").as_array()[0].at("state").as_string(),
            "done");
  api.stop();
}

TEST(ApiServer, TwoConcurrentRemoteClientsShareTheWorkloadCache) {
  service::TuningService svc;
  ApiServer api(svc);
  api.start();

  // Two clients, same workload, same seed: identical probe sequences
  // guarantee overlap, so whoever evaluates first seeds the other's
  // cross-session hits — while both sessions flow through real
  // sockets and concurrent HTTP workers.
  const std::string body = service::to_json(small_spec(77)).dump();
  std::vector<std::thread> clients;
  std::array<std::uint64_t, 2> evaluations{0, 0};
  std::atomic<int> completed{0};
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      net::HttpClient client("127.0.0.1", api.port());
      const auto response = client.post("/v1/sessions:run", body);
      if (response.status != 200) return;
      const auto result = Json::parse(response.body);
      if (result.at("status").as_string() == "completed") {
        completed.fetch_add(1);
        evaluations[static_cast<std::size_t>(c)] =
            result.at("evaluations").as_uint();
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(completed.load(), 2);
  EXPECT_EQ(evaluations[0], evaluations[1]);  // identical specs, same run

  net::HttpClient client("127.0.0.1", api.port());
  const auto stats = Json::parse(client.get("/v1/stats").body);
  EXPECT_GT(stats.at("cache").at("cross_session_hits").as_uint(), 0u);
  EXPECT_EQ(stats.at("cache").at("evaluations").as_uint(), evaluations[0])
      << "identical sessions must dedupe to one evaluation set";
  EXPECT_GE(stats.at("http").at("connections_accepted").as_uint(), 3u);
  api.stop();
}

TEST(ApiServer, SubmitAfterShutdownIs503) {
  service::TuningService svc;
  ApiServer api(svc);
  api.start();
  svc.shutdown();
  net::HttpClient client("127.0.0.1", api.port());
  const auto response =
      client.post("/v1/sessions", service::to_json(small_spec()).dump());
  EXPECT_EQ(response.status, 503);
  api.stop();
}

// ------------------------------------------------------- observability ----

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Regression net for the /v1/stats contract: the registry migration
/// must not rename, drop or re-nest a single pre-existing key —
/// dashboards and tools/ci.sh parse these names.
TEST(ApiServer, StatsKeysSurviveTheRegistryMigration) {
  const auto journal_dir = fresh_dir("obs_stats_keys");
  service::ServiceOptions options;
  options.journal_dir = journal_dir.string();
  service::TuningService svc(options);
  ASSERT_EQ(svc.run_inline(small_spec(5)).status,
            service::SessionStatus::kCompleted);
  ApiServer api(svc);  // handle() directly: no sockets needed

  net::HttpRequest req;
  req.method = "GET";
  req.target = "/v1/stats";
  const auto response = api.handle(req);
  ASSERT_EQ(response.status, 200);
  const auto stats = Json::parse(response.body);

  for (const auto* key :
       {"workers", "sessions_submitted", "sessions_active", "cache",
        "durability", "http"}) {
    EXPECT_NE(stats.find(key), nullptr) << "missing top-level key " << key;
  }
  for (const auto* key : {"lookups", "hits", "waited", "evaluations",
                          "abandoned", "cross_session_hits"}) {
    EXPECT_NE(stats.at("cache").find(key), nullptr)
        << "missing cache key " << key;
  }
  for (const auto* key :
       {"connections_accepted", "requests_served", "connections_open",
        "requests_shed", "connections_over_capacity"}) {
    EXPECT_NE(stats.at("http").find(key), nullptr)
        << "missing http key " << key;
  }
  ASSERT_TRUE(stats.at("durability").at("enabled").as_bool());
  for (const auto* key :
       {"journal_bytes", "records_appended", "commits", "checkpoints",
        "recovered_pending", "restored_completed", "evicted_completed",
        "replay_dropped_bytes"}) {
    EXPECT_NE(stats.at("durability").find(key), nullptr)
        << "missing durability key " << key;
  }
  EXPECT_EQ(stats.at("sessions_submitted").as_uint(), 1u);
}

TEST(ApiServer, MetricsEndpointRendersTheSharedRegistry) {
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  service::ServiceOptions service_options;
  service_options.metrics = metrics;
  service::TuningService svc(service_options);
  ASSERT_EQ(svc.run_inline(small_spec(3)).status,
            service::SessionStatus::kCompleted);

  ApiOptions api_options;
  api_options.metrics = metrics;
  ApiServer api(svc, api_options);

  net::HttpRequest req;
  req.method = "GET";
  req.target = "/v1/metrics";
  const auto response = api.handle(req);
  ASSERT_EQ(response.status, 200);
  ASSERT_FALSE(response.headers.empty());
  EXPECT_EQ(response.headers.front().second,
            "text/plain; version=0.0.4; charset=utf-8");
  // One scrape carries every layer: service counters, the cache bridge,
  // the transport's series, build identity and trace-ring accounting.
  for (const auto* needle :
       {"bat_sessions_submitted_total 1", "# TYPE bat_session_duration_seconds histogram",
        "bat_cache_lookups_total", "bat_http_requests_total",
        "bat_build_info{build_id=\"", "bat_uptime_seconds",
        "bat_trace_spans_recorded_total"}) {
    EXPECT_NE(response.body.find(needle), std::string::npos)
        << "missing from exposition: " << needle << "\n" << response.body;
  }

  req.method = "POST";
  EXPECT_EQ(api.handle(req).status, 405);
}

TEST(ApiServer, HealthzReportsReadyThenDraining) {
  service::TuningService svc;
  ApiServer api(svc);
  net::HttpRequest req;
  req.method = "GET";
  req.target = "/v1/healthz";
  const auto ready = Json::parse(api.handle(req).body);
  EXPECT_EQ(ready.at("status").as_string(), "ready");
  EXPECT_FALSE(ready.at("build_id").as_string().empty());
  EXPECT_GE(ready.at("uptime_seconds").as_double(), 0.0);

  svc.shutdown();
  const auto draining = Json::parse(api.handle(req).body);
  EXPECT_EQ(draining.at("status").as_string(), "draining");
}

#ifndef BAT_OBS_OFF
/// The tentpole end-to-end: a tracked session's timeline must show the
/// lifecycle phases in causal order — submit (with its nested journal
/// fsync), the evaluate phase with backend batches inside it, and the
/// terminal journal.result commit after evaluation finished.
TEST(ApiServer, TrackedSessionTraceShowsLifecycleSpansInOrder) {
  const auto journal_dir = fresh_dir("obs_trace_spans");
  service::ServiceOptions options;
  options.journal_dir = journal_dir.string();
  service::TuningService svc(options);
  ApiServer api(svc);

  net::HttpRequest req;
  req.method = "POST";
  req.target = "/v1/sessions";
  req.body = service::to_json(small_spec(11)).dump();
  const auto submitted = api.handle(req);
  ASSERT_EQ(submitted.status, 202);
  const std::string id = Json::parse(submitted.body).at("id").as_string();
  svc.wait_idle();

  req.method = "GET";
  req.target = "/v1/sessions/" + id + "/trace";
  const auto response = api.handle(req);
  ASSERT_EQ(response.status, 200);
  const auto trace = Json::parse(response.body);
  EXPECT_EQ(trace.at("id").as_string(), id);
  EXPECT_GT(trace.at("trace_id").as_uint(), 0u);

  const auto& spans = trace.at("spans").as_array();
  auto first_start = [&](const std::string& name) -> std::int64_t {
    for (const auto& span : spans) {
      if (span.at("name").as_string() == name) {
        return static_cast<std::int64_t>(span.at("start_us").as_uint());
      }
    }
    return -1;
  };
  const auto submit_us = first_start("submit");
  const auto journal_submit_us = first_start("journal.submit");
  const auto evaluate_us = first_start("evaluate");
  const auto batch_us = first_start("backend.batch");
  const auto journal_result_us = first_start("journal.result");
  ASSERT_GE(submit_us, 0) << response.body;
  ASSERT_GE(journal_submit_us, 0) << response.body;
  ASSERT_GE(evaluate_us, 0) << response.body;
  ASSERT_GE(batch_us, 0) << response.body;
  ASSERT_GE(journal_result_us, 0) << response.body;
  EXPECT_LE(submit_us, journal_submit_us);
  EXPECT_LE(submit_us, evaluate_us);
  EXPECT_LE(evaluate_us, batch_us);
  EXPECT_LE(batch_us, journal_result_us);

  // Untracked ids have no trace; garbage ids are a client error.
  req.target = "/v1/sessions/424242/trace";
  EXPECT_EQ(api.handle(req).status, 404);
  req.target = "/v1/sessions/xyz/trace";
  EXPECT_EQ(api.handle(req).status, 400);
}
#endif  // BAT_OBS_OFF

}  // namespace
}  // namespace bat::api
