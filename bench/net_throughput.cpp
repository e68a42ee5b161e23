// net_throughput: loopback throughput + latency of the HTTP/1.1 API.
//
// Drives an in-process `tune serve` stack (real sockets, real HTTP
// framing, the real ApiServer handler over a TuningService) through
// two scenarios and writes one JSON report (tools/ci.sh publishes it
// as BENCH_net.json):
//
//   baseline          N keep-alive clients in a synchronous request
//                     loop — the PR-5 bench, now also reporting p50/p99
//                     request latency.
//   high_concurrency  C connections (default 1024) multiplexed over a
//                     few threads with pipelined send-all/read-all
//                     rounds. The event-driven core's reason to exist:
//                     per-connection-thread servers die here; the gate
//                     is throughput within 0.8x of baseline.
//
//   net_throughput [--scenario all|baseline|high_concurrency]
//                  [--clients 4] [--connections 1024] [--threads 4]
//                  [--seconds 2] [--endpoint /v1/stats]
//                  [--http-workers 4] [--out BENCH_net.json]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api_server.hpp"
#include "common/json.hpp"
#include "common/statistics.hpp"
#include "net/http_client.hpp"
#include "service/tuning_service.hpp"

namespace {

using namespace bat;
using clock_type = std::chrono::steady_clock;

struct Options {
  std::string scenario = "all";
  std::size_t clients = 4;
  std::size_t connections = 1024;
  std::size_t threads = 4;
  double seconds = 2.0;
  std::string endpoint = "/v1/stats";
  std::size_t http_workers = 4;
  std::string out = "BENCH_net.json";
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
    if (arg == "--scenario") {
      options.scenario = value();
    } else if (arg == "--clients") {
      options.clients = std::stoul(value());
    } else if (arg == "--connections") {
      options.connections = std::stoul(value());
    } else if (arg == "--threads") {
      options.threads = std::stoul(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--endpoint") {
      options.endpoint = value();
    } else if (arg == "--http-workers") {
      options.http_workers = std::stoul(value());
    } else if (arg == "--out") {
      options.out = value();
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (options.clients == 0) options.clients = 1;
  if (options.threads == 0) options.threads = 1;
  if (options.connections < options.threads) {
    options.connections = options.threads;
  }
  if (options.http_workers == 0) options.http_workers = 4;
  if (options.scenario != "all" && options.scenario != "baseline" &&
      options.scenario != "high_concurrency") {
    throw std::invalid_argument("unknown --scenario " + options.scenario);
  }
  return options;
}

void raise_fd_limit(std::size_t needed) {
  // A thousand client sockets + their server ends live in this one
  // process; lift the soft RLIMIT_NOFILE toward the hard cap instead
  // of failing with EMFILE on default-1024 configurations.
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  const rlim_t want = static_cast<rlim_t>(needed * 2 + 256);
  if (limit.rlim_cur >= want) return;
  limit.rlim_cur = limit.rlim_max == RLIM_INFINITY
                       ? want
                       : std::min<rlim_t>(want, limit.rlim_max);
  (void)::setrlimit(RLIMIT_NOFILE, &limit);
}

struct ScenarioResult {
  std::uint64_t requests = 0;   // responses received, any status
  std::uint64_t failures = 0;   // transport errors + non-200 statuses
  double wall = 0.0;
  std::vector<double> latencies_ms;

  [[nodiscard]] double rps() const {
    return wall > 0.0 ? static_cast<double>(requests) / wall : 0.0;
  }
};

/// Merges per-thread partial results (latency vectors concatenate).
void merge(ScenarioResult& into, ScenarioResult&& part) {
  into.requests += part.requests;
  into.failures += part.failures;
  into.latencies_ms.insert(into.latencies_ms.end(),
                           part.latencies_ms.begin(),
                           part.latencies_ms.end());
}

double ms_between(clock_type::time_point begin, clock_type::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// baseline: a synchronous request loop per client thread.
ScenarioResult sync_loop_scenario(const api::ApiServer& api,
                                  const Options& options) {
  const auto start = clock_type::now();
  const auto deadline =
      start + std::chrono::duration_cast<clock_type::duration>(
                  std::chrono::duration<double>(options.seconds));

  std::vector<ScenarioResult> parts(options.clients);
  std::vector<std::thread> threads;
  threads.reserve(options.clients);
  for (std::size_t t = 0; t < options.clients; ++t) {
    threads.emplace_back([&, t] {
      ScenarioResult& part = parts[t];
      try {
        net::HttpClient client("127.0.0.1", api.port());
        while (true) {
          const auto sent = clock_type::now();
          if (sent >= deadline) break;
          const auto response = client.get(options.endpoint);
          const auto got = clock_type::now();
          ++part.requests;
          part.latencies_ms.push_back(ms_between(sent, got));
          if (response.status != 200) {
            ++part.failures;
            break;
          }
        }
      } catch (const std::exception& e) {
        // A transport throw is a failed measurement, not a crash: the
        // report (and CI) must still see the failure count.
        std::fprintf(stderr, "net_throughput thread %zu: %s\n", t, e.what());
        ++part.failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  ScenarioResult result;
  result.wall = std::max(
      options.seconds,
      std::chrono::duration<double>(clock_type::now() - start).count());
  for (auto& part : parts) merge(result, std::move(part));
  return result;
}

/// high_concurrency: C connections multiplexed over a few threads with
/// pipelined rounds — send one request on every connection, then read
/// every response. Latency per request is send-to-read, so it includes
/// the queueing a request experiences behind its round, which is the
/// honest number under this load shape.
ScenarioResult high_concurrency_scenario(const api::ApiServer& api,
                                         const Options& options) {
  const auto start = clock_type::now();
  const auto deadline =
      start + std::chrono::duration_cast<clock_type::duration>(
                  std::chrono::duration<double>(options.seconds));

  std::vector<ScenarioResult> parts(options.threads);
  std::vector<std::thread> threads;
  threads.reserve(options.threads);
  for (std::size_t t = 0; t < options.threads; ++t) {
    // Spread the remainder so exactly `connections` sockets exist.
    const std::size_t base = options.connections / options.threads;
    const std::size_t mine =
        base + (t < options.connections % options.threads ? 1 : 0);
    threads.emplace_back([&, t, mine] {
      ScenarioResult& part = parts[t];
      try {
        std::vector<std::unique_ptr<net::HttpClient>> clients;
        clients.reserve(mine);
        for (std::size_t c = 0; c < mine; ++c) {
          clients.push_back(std::make_unique<net::HttpClient>(
              "127.0.0.1", api.port()));
        }
        std::vector<clock_type::time_point> sent(mine);
        while (clock_type::now() < deadline) {
          for (std::size_t c = 0; c < mine; ++c) {
            sent[c] = clock_type::now();
            clients[c]->send_request("GET", options.endpoint);
          }
          for (std::size_t c = 0; c < mine; ++c) {
            const auto response = clients[c]->read_response();
            const auto got = clock_type::now();
            ++part.requests;
            part.latencies_ms.push_back(ms_between(sent[c], got));
            if (response.status != 200) ++part.failures;
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "net_throughput thread %zu: %s\n", t, e.what());
        ++part.failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  ScenarioResult result;
  result.wall = std::max(
      options.seconds,
      std::chrono::duration<double>(clock_type::now() - start).count());
  for (auto& part : parts) merge(result, std::move(part));
  return result;
}

common::JsonObject scenario_json(const ScenarioResult& result) {
  common::JsonObject object;
  object.emplace("requests", result.requests);
  object.emplace("failures", result.failures);
  object.emplace("seconds", result.wall);
  object.emplace("requests_per_second", result.rps());
  common::JsonObject latency;
  if (result.latencies_ms.empty()) {
    latency.emplace("p50", nullptr);
    latency.emplace("p99", nullptr);
  } else {
    std::vector<double> sorted = result.latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    latency.emplace("p50", common::quantile_sorted(sorted, 0.5));
    latency.emplace("p99", common::quantile_sorted(sorted, 0.99));
  }
  object.emplace("latency_ms", common::Json(std::move(latency)));
  return object;
}

void print_scenario(const char* name, const ScenarioResult& result) {
  std::vector<double> sorted = result.latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  const double p50 =
      sorted.empty() ? 0.0 : common::quantile_sorted(sorted, 0.5);
  const double p99 =
      sorted.empty() ? 0.0 : common::quantile_sorted(sorted, 0.99);
  std::printf("  %-17s %8llu requests, %llu failures -> %8.0f req/s, "
              "p50 %.3fms, p99 %.3fms\n",
              name, static_cast<unsigned long long>(result.requests),
              static_cast<unsigned long long>(result.failures),
              result.rps(), p50, p99);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "net_throughput: %s\n", e.what());
    return 2;
  }
  raise_fd_limit(options.connections);

  const bool all = options.scenario == "all";
  std::printf("net_throughput: endpoint %s, %.1fs per scenario\n",
              options.endpoint.c_str(), options.seconds);

  common::JsonObject scenarios;
  std::uint64_t total_failures = 0;
  double baseline_rps = 0.0;

  ScenarioResult baseline;
  if (all || options.scenario == "baseline") {
    service::TuningService svc;
    api::ApiOptions api_options;
    api_options.http.port = 0;
    api_options.http.workers = options.http_workers;
    api::ApiServer api(svc, api_options);
    api.start();
    baseline = sync_loop_scenario(api, options);
    api.stop();
    baseline_rps = baseline.rps();
    total_failures += baseline.failures;
    print_scenario("baseline", baseline);
    auto object = scenario_json(baseline);
    object.emplace("clients", static_cast<std::uint64_t>(options.clients));
    scenarios.emplace("baseline", common::Json(std::move(object)));
  }

  if (all || options.scenario == "high_concurrency") {
    service::TuningService svc;
    api::ApiOptions api_options;
    api_options.http.port = 0;
    api_options.http.workers = options.http_workers;
    api_options.http.max_connections = options.connections + 64;
    api::ApiServer api(svc, api_options);
    api.start();
    const ScenarioResult result = high_concurrency_scenario(api, options);
    const std::uint64_t accepted = api.http().connections_accepted();
    api.stop();
    total_failures += result.failures;
    print_scenario("high_concurrency", result);
    auto object = scenario_json(result);
    object.emplace("connections",
                   static_cast<std::uint64_t>(options.connections));
    object.emplace("threads", static_cast<std::uint64_t>(options.threads));
    object.emplace("connections_accepted", accepted);
    // Relative floor the CI gate checks: a readiness-loop server keeps
    // most of its low-connection throughput at 1k+ connections.
    object.emplace("baseline_requests_per_second",
                   baseline_rps > 0.0 ? common::Json(baseline_rps)
                                      : common::Json(nullptr));
    scenarios.emplace("high_concurrency", common::Json(std::move(object)));
  }

  common::JsonObject report;
  report.emplace("endpoint", options.endpoint);
  report.emplace("http_workers",
                 static_cast<std::uint64_t>(options.http_workers));
  report.emplace("seconds", options.seconds);
  // Legacy top-level keys mirror the baseline scenario so pre-existing
  // consumers of BENCH_net.json keep reading the same numbers.
  report.emplace("clients", static_cast<std::uint64_t>(options.clients));
  report.emplace("requests", baseline.requests);
  report.emplace("failures", total_failures);
  report.emplace("requests_per_second", baseline_rps);
  report.emplace("scenarios", common::Json(std::move(scenarios)));

  std::ofstream out(options.out);
  out << common::Json(std::move(report)).dump(2) << "\n";
  if (!out) {
    std::fprintf(stderr, "net_throughput: failed writing %s\n",
                 options.out.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", options.out.c_str());

  return total_failures == 0 ? 0 : 1;
}
