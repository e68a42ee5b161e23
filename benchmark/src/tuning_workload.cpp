// grid and surrogate: tuning sessions through service::TuningService.
//
// grid is the tuner-comparison path (`tune grid`, Fig. 2): seven
// kernels x seven tuners x several seeds at budget 500. The four
// exhaustively enumerable kernels replay datasets swept in set-up and
// registered with the service; expdist, hotspot and dedisp evaluate
// live. Tuners, core evaluation and the shared cache do the work while
// ml sits idle, and the replay/live split lets a replay-stack change
// and a gpusim change each show on part of it.
//
// surrogate runs surrogate-tuner sessions (pnpoly, gemm and expdist on
// device 0, budget 150): hundreds of GBDT refits on 20-150 rows, the
// opposite of analysis's dozen fits on thousands of rows, so a GBDT
// change that pays per-fit set-up shows its cost here. On pnpoly's
// small space the tuner re-proposes cached configurations a
// seed-dependent number of times (session cost varies by about 25%
// with the seed), so that path runs too; four pnpoly sessions a round
// average that variation out. nbody and convolution are left out: their
// cost varies by 40-50% with the seed.
//
// A round is one `tune grid`-style invocation: a fresh service with
// four workers runs every session of the round; results are digested
// as their futures resolve, in submission order, so memory stays
// bounded. Every round draws its own session seeds from the run seed,
// so a run's medians average over many inputs. The traced run rebuilds
// the service's composition from public parts — run_tuner over timed
// backends and a timed shared cache, four pool threads — and each of
// its rounds must digest equal to the service's round on the same
// specs.
#include <cstdio>
#include <deque>
#include <latch>
#include <map>
#include <memory>
#include <set>

#include "common/thread_pool.hpp"
#include "core/backend.hpp"
#include "io/dataset_repository.hpp"
#include "kernels/all_kernels.hpp"
#include "service/sharded_cache.hpp"
#include "service/tuning_service.hpp"
#include "timed.hpp"
#include "tuners/tuner.hpp"
#include "workloads.hpp"

namespace batbench {

using bat::service::SessionResult;
using bat::service::SessionSpec;
using bat::service::SessionStatus;

namespace {

constexpr std::size_t kWorkers = 4;
/// Futures bat_bench holds at once; the service's own backlog
/// (queue_capacity 64) blocks submission beyond that.
constexpr std::size_t kInFlight = 128;
constexpr std::size_t kShards = 16;  // the service default

struct Shape {
  /// Session kernels; a kernel listed twice gets twice the sessions.
  std::vector<std::string> kernels;
  std::set<std::string> replay;  // kernels served from swept datasets
  std::set<std::string> swept;   // device-0 datasets swept in set-up
  std::vector<std::string> tuners;
  std::size_t budget = 0;
  std::size_t seeds = 0;  // sessions per (kernel, tuner) in one round
};

const Shape kGrid{
    {"pnpoly", "nbody", "convolution", "gemm", "expdist", "hotspot",
     "dedisp"},
    {"pnpoly", "nbody", "convolution", "gemm"},
    {"pnpoly", "nbody", "convolution", "gemm"},
    {"random", "local", "annealing", "genetic", "ils", "pso", "de"},
    500,
    40};

// Per round 4 pnpoly (about 1.4 s each), 8 gemm (0.5 s) and 4 expdist
// (0.2 s) sessions: the session median sits inside the gemm cluster
// instead of in a gap between two kernels' costs. The swept pnpoly and
// gemm datasets bound the best objectives found.
const Shape kSurrogate{{"pnpoly", "gemm", "gemm", "expdist"},
                       {},
                       {"pnpoly", "gemm"},
                       {"surrogate"},
                       150,
                       4};

/// The sessions of round `round`, kernel-major in Shape::kernels order
/// (surrogate lists its longest sessions first, so they queue first).
std::vector<SessionSpec> make_specs(const Shape& shape, std::uint64_t seed,
                                    std::size_t round) {
  std::vector<SessionSpec> specs;
  for (const auto& kernel : shape.kernels) {
    for (std::size_t s = 0; s < shape.seeds; ++s) {
      for (const auto& tuner : shape.tuners) {
        SessionSpec spec;
        spec.kernel = kernel;
        spec.tuner = tuner;
        spec.device = 0;
        spec.budget = shape.budget;
        spec.seed = mix_seed(seed, (round << 32) + specs.size());
        spec.backend = shape.replay.contains(kernel) ? "replay" : "live";
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

/// Set-up: the device-0 datasets of Shape::swept, through the
/// repository.
struct State {
  std::map<std::string, std::unique_ptr<bat::core::Benchmark>> benchmarks;
  std::map<std::string, std::shared_ptr<const bat::core::Dataset>> datasets;
};

State set_up(const Shape& shape) {
  State state;
  bat::io::DatasetRepository repo;  // memory-only
  for (const auto& kernel : shape.kernels) {
    if (state.benchmarks.contains(kernel)) continue;
    auto bench = bat::kernels::make(kernel);
    if (shape.swept.contains(kernel)) {
      Span span("io.dataset_get");
      state.datasets[kernel] = repo.get(*bench, 0);
    }
    state.benchmarks[kernel] = std::move(bench);
  }
  return state;
}

/// Session wall times per (kernel, tuner) cell.
using CellTimes =
    std::map<std::pair<std::string, std::string>, std::vector<double>>;

struct Round {
  double wall_s = 0.0;
  std::vector<double> session_ms;
  CellTimes cell_ms;
  std::string digest;
  std::uint64_t failed = 0;
  double busy_ms = 0.0;
  std::vector<SessionResult> kept;  // only when asked for
  // Composition rounds only.
  std::uint64_t evaluations = 0;
  std::uint64_t replay_lookups = 0;
  bat::service::ShardedMeasurementCache::Stats cache;
};

void fold(Round& round, Digest& digest, const SessionResult& r, bool keep) {
  add_session(digest, bat::service::to_string(r.status), r.run.trace);
  round.session_ms.push_back(r.wall_ms);
  round.cell_ms[{r.spec.kernel, r.spec.tuner}].push_back(r.wall_ms);
  round.busy_ms += r.wall_ms;
  if (r.status != SessionStatus::kCompleted) ++round.failed;
  if (keep) round.kept.push_back(r);
}

Round service_round(const Shape& shape, const State& state,
                    const std::vector<SessionSpec>& specs, bool keep) {
  Round round;
  Digest digest;
  const auto start = now_ns();
  {
    bat::service::ServiceOptions options;
    options.workers = kWorkers;
    bat::service::TuningService service(options);
    for (const auto& kernel : shape.replay) {
      service.register_dataset(kernel, 0, *state.datasets.at(kernel));
    }
    std::deque<std::future<SessionResult>> pending;
    std::size_t next = 0;
    while (next < specs.size() || !pending.empty()) {
      if (next < specs.size() && pending.size() < kInFlight) {
        pending.push_back(service.submit(specs[next++]));
        continue;
      }
      fold(round, digest, pending.front().get(), keep);
      pending.pop_front();
    }
    round.cache = service.cache_stats();
  }
  round.wall_s = seconds_since(start);
  round.digest = digest.hex();
  return round;
}

/// What TuningService builds per (kernel, backend), rebuilt from public
/// parts with timing decorators in the evaluation path.
struct Workload {
  std::unique_ptr<bat::core::Benchmark> benchmark;
  std::unique_ptr<bat::core::EvaluationBackend> backend;
  std::unique_ptr<TimedBackend> timed;
  std::shared_ptr<bat::service::ShardedMeasurementCache> cache;
  std::unique_ptr<TimedCache> timed_cache;
};

Round composed_round(const State& state,
                     const std::vector<SessionSpec>& specs) {
  Round round;
  const auto start = now_ns();
  Span root("bench.round");
  std::map<std::pair<std::string, std::string>, Workload> workloads;
  {
    Span span("core.workload_build");
    for (const auto& spec : specs) {
      auto& w = workloads[{spec.kernel, spec.backend}];
      if (w.benchmark) continue;
      w.benchmark = bat::kernels::make(spec.kernel);
      const bool replay = spec.backend == "replay";
      if (replay) {
        w.backend = std::make_unique<bat::core::ReplayBackend>(
            w.benchmark->space(), *state.datasets.at(spec.kernel));
      } else {
        w.backend =
            std::make_unique<bat::core::LiveBackend>(*w.benchmark, spec.device);
      }
      w.timed = std::make_unique<TimedBackend>(
          *w.backend, replay ? "core.replay" : "gpusim.evaluate");
      w.cache = std::make_shared<bat::service::ShardedMeasurementCache>(
          w.benchmark->space().compiled_shared(), kShards);
      w.timed_cache = std::make_unique<TimedCache>(*w.cache);
    }
  }
  std::vector<SessionResult> results(specs.size());
  {
    // A pool like the service's: nested batch fan-out runs inline on
    // the session's worker there, and therefore here too.
    bat::common::ThreadPool pool(kWorkers);
    std::latch done(static_cast<std::ptrdiff_t>(specs.size()));
    for (std::size_t i = 0; i < specs.size(); ++i) {
      pool.submit([&, i, parent = root.id()] {
        auto& result = results[i];
        result.spec = specs[i];
        const auto t0 = now_ns();
        try {
          Span span("tuners.session", parent);
          auto& w = workloads.at({specs[i].kernel, specs[i].backend});
          const auto tuner = bat::tuners::make_tuner(specs[i].tuner);
          bat::core::EvaluationHooks hooks;
          hooks.shared_cache = w.timed_cache.get();
          result.run = bat::tuners::run_tuner(*tuner, *w.timed,
                                              specs[i].budget, specs[i].seed,
                                              hooks);
          result.status = SessionStatus::kCompleted;
        } catch (const std::exception& e) {
          result.status = SessionStatus::kFailed;
          result.error = e.what();
        }
        result.wall_ms = seconds_since(t0) * 1e3;
        done.count_down();
      });
    }
    done.wait();
  }
  Digest digest;
  for (const auto& r : results) fold(round, digest, r, false);
  round.digest = digest.hex();
  for (const auto& [key, w] : workloads) {
    (key.second == "replay" ? round.replay_lookups : round.evaluations) +=
        w.timed->configs();
    const auto s = w.cache->stats();
    round.cache.lookups += s.lookups;
    round.cache.hits += s.hits;
    round.cache.waited += s.waited;
  }
  round.wall_s = seconds_since(start);
  return round;
}

double hit_ratio(const bat::service::ShardedMeasurementCache::Stats& s) {
  return s.lookups == 0 ? 0.0
                        : static_cast<double>(s.cross_session_hits()) /
                              static_cast<double>(s.lookups);
}

/// Surrogate outputs: every session ran its full budget and recorded a
/// best objective that a fresh live evaluation of that configuration
/// reproduces and that is no better than a swept space's optimum.
void check_surrogate(const State& state, const Round& round,
                     RunResult& result) {
  bool full = true;
  bool best_ok = true;
  for (const auto& r : round.kept) {
    full = full && r.run.trace.size() == r.spec.budget;
    bat::core::LiveBackend live(*state.benchmarks.at(r.spec.kernel),
                                r.spec.device);
    best_ok = best_ok && r.run.best.has_value() &&
              live.evaluate(r.run.best->index).objective() ==
                  r.run.best->objective;
    const auto ds = state.datasets.find(r.spec.kernel);
    if (best_ok && ds != state.datasets.end()) {
      best_ok = r.run.best->objective >= ds->second->best_time();
    }
  }
  result.check(full, "surrogate sessions ran their full budget");
  result.check(best_ok,
               "surrogate best objectives reproduce live and respect the "
               "swept optimum");
}

RunResult run_tuning(const RunConfig& config, const Shape& shape,
                     bool surrogate) {
  RunResult result;
  LayerRecorder setup_spans;
  State state;
  Tracer::set_enabled(config.trace);
  const auto setup_seconds = measure_setup([&] {
    state = set_up(shape);
    setup_spans.take();
  });

  std::vector<Round> service_rounds;
  std::vector<Round> traced_rounds;
  LayerRecorder traced;
  bool traced_equal = true;
  const auto start = now_ns();
  while (service_rounds.empty() || seconds_since(start) < config.seconds) {
    const auto specs = make_specs(shape, config.seed, service_rounds.size());
    Tracer::set_enabled(false);
    service_rounds.push_back(
        service_round(shape, state, specs, surrogate && service_rounds.empty()));
    result.attempted += specs.size();
    result.failed += service_rounds.back().failed;
    if (config.trace) {
      Tracer::set_enabled(true);
      traced_rounds.push_back(composed_round(state, specs));
      traced.take();
      traced_equal = traced_equal && traced_rounds.back().digest ==
                                         service_rounds.back().digest;
    }
  }
  Tracer::set_enabled(false);

  // Round 0 is the one checked against goldens and, untraced, against
  // the rebuilt composition (grid only: for surrogate that would cost a
  // whole extra round).
  const auto& first = service_rounds.front();
  std::fprintf(stderr, "round 0 digest %s\n", first.digest.c_str());
  if (surrogate) check_surrogate(state, first, result);
  if (config.trace) {
    result.check(traced_equal,
                 "every traced round digests equal to its service round");
  } else if (!surrogate) {
    const auto reference =
        composed_round(state, make_specs(shape, config.seed, 0));
    result.check(reference.digest == first.digest,
                 "service digest equals the rebuilt composition's (" +
                     reference.digest + ")");
  }
  // The surrogate digest is printed but never gated: GBDT summation
  // order may legitimately change.
  if (!surrogate) {
    result.observed.emplace("grid_digest", first.digest);
    if (const auto* golden = seed_golden(config, "grid_digest")) {
      result.check(golden->as_string() == first.digest,
                   "grid digest matches golden " + golden->as_string());
    }
  }

  std::vector<double> walls;
  std::vector<double> session_ms;
  CellTimes cell_ms;
  std::vector<double> utilization;
  for (const auto& r : service_rounds) {
    walls.push_back(r.wall_s);
    session_ms.insert(session_ms.end(), r.session_ms.begin(),
                      r.session_ms.end());
    for (const auto& [cell, ms] : r.cell_ms) {
      auto& all = cell_ms[cell];
      all.insert(all.end(), ms.begin(), ms.end());
    }
    utilization.push_back(r.busy_ms / (r.wall_s * 1e3 * kWorkers));
  }
  // The tail is the slowest tenth of (kernel, tuner) cells by median
  // session time. A session a host stall lengthens is an outlier in its
  // cell, so the cell median ignores it; a tail of single sessions would
  // be made of such stalls.
  std::vector<double> cell_medians;
  for (const auto& [cell, ms] : cell_ms) {
    cell_medians.push_back(median_or_zero(ms));
  }
  if (!config.trace) {
    result.metric("setup_s", median_or_zero(setup_seconds), "s");
    result.metric("wall_s", median_or_zero(walls), "s");
    result.metric("p50_ms", median_or_zero(session_ms), "ms");
    result.metric("tail_ms", slowest_tenth_mean(cell_medians), "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    complete_metrics(result, kEndToEnd);
    return result;
  }
  std::vector<double> traced_walls;
  std::vector<double> evaluations;
  std::vector<double> lookups;
  std::vector<double> cache_lookups;
  std::vector<double> hits;
  for (const auto& r : traced_rounds) {
    traced_walls.push_back(r.wall_s);
    evaluations.push_back(static_cast<double>(r.evaluations));
    lookups.push_back(static_cast<double>(r.replay_lookups));
    cache_lookups.push_back(static_cast<double>(r.cache.lookups));
    hits.push_back(hit_ratio(r.cache));
  }
  result.metric("trace_overhead_ratio",
                median_or_zero(traced_walls) / median_or_zero(walls), "ratio");
  result.metric("trace.coverage", traced.median_of([](const NameMap& m) {
    const auto& root = m.at("bench.round");
    return 1.0 - root.self_s / root.total_s;
  }), "ratio");
  result.metric("io.dataset_get_s", setup_spans.total_s("io.dataset_get"), "s");
  for (const char* name :
       {"core.workload_build", "gpusim.evaluate", "core.replay",
        "service.cache_claim", "service.cache_wait"}) {
    result.metric(std::string(name) + "_s", traced.self_s(name), "s");
  }
  result.metric("tuners.self_s", traced.self_s("tuners.session"), "s");
  result.metric("gpusim.evaluations", median_or_zero(evaluations), "count");
  result.metric("core.replay_lookups", median_or_zero(lookups), "count");
  result.metric("service.cache_lookups", median_or_zero(cache_lookups),
                "count");
  result.metric("service.cache_hit_ratio", median_or_zero(hits), "ratio");
  result.metric("service.worker_utilization", median_or_zero(utilization),
                "ratio");
  write_run_trace(config, setup_spans, traced);
  complete_metrics(result, kPerLayer);
  return result;
}

}  // namespace

RunResult run_grid(const RunConfig& config) {
  return run_tuning(config, kGrid, false);
}

RunResult run_surrogate(const RunConfig& config) {
  return run_tuning(config, kSurrogate, true);
}

}  // namespace batbench
