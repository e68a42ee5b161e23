// google-benchmark microbenchmarks of the framework itself: the costs a
// tuner pays per step (space decode, constraint check, simulated
// evaluation, neighbor generation) and the analysis building blocks
// (GBDT fit and prediction, PageRank iteration). BM_GbdtFit draws
// continuous features; BM_GbdtFitDiscrete and BM_GbdtPredictAll use
// BAT-shaped discrete ones, the data the paper's analyses fit, and
// BM_GbdtScorePool the surrogate tuner's live gemm rows.
//
// Tuner-side micros run in the index currency tuners use: valid draws
// and Hamming-1 neighbors come from the compiled space (CompiledSpace),
// evaluations go through CachingEvaluator::evaluate_index.
// BM_TunerSession times whole population-tuner sessions.
#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <memory>

#include "analysis/ffg.hpp"
#include "analysis/pagerank.hpp"
#include "api/api_server.hpp"
#include "common/rng.hpp"
#include "core/backend.hpp"
#include "core/compiled_space.hpp"
#include "core/evaluator.hpp"
#include "core/runner.hpp"
#include "io/dataset_file.hpp"
#include "io/dataset_view.hpp"
#include "kernels/all_kernels.hpp"
#include "ml/gbdt.hpp"
#include "net/http.hpp"
#include "service/session_json.hpp"
#include "service/tuning_service.hpp"
#include "tuners/tuner.hpp"

namespace {

using namespace bat;

void BM_SpaceDecode(benchmark::State& state) {
  const auto bench = kernels::make("dedisp");
  const auto& params = bench->space().params();
  core::Config scratch;
  core::ConfigIndex i = 0;
  for (auto _ : state) {
    params.decode_into(i % params.cardinality(), scratch);
    benchmark::DoNotOptimize(scratch.data());
    i += 977;
  }
}
BENCHMARK(BM_SpaceDecode);

void BM_ConstraintCheck(benchmark::State& state) {
  const auto bench = kernels::make("gemm");
  const auto& space = bench->space();
  common::Rng rng(1);
  const auto config =
      space.params().config_at(rng.next_below(space.cardinality()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.constraints().satisfied(config));
  }
}
BENCHMARK(BM_ConstraintCheck);

void BM_SimulatedEvaluation(benchmark::State& state) {
  const auto bench = kernels::make("gemm");
  common::Rng rng(2);
  const auto& space = bench->space();
  const auto config = space.params().config_at(space.random_valid_index(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench->evaluate(config, 2).time_ms);
  }
}
BENCHMARK(BM_SimulatedEvaluation);

// for_each_valid_neighbor_index: pure index arithmetic + rank probes
// (gemm, materialized) or the constraint plan (hotspot, streamed) — no
// per-step allocation.
void BM_NeighborsIndex(benchmark::State& state, const std::string& kernel) {
  const auto bench = kernels::make(kernel);
  const auto& compiled = bench->space().compiled();
  common::Rng rng(3);
  const auto base = bench->space().random_valid_index(rng);
  core::NeighborScratch scratch;
  for (auto _ : state) {
    std::size_t count = 0;
    compiled.for_each_valid_neighbor_index(
        base, scratch, [&](core::ConfigIndex) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK_CAPTURE(BM_NeighborsIndex, gemm, "gemm");
BENCHMARK_CAPTURE(BM_NeighborsIndex, hotspot, "hotspot");

void BM_RandomValidSample(benchmark::State& state) {
  const auto bench = kernels::make("expdist");  // ~5% acceptance
  common::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench->space().random_valid_index(rng));
  }
}
BENCHMARK(BM_RandomValidSample);

// FFG construction: flat CSR arrays off the compiled valid-index set
// (rank lookups, parallel pass).
void BM_FfgBuildCsr(benchmark::State& state) {
  const auto bench = kernels::make("pnpoly");
  const auto ds = core::Runner::run_exhaustive(*bench, 0);
  (void)bench->space().compiled();  // compile outside the timed region
  for (auto _ : state) {
    const analysis::FitnessFlowGraph graph(bench->space(), ds);
    benchmark::DoNotOptimize(graph.graph().num_edges());
  }
}
BENCHMARK(BM_FfgBuildCsr);

void BM_GbdtFit(benchmark::State& state) {
  common::Rng rng(5);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ml::Matrix x(n, 6);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 6; ++c) x(i, c) = rng.uniform(0.0, 8.0);
    y[i] = std::exp(0.3 * x(i, 0) + 0.1 * x(i, 1));
  }
  ml::GbdtParams params;
  params.num_trees = 50;
  for (auto _ : state) {
    ml::GbdtRegressor model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.predict(x.row(0)));
  }
}
BENCHMARK(BM_GbdtFit)->Arg(500)->Arg(2000);

/// BAT-shaped data: six discrete parameters of 2 to 37 levels (the
/// largest BAT parameter, hotspot's block_size_x, has 37) and a
/// run-time-like target with an interaction and 2% noise.
std::pair<ml::Matrix, std::vector<double>> discrete_dataset(std::size_t n) {
  common::Rng rng(5);
  const std::int64_t levels[6] = {2, 4, 8, 16, 32, 37};
  ml::Matrix x(n, 6);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 6; ++c) {
      x(i, c) = static_cast<double>(16 * rng.uniform_int(1, levels[c]));
    }
    y[i] = std::exp(0.01 * x(i, 5) + 0.002 * x(i, 2) * x(i, 3)) *
           rng.uniform(0.98, 1.02);
  }
  return {std::move(x), std::move(y)};
}

void BM_GbdtFitDiscrete(benchmark::State& state) {
  const auto [x, y] = discrete_dataset(5000);
  ml::GbdtParams params;
  params.num_trees = 50;
  for (auto _ : state) {
    ml::GbdtRegressor model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.predict(x.row(0)));
  }
}
BENCHMARK(BM_GbdtFitDiscrete)->Unit(benchmark::kMillisecond)->UseRealTime();

/// predict_all over 5000 rows with table8's 180 trees: the call
/// permutation importance makes once per shuffled column.
void BM_GbdtPredictAll(benchmark::State& state) {
  const auto [x, y] = discrete_dataset(5000);
  ml::GbdtParams params;
  params.num_trees = 180;
  ml::GbdtRegressor model(params);
  model.fit(x, y);
  for (auto _ : state) {
    const auto predictions = model.predict_all(x);
    benchmark::DoNotOptimize(predictions.data());
  }
}
BENCHMARK(BM_GbdtPredictAll)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The surrogate tuner's screening step: as in the tuner, an 80-tree,
/// depth-5 GBDT fitted on 150 live gemm measurements scores a pool of
/// 400 random valid candidates with one predict_all call.
void BM_GbdtScorePool(benchmark::State& state) {
  const auto bench = kernels::make("gemm");
  const auto& compiled = bench->space().compiled();
  common::Rng rng(7);
  core::Config values;
  std::vector<double> row(compiled.num_params());
  const auto draw = [&] {
    compiled.decode_into(compiled.random_valid_index(rng), values);
    for (std::size_t p = 0; p < row.size(); ++p) {
      row[p] = static_cast<double>(values[p]);
    }
  };
  std::vector<std::vector<double>> observed;
  std::vector<double> times;
  while (observed.size() < 150) {
    draw();
    const double time = bench->evaluate(values, 0).objective();
    if (std::isfinite(time) && time > 0.0) {
      observed.push_back(row);
      times.push_back(time);
    }
  }
  ml::GbdtParams params;
  params.num_trees = 80;
  params.tree.max_depth = 5;
  ml::GbdtRegressor model(params);
  model.fit(ml::Matrix::from_rows(observed), times);

  std::vector<std::vector<double>> candidates;
  for (int i = 0; i < 400; ++i) {
    draw();
    candidates.push_back(row);
  }
  const auto pool = ml::Matrix::from_rows(candidates);
  for (auto _ : state) {
    const auto predicted = model.predict_all(pool);
    benchmark::DoNotOptimize(predicted.data());
  }
}
BENCHMARK(BM_GbdtScorePool)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_PageRank(benchmark::State& state) {
  // Random DAG-ish graph with n nodes, ~8 out-edges each.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(6);
  std::vector<std::vector<std::uint32_t>> edges(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (int e = 0; e < 8; ++e) {
      const auto v = static_cast<std::uint32_t>(rng.next_below(n));
      if (v != u) edges[u].push_back(v);
    }
  }
  const auto csr = analysis::CsrGraph::from_adjacency(edges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::pagerank(csr).front());
  }
}
BENCHMARK(BM_PageRank)->Arg(1000)->Arg(10000);

void BM_TunerStepLocalSearch(benchmark::State& state) {
  const auto bench = kernels::make("pnpoly");
  const auto& compiled = bench->space().compiled();
  core::NeighborScratch scratch;
  for (auto _ : state) {
    core::LiveBackend backend(*bench, 0);
    core::CachingEvaluator eval(backend, 64);
    common::Rng rng(7);
    try {
      const core::ConfigIndex current = compiled.random_valid_index(rng);
      double best = eval.evaluate_index(current);
      compiled.for_each_valid_neighbor_index(
          current, scratch, [&](core::ConfigIndex neighbor) {
            best = std::min(best, eval.evaluate_index(neighbor));
          });
      benchmark::DoNotOptimize(best);
    } catch (const core::BudgetExhausted&) {
    }
  }
}
BENCHMARK(BM_TunerStepLocalSearch);

void BM_TunerSession(benchmark::State& state, const char* tuner_name,
                     const char* kernel) {
  // One budget-500 session over a replayed exhaustive dataset, seeds
  // 1..10 in turn: the two costliest cells of a `tune grid` round, where
  // a converged population keeps re-proposing cached configurations and
  // tuner bookkeeping, not evaluation, sets the session's time.
  const auto bench = kernels::make(kernel);
  const auto ds = core::Runner::run_exhaustive(*bench, 0);
  core::ReplayBackend backend(bench->space(), ds);
  std::uint64_t session = 0;
  for (auto _ : state) {
    const auto tuner = tuners::make_tuner(tuner_name);
    const auto run =
        tuners::run_tuner(*tuner, backend, 500, 1 + session++ % 10);
    benchmark::DoNotOptimize(run.trace.data());
  }
}
BENCHMARK_CAPTURE(BM_TunerSession, de_nbody, "de", "nbody")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_TunerSession, genetic_pnpoly, "genetic", "pnpoly")
    ->Unit(benchmark::kMicrosecond);

void BM_BatchEvaluateLive(benchmark::State& state) {
  // The batched hot path: one generation evaluated serially by
  // LiveBackend on the calling thread (state.range(0) = batch size).
  const auto bench = kernels::make("gemm");
  common::Rng rng(8);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<core::ConfigIndex> indices;
  indices.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    indices.push_back(bench->space().random_valid_index(rng));
  }
  core::LiveBackend backend(*bench, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.evaluate_batch(indices).front().time_ms);
  }
}
BENCHMARK(BM_BatchEvaluateLive)->Arg(1)->Arg(64)->Arg(1024);

void BM_BatchEvaluateReplay(benchmark::State& state) {
  // Tabular replay: the same generation served from a dataset.
  const auto bench = kernels::make("pnpoly");
  const auto ds = core::Runner::run_exhaustive(*bench, 0);
  core::ReplayBackend backend(bench->space(), ds);
  common::Rng rng(9);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<core::ConfigIndex> indices;
  for (std::size_t i = 0; i < n; ++i) {
    indices.push_back(bench->space().random_valid_index(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.evaluate_batch(indices).front().time_ms);
  }
}
BENCHMARK(BM_BatchEvaluateReplay)->Arg(64)->Arg(1024);

// ------------------------------------------------------------- dataset io --
// The persistence data points (tools/ci.sh exports them as
// BENCH_io.json): cold-open cost of a 10k-row archive — full CSV parse
// vs mmap + O(1) header/footer decode — and the replay lookup cost of
// the Measurement table a ReplayBackend copies from its rows.

struct DatasetIoFixture {
  std::unique_ptr<core::Benchmark> bench;
  std::string csv_path;
  std::string bin_path;
  std::vector<core::ConfigIndex> lookups;  // indices covered by the rows
};

const DatasetIoFixture& dataset_io_fixture() {
  static const DatasetIoFixture fixture = [] {
    DatasetIoFixture f;
    f.bench = kernels::make("hotspot");
    const auto ds = core::Runner::run_sampled(*f.bench, 0, 10'000, 42);
    const auto dir =
        std::filesystem::temp_directory_path() / "bat_micro_datasets";
    std::filesystem::create_directories(dir);
    f.csv_path = (dir / "hotspot_10k.csv").string();
    f.bin_path = (dir / "hotspot_10k.bin").string();
    io::save_dataset(f.csv_path, ds, io::DatasetFormat::kCsv);
    io::save_dataset(f.bin_path, ds, io::DatasetFormat::kBinary);
    common::Rng rng(10);
    f.lookups.reserve(1024);
    for (std::size_t i = 0; i < 1024; ++i) {
      f.lookups.push_back(ds.config_index(rng.next_below(ds.size())));
    }
    return f;
  }();
  return fixture;
}

// Cold open + first lookup, CSV: the full text parse is the price of
// admission before the first row can be read.
void BM_DatasetLoadCsv(benchmark::State& state) {
  const auto& fixture = dataset_io_fixture();
  for (auto _ : state) {
    const auto ds = io::load_dataset(fixture.csv_path);
    benchmark::DoNotOptimize(ds.time_ms(ds.size() - 1));
  }
}
BENCHMARK(BM_DatasetLoadCsv);

// Cold open + first lookup, binary: mmap + header/footer decode,
// independent of row count.
void BM_DatasetOpenBinary(benchmark::State& state) {
  const auto& fixture = dataset_io_fixture();
  for (auto _ : state) {
    const auto view = io::DatasetView::open(fixture.bin_path);
    benchmark::DoNotOptimize(view->time_ms(view->size() - 1));
  }
}
BENCHMARK(BM_DatasetOpenBinary);

// Replay lookups over a CSV-loaded Dataset (owned Measurement table).
void BM_ReplayLookupCsvLoaded(benchmark::State& state) {
  const auto& fixture = dataset_io_fixture();
  const auto ds = io::load_dataset(fixture.csv_path);
  core::ReplayBackend backend(fixture.bench->space(), ds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        backend.evaluate_batch(fixture.lookups).front().time_ms);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.lookups.size()));
}
BENCHMARK(BM_ReplayLookupCsvLoaded);

// ------------------------------------------------------- http wire layer --
// The per-request fixed costs of the network front-end: framing one
// POST /v1/sessions request out of raw bytes, and serializing a full
// SessionResult (150-entry trace, the default budget) back to JSON.
// Together they bound what the API adds on top of the service layer.

void BM_HttpParseRequest(benchmark::State& state) {
  const std::string body =
      R"({"kernel":"gemm","tuner":"local","budget":150,"seed":42})";
  const std::string raw =
      "POST /v1/sessions HTTP/1.1\r\n"
      "host: 127.0.0.1:8080\r\n"
      "content-type: application/json\r\n"
      "content-length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  net::HttpRequest request;
  for (auto _ : state) {
    const auto result = net::parse_request(raw, request);
    benchmark::DoNotOptimize(result.consumed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_HttpParseRequest);

void BM_SessionResultToJson(benchmark::State& state) {
  service::SessionResult result;
  result.status = service::SessionStatus::kCompleted;
  result.wall_ms = 12.5;
  result.run.trace.reserve(150);
  for (std::size_t i = 0; i < 150; ++i) {
    result.run.trace.push_back(
        {static_cast<core::ConfigIndex>(i * 977),
         10.0 + 0.001 * static_cast<double>(i)});
  }
  result.run.best = result.run.trace.front();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string body = service::to_json(result).dump();
    bytes = body.size();
    benchmark::DoNotOptimize(body.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SessionResultToJson);

// GET /v1/sessions/<id> of a finished tracked session with a 200-entry
// trace (the http benchmark workload's budget), through the route
// handler without sockets: the read the session registry serves most.
void BM_ApiGetFinishedSession(benchmark::State& state) {
  service::TuningService svc;
  api::ApiServer api(svc);  // never started
  service::SessionSpec spec;
  spec.kernel = "gemm";
  spec.tuner = "random";
  spec.budget = 200;
  net::HttpRequest request;
  request.method = "GET";
  request.target = "/v1/sessions/" + std::to_string(svc.submit_tracked(spec));
  svc.wait_idle();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto response = api.handle(request);
    bytes = response.body.size();
    benchmark::DoNotOptimize(response.body.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ApiGetFinishedSession);

}  // namespace

BENCHMARK_MAIN();
