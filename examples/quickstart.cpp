// Quickstart: tune one kernel on one GPU with one optimizer.
//
//   $ ./quickstart [benchmark] [device] [tuner] [budget] [backend]
//   defaults:       gemm        RTX_3090 random  200      live
//
// Shows the three core concepts of the BAT problem interface:
//   1. a Benchmark (search space + constraints + evaluation),
//   2. a Tuner driving it through a budgeted CachingEvaluator over a
//      pluggable EvaluationBackend (live gpusim model, or tabular
//      replay of a Runner-built dataset — pass "replay" to see that
//      both paths produce the identical run),
//   3. the resulting trace/best configuration.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.hpp"
#include "core/backend.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"
#include "tuners/tuner.hpp"

int main(int argc, char** argv) {
  using namespace bat;
  const std::string benchmark_name = argc > 1 ? argv[1] : "gemm";
  const std::string device_name = argc > 2 ? argv[2] : "RTX_3090";
  const std::string tuner_name = argc > 3 ? argv[3] : "random";
  const std::size_t budget = argc > 4 ? std::stoul(argv[4]) : 200;
  const std::string backend_name = argc > 5 ? argv[5] : "live";

  const auto benchmark = kernels::make(benchmark_name);
  const auto device = benchmark->device_index(device_name);

  std::printf("benchmark : %s\n", benchmark->name().c_str());
  std::printf("device    : %s\n", device_name.c_str());
  std::printf("space     : %llu configurations (%llu constraint-valid)\n",
              static_cast<unsigned long long>(benchmark->space().cardinality()),
              static_cast<unsigned long long>(
                  benchmark->space().count_constrained()));

  core::Dataset dataset;  // keeps replay rows alive for the run
  std::unique_ptr<core::EvaluationBackend> backend;
  if (backend_name == "replay") {
    if (benchmark->space().cardinality() > core::kExhaustiveLimit) {
      std::fprintf(stderr,
                   "replay needs an exhaustively enumerable space; '%s' has "
                   "%llu configurations\n",
                   benchmark->name().c_str(),
                   static_cast<unsigned long long>(
                       benchmark->space().cardinality()));
      return 1;
    }
    dataset = core::Runner::run_exhaustive(*benchmark, device);
    backend =
        std::make_unique<core::ReplayBackend>(benchmark->space(), dataset);
  } else {
    backend = std::make_unique<core::LiveBackend>(*benchmark, device);
  }
  std::printf("backend   : %s\n", backend->name().c_str());

  auto tuner = tuners::make_tuner(tuner_name);
  const auto run = tuners::run_tuner(*tuner, *backend, budget, /*seed=*/42);

  std::printf("tuner     : %s, %zu evaluations\n", run.tuner.c_str(),
              run.trace.size());
  if (!run.best) {
    std::printf("no valid configuration found within the budget\n");
    return 1;
  }
  const auto best_config =
      benchmark->space().params().config_at(run.best->index);
  std::printf("best time : %.4f ms\n", run.best->objective);
  std::printf("best conf : %s\n",
              benchmark->space().params().describe(best_config).c_str());

  // Best-so-far curve at a few checkpoints.
  std::printf("progress  :");
  for (std::size_t k : {1u, 5u, 10u, 25u, 50u, 100u, 200u}) {
    if (k <= run.best_so_far.size()) {
      std::printf(" @%zu:%.3fms", k, run.best_so_far[k - 1]);
    }
  }
  std::printf("\n");
  return 0;
}
