// The suite's raison d'être (paper §I): comparing optimization
// algorithms from different tuners on the same benchmarks through one
// shared problem interface.
//
//   $ ./compare_tuners [benchmark] [budget] [repeats] [backend]
//
// Runs every built-in optimizer with the same budget on every paper GPU
// and reports the mean best time (and how far from the true optimum it
// landed, when the space is small enough to know the optimum).
//
// backend = auto | live | replay:
//   * live   — every evaluation goes through the gpusim model;
//   * replay — one Runner sweep per device builds a tabular dataset and
//              all tuner evaluations become free lookups (only sound
//              when the sweep is exhaustive);
//   * auto   — replay when the space is exhaustively enumerable,
//              live otherwise (default).
//
// The whole grid runs as concurrent sessions of one
// service::TuningService: every (tuner, device, repeat) is a session,
// and sessions on the same device share one workload (benchmark +
// backend) while each evaluates on its own.
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench/bench_util.hpp"
#include "common/statistics.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"
#include "service/tuning_service.hpp"

int main(int argc, char** argv) {
  using namespace bat;
  const std::string benchmark_name = argc > 1 ? argv[1] : "gemm";
  const std::size_t budget = argc > 2 ? std::stoul(argv[2]) : 150;
  const std::size_t repeats = argc > 3 ? std::stoul(argv[3]) : 5;
  const std::string backend_mode = argc > 4 ? argv[4] : "auto";

  const auto benchmark = kernels::make(benchmark_name);
  const bool exhaustive =
      benchmark->space().cardinality() <= core::kExhaustiveLimit;
  const bool replay =
      backend_mode == "replay" || (backend_mode == "auto" && exhaustive);
  if (replay && !exhaustive) {
    std::fprintf(stderr,
                 "replay needs an exhaustively enumerable space; '%s' has "
                 "%llu configurations\n",
                 benchmark->name().c_str(),
                 static_cast<unsigned long long>(
                     benchmark->space().cardinality()));
    return 1;
  }
  std::printf("comparing %zu tuners on '%s' (budget %zu, %zu repeats, %s "
              "backend)\n",
              tuners::tuner_names().size(), benchmark->name().c_str(),
              budget, repeats, replay ? "replay" : "live");

  const auto t0 = std::chrono::steady_clock::now();

  service::TuningService svc;

  // One sweep per device: gives the true optimum where exhaustive, and
  // registered with the service it doubles as the shared replay table
  // so tuner evaluations are free lookups.
  std::vector<double> optimum(benchmark->device_count(), 0.0);
  if (exhaustive) {
    for (core::DeviceIndex d = 0; d < benchmark->device_count(); ++d) {
      auto ds = core::Runner::run_exhaustive(*benchmark, d);
      optimum[d] = ds.best_time();
      if (replay) svc.register_dataset(benchmark_name, d, std::move(ds));
    }
  }

  // Every (tuner, device, repeat) run is an independent session; the
  // service's worker pool executes them concurrently.
  const auto names = tuners::tuner_names();
  const std::size_t devices = benchmark->device_count();
  std::vector<service::SessionSpec> specs;
  specs.reserve(names.size() * devices * repeats);
  for (std::size_t t = 0; t < names.size(); ++t) {
    for (core::DeviceIndex d = 0; d < devices; ++d) {
      for (std::size_t r = 0; r < repeats; ++r) {
        service::SessionSpec spec;
        spec.kernel = benchmark_name;
        spec.tuner = names[t];
        spec.device = d;
        spec.budget = budget;
        spec.seed = 1000 + r;
        spec.backend = replay ? "replay" : "live";
        specs.push_back(std::move(spec));
      }
    }
  }
  const auto results = svc.run_all(specs);
  for (const auto& r : results) {
    // Fail loudly instead of rendering a failed session as "-".
    if (r.status != service::SessionStatus::kCompleted) {
      throw std::runtime_error("compare_tuners: session " + r.spec.kernel +
                               "/" + r.spec.tuner + " " + to_string(r.status) +
                               (r.error.empty() ? "" : ": " + r.error));
    }
  }

  std::vector<std::string> header{"tuner"};
  for (core::DeviceIndex d = 0; d < devices; ++d) {
    header.push_back(benchmark->device_name(d));
  }
  common::AsciiTable table(header);

  for (std::size_t t = 0; t < names.size(); ++t) {
    std::vector<std::string> row{names[t]};
    for (core::DeviceIndex d = 0; d < devices; ++d) {
      std::vector<double> bests;
      for (std::size_t r = 0; r < repeats; ++r) {
        const auto& result = results[(t * devices + d) * repeats + r];
        if (result.run.best) bests.push_back(result.run.best->objective);
      }
      if (bests.empty()) {
        row.push_back("-");
        continue;
      }
      const double mean_best = common::mean(bests);
      std::string cell = common::format_double(mean_best, 3) + "ms";
      if (exhaustive) {
        cell += " (" +
                common::format_double(100.0 * optimum[d] / mean_best, 1) +
                "%)";
      }
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.to_string().c_str(), stdout);
  if (exhaustive) {
    std::printf("(%% = achieved fraction of the true optimum)\n");
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  std::printf("total wall-clock: %.2fs\n", elapsed);
  return 0;
}
