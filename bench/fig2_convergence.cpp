// Fig 2: convergence towards the optimum with random search (median of
// 100 repeats, reported at symlog-style checkpoints), plus the same
// experiment driven by the real tuners through the tuning-service layer
// in replay mode — the paper's tabular-benchmark mode, where one Runner
// sweep makes every tuner comparison free. All (tuner, device, repeat)
// runs execute as concurrent TuningService sessions sharing the
// registered datasets.
#include <cstdio>
#include <stdexcept>

#include "analysis/convergence.hpp"
#include "bench/bench_util.hpp"
#include "common/statistics.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "service/tuning_service.hpp"

namespace {

/// Evaluations needed to reach 90% of `best`, or budget + 1 ("never
/// reached" must exceed the budget even when the run stalled early).
std::size_t evals_to_90(const std::vector<double>& best_so_far, double best,
                        std::size_t budget) {
  for (std::size_t k = 0; k < best_so_far.size(); ++k) {
    if (best / best_so_far[k] >= 0.90) return k + 1;
  }
  return budget + 1;
}

}  // namespace

int main() {
  using namespace bat;
  const std::vector<std::size_t> checkpoints{1,  2,   5,   10,  20,  50,
                                             100, 200, 500, 1000, 2000};
  constexpr std::size_t kTunerBudget = 2000;
  constexpr std::size_t kTunerRepeats = 15;
  const std::vector<std::string> replay_tuners{"random", "genetic", "pso",
                                               "de"};

  for (const auto& name : kernels::paper_benchmark_names()) {
    bench::print_header(
        "Fig 2: convergence towards optimum (random search) — " + name);
    std::vector<std::string> header{"device"};
    for (const auto c : checkpoints) header.push_back("@" + std::to_string(c));
    header.push_back("evals->90%");
    common::AsciiTable table(header);

    const auto bench_obj = kernels::make(name);
    for (core::DeviceIndex d = 0; d < bench_obj->device_count(); ++d) {
      const auto& ds = bench::dataset(name, d);
      const auto curve =
          analysis::random_search_convergence(ds, 2000, 100, 0xF16);
      std::vector<std::string> row{curve.device};
      for (const auto c : checkpoints) {
        if (c <= curve.median_relative_perf.size()) {
          row.push_back(
              common::format_double(curve.median_relative_perf[c - 1], 3));
        } else {
          row.push_back("-");
        }
      }
      row.push_back(curve.evals_to_90 > curve.median_relative_perf.size()
                        ? ">" + std::to_string(curve.median_relative_perf.size())
                        : std::to_string(curve.evals_to_90));
      table.add_row(std::move(row));
    }
    std::fputs(table.to_string().c_str(), stdout);

    // Companion experiment: evaluations-to-90% for the real tuners,
    // replayed from the archived dataset (free after the sweep above).
    // Only sound where the sweep covered the whole space. One service,
    // one session per (device, tuner, repeat); the per-device datasets
    // are registered so every session replays the shared table.
    if (bench_obj->space().cardinality() <= core::kExhaustiveLimit) {
      service::TuningService svc;
      std::vector<service::SessionSpec> specs;
      for (core::DeviceIndex d = 0; d < bench_obj->device_count(); ++d) {
        svc.register_dataset(name, d, bench::dataset(name, d));
        for (const auto& t : replay_tuners) {
          for (std::size_t r = 0; r < kTunerRepeats; ++r) {
            service::SessionSpec spec;
            spec.kernel = name;
            spec.tuner = t;
            spec.device = d;
            spec.budget = kTunerBudget;
            spec.seed = 0xF16 + r;
            spec.backend = "replay";
            specs.push_back(std::move(spec));
          }
        }
      }
      const auto results = svc.run_all(specs);
      for (const auto& r : results) {
        // Fail loudly: a failed session folded into the table would be
        // indistinguishable from a genuinely non-converging tuner.
        if (r.status != service::SessionStatus::kCompleted) {
          throw std::runtime_error("fig2: session " + r.spec.kernel + "/" +
                                   r.spec.tuner + " " + to_string(r.status) +
                                   (r.error.empty() ? "" : ": " + r.error));
        }
      }

      std::vector<std::string> theader{"device"};
      for (const auto& t : replay_tuners) theader.push_back(t + "->90%");
      common::AsciiTable ttable(theader);
      std::size_t cursor = 0;
      for (core::DeviceIndex d = 0; d < bench_obj->device_count(); ++d) {
        const double best = bench::dataset(name, d).best_time();
        std::vector<std::string> row{bench::dataset(name, d).device_name()};
        for (std::size_t t = 0; t < replay_tuners.size(); ++t) {
          std::vector<double> evals;
          for (std::size_t r = 0; r < kTunerRepeats; ++r) {
            const auto& run = results[cursor++].run;
            evals.push_back(static_cast<double>(
                evals_to_90(run.best_so_far, best, kTunerBudget)));
          }
          const double med = common::median(evals);
          row.push_back(med > static_cast<double>(kTunerBudget)
                            ? ">" + std::to_string(kTunerBudget)
                            : std::to_string(static_cast<std::size_t>(med)));
        }
        ttable.add_row(std::move(row));
      }
      std::printf("tuners through TuningService replay sessions "
                  "(median evals to 90%%):\n");
      std::fputs(ttable.to_string().c_str(), stdout);
    }
  }
  return 0;
}
