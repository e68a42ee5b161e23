// Paper-shape regression tests: the qualitative findings of the paper's
// evaluation (Figs 1-6, §VI) must hold on the simulated suite. These
// expectations are the calibration anchors the model constants in
// src/kernels/models/ are tuned against.
#include <gtest/gtest.h>

#include "analysis/convergence.hpp"
#include "analysis/importance.hpp"
#include "analysis/portability.hpp"
#include "analysis/speedup.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"

namespace bat::analysis {
namespace {

core::Dataset dataset_for(const std::string& name, core::DeviceIndex d,
                          std::size_t samples = 6000) {
  const auto bench = kernels::make(name);
  return core::Runner::run_default(*bench, d, core::kSweepSeed, samples);
}

TEST(PaperShapes, Fig1HotspotHasAboveTenXCluster) {
  // Fig 1b / Fig 4: Hotspot's best cluster sits >10x above the median.
  for (const core::DeviceIndex d : {0u, 2u}) {
    const auto ds = dataset_for("hotspot", d, 10'000);
    const auto entry = max_speedup_over_median(ds);
    EXPECT_GT(entry.speedup, 8.0) << "device " << d;
    EXPECT_LT(entry.speedup, 16.0) << "device " << d;
  }
}

TEST(PaperShapes, Fig1NbodyHasDistinctPoorCluster) {
  // Fig 1f: a dense, well-separated cluster of very poor configurations
  // (AoS + scalar loads): >15% of valid configs sit beyond 1.5x median,
  // and the [1.3, 1.5] band is nearly empty (the gap before the cluster).
  const auto ds = dataset_for("nbody", 0);
  const double median = ds.median_time();
  std::size_t beyond_15 = 0, band = 0, total = 0;
  for (std::size_t r = 0; r < ds.size(); ++r) {
    if (!ds.row_ok(r)) continue;
    ++total;
    const double t = ds.time_ms(r);
    if (t > 1.5 * median) ++beyond_15;
    if (t > 1.3 * median && t <= 1.5 * median) ++band;
  }
  EXPECT_GT(static_cast<double>(beyond_15) / total, 0.15);
  EXPECT_LT(static_cast<double>(band) / total, 0.5 *
            static_cast<double>(beyond_15) / total);
}

TEST(PaperShapes, Fig4MostSpeedupsModerateHotspotExtreme) {
  // §VI-D: most benchmarks 1.5-3.06x; Hotspot 11.12-11.97x.
  const std::vector<std::string> moderate{"gemm", "nbody", "pnpoly",
                                          "convolution", "expdist",
                                          "dedisp"};
  for (const auto& name : moderate) {
    const auto entry = max_speedup_over_median(dataset_for(name, 2));
    EXPECT_GT(entry.speedup, 1.15) << name;
    EXPECT_LT(entry.speedup, 7.0) << name;
  }
  const auto hotspot = max_speedup_over_median(dataset_for("hotspot", 2, 10'000));
  EXPECT_GT(hotspot.speedup, 8.0);
}

TEST(PaperShapes, Fig2ConvergenceOrdering) {
  // Fig 2: Expdist/Nbody reach 90% in ~10 evaluations; GEMM needs
  // hundreds; Pnpoly sits in between.
  const auto fast_nbody = random_search_convergence(dataset_for("nbody", 2),
                                                    2000, 60, 1);
  const auto fast_expdist =
      random_search_convergence(dataset_for("expdist", 2), 2000, 60, 1);
  const auto mid_pnpoly =
      random_search_convergence(dataset_for("pnpoly", 2), 2000, 60, 1);
  const auto slow_gemm = random_search_convergence(dataset_for("gemm", 2),
                                                   5000, 60, 1);
  EXPECT_LE(fast_nbody.evals_to_90, 40u);
  EXPECT_LE(fast_expdist.evals_to_90, 40u);
  EXPECT_GT(slow_gemm.evals_to_90, mid_pnpoly.evals_to_90);
  EXPECT_GT(slow_gemm.evals_to_90, fast_nbody.evals_to_90);
  EXPECT_GE(slow_gemm.evals_to_90, 40u);
}

TEST(PaperShapes, Fig5PnpolyWorstCaseTransfer) {
  // §VI-E: transferring a 3090 Pnpoly optimum to Turing yields 58.5-67.1%
  // of optimal; 3060<->3090 transfers are near-perfect.
  const auto bench = kernels::make("pnpoly");
  std::vector<core::Dataset> datasets;
  for (core::DeviceIndex d = 0; d < 4; ++d) {
    datasets.push_back(core::Runner::run_exhaustive(*bench, d));
  }
  const auto matrix = portability_matrix(*bench, datasets);
  const auto& m = matrix.relative;
  // 3090 (row 2) -> 2080Ti (col 0) and Titan (col 3): poor.
  EXPECT_LT(m[2][0], 0.80);
  EXPECT_GT(m[2][0], 0.45);
  EXPECT_LT(m[2][3], 0.80);
  // 3060 (row 1) <-> 3090: same family, near-perfect.
  EXPECT_GT(m[1][2], 0.95);
  EXPECT_GT(m[2][1], 0.95);
  // Within-Turing transfers are also strong.
  EXPECT_GT(m[0][3], 0.90);
}

TEST(PaperShapes, Fig5ConvolutionAmpereToTuringDrops) {
  // §VI-E: Convolution's 3060 optimum transfers at ~73-75% to Turing.
  const auto bench = kernels::make("convolution");
  std::vector<core::Dataset> datasets;
  for (core::DeviceIndex d = 0; d < 4; ++d) {
    datasets.push_back(core::Runner::run_exhaustive(*bench, d));
  }
  const auto matrix = portability_matrix(*bench, datasets);
  EXPECT_LT(matrix.relative[1][0], 0.92);  // 3060 -> 2080Ti
  EXPECT_GT(matrix.relative[1][0], 0.50);
  EXPECT_GT(matrix.relative[1][2], 0.95);  // 3060 -> 3090
}

TEST(PaperShapes, Fig6ImportanceConsistentAcrossGpus) {
  // §VI-F: parameter importance ranking is consistent across GPUs. Check
  // that pnpoly's top-2 parameters on Turing and Ampere overlap.
  ImportanceOptions options;
  options.gbdt.num_trees = 150;
  const auto turing = feature_importance(dataset_for("pnpoly", 0), options);
  const auto ampere = feature_importance(dataset_for("pnpoly", 2), options);
  const auto top_of = [](const ImportanceReport& r) {
    std::size_t best = 0;
    for (std::size_t p = 1; p < r.importance.size(); ++p) {
      if (r.importance[p] > r.importance[best]) best = p;
    }
    return best;
  };
  EXPECT_EQ(top_of(turing), top_of(ampere));
}

TEST(PaperShapes, Fig6R2IsHigh) {
  // §VI-F: CatBoost reaches R^2 >= 0.992 (except Convolution). Our GBDT
  // should land in a comparable band on the deterministic simulator.
  ImportanceOptions options;
  options.gbdt.num_trees = 250;
  const auto gemm = feature_importance(dataset_for("gemm", 2, 4000), options);
  EXPECT_GT(gemm.r2, 0.93);
  const auto nbody = feature_importance(dataset_for("nbody", 0), options);
  EXPECT_GT(nbody.r2, 0.95);
}

TEST(PaperShapes, Fig6PfiSumExceedsOneSomewhere) {
  // §VI-H: PFI sums far above 1 reveal parameter interactions (the
  // argument for global optimization).
  ImportanceOptions options;
  options.gbdt.num_trees = 150;
  const auto report = feature_importance(dataset_for("nbody", 2), options);
  EXPECT_GT(report.importance_sum, 1.0);
}

}  // namespace
}  // namespace bat::analysis
