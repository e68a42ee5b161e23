#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "ml/gbdt.hpp"
#include "ml/matrix.hpp"
#include "ml/pfi.hpp"
#include "ml/tree.hpp"

namespace bat::ml {
namespace {

/// y = 3*x0 + step(x1) + noise; x2 is pure noise.
std::pair<Matrix, std::vector<double>> synthetic_data(std::size_t n,
                                                      std::uint64_t seed) {
  common::Rng rng(seed);
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(0.0, 4.0);
    x(i, 1) = static_cast<double>(rng.uniform_int(0, 3));
    x(i, 2) = rng.uniform(-1.0, 1.0);
    y[i] = std::exp(0.5 * x(i, 0) + (x(i, 1) >= 2.0 ? 1.0 : 0.0) +
                    rng.normal(0.0, 0.01));
  }
  return {std::move(x), std::move(y)};
}

/// The sort-based split finder RegressionTree's histogram finder
/// replaced, kept as its reference: at every node, sort the (value,
/// target) pairs of each feature and scan their prefix sums.
class SortScanTree {
 public:
  void fit(const Matrix& x, std::span<const double> y,
           std::span<const std::size_t> sample_rows,
           const TreeParams& params) {
    nodes_.clear();
    std::vector<std::size_t> rows(sample_rows.begin(), sample_rows.end());
    build(x, y, rows, 0, rows.size(), 0, params);
  }

  [[nodiscard]] double predict(std::span<const double> features) const {
    std::size_t idx = 0;
    while (nodes_[idx].feature >= 0) {
      const auto& node = nodes_[idx];
      idx = static_cast<std::size_t>(
          features[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right);
    }
    return nodes_[idx].value;
  }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  [[nodiscard]] std::vector<double> split_gains(std::size_t num_features) const {
    std::vector<double> gains(num_features, 0.0);
    for (const auto& node : nodes_) {
      if (node.feature >= 0) {
        gains[static_cast<std::size_t>(node.feature)] += node.gain;
      }
    }
    return gains;
  }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    double gain = 0.0;
    int left = -1;
    int right = -1;
  };

  int build(const Matrix& x, std::span<const double> y,
            std::vector<std::size_t>& rows, std::size_t begin,
            std::size_t end, int depth, const TreeParams& params) {
    const std::size_t n = end - begin;
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) sum += y[rows[i]];
    const int node_index = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    nodes_[node_index].value = sum / static_cast<double>(n);
    if (depth >= params.max_depth || n < 2 * params.min_samples_leaf) {
      return node_index;
    }

    int best_feature = -1;
    double best_threshold = 0.0;
    double best_gain = 0.0;
    std::vector<std::pair<double, double>> vals;  // (feature value, target)
    for (std::size_t f = 0; f < x.cols(); ++f) {
      vals.clear();
      for (std::size_t i = begin; i < end; ++i) {
        vals.emplace_back(x(rows[i], f), y[rows[i]]);
      }
      std::sort(vals.begin(), vals.end());
      if (vals.front().first == vals.back().first) continue;  // constant
      double left_sum = 0.0;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        left_sum += vals[i].second;
        if (vals[i].first == vals[i + 1].first) continue;  // not a boundary
        const std::size_t nl = i + 1;
        const std::size_t nr = n - nl;
        if (nl < params.min_samples_leaf || nr < params.min_samples_leaf) {
          continue;
        }
        const double right_sum = sum - left_sum;
        const double gain = left_sum * left_sum / static_cast<double>(nl) +
                            right_sum * right_sum / static_cast<double>(nr) -
                            sum * sum / static_cast<double>(n);
        if (gain > best_gain) {
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (vals[i].first + vals[i + 1].first);
          best_gain = gain;
        }
      }
    }
    if (best_feature < 0 || best_gain <= params.min_gain) return node_index;

    const auto mid_it = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(begin),
        rows.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t r) {
          return x(r, static_cast<std::size_t>(best_feature)) <=
                 best_threshold;
        });
    const auto mid = static_cast<std::size_t>(mid_it - rows.begin());
    if (mid == begin || mid == end) return node_index;  // degenerate

    nodes_[node_index].feature = best_feature;
    nodes_[node_index].threshold = best_threshold;
    nodes_[node_index].gain = best_gain;
    const int left = build(x, y, rows, begin, mid, depth + 1, params);
    const int right = build(x, y, rows, mid, end, depth + 1, params);
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }

  std::vector<Node> nodes_;
};

std::vector<std::size_t> all_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

/// Fits the histogram tree and the sort-scan reference on the same input
/// and asserts they are the same tree: node count, split gains, and bit
/// for bit the prediction on every row of x and with each feature set to
/// every midpoint between consecutive distinct values of its column.
/// Callers pass integer or dyadic targets, so every summation order is
/// exact and the two finders see identical gains.
void expect_same_tree(const Matrix& x, std::span<const double> y,
                      std::span<const std::size_t> sample_rows,
                      const TreeParams& params) {
  RegressionTree tree;
  tree.fit(x, y, sample_rows, params);
  SortScanTree reference;
  reference.fit(x, y, sample_rows, params);
  ASSERT_EQ(tree.node_count(), reference.node_count());
  EXPECT_EQ(tree.split_gains(x.cols()), reference.split_gains(x.cols()));

  std::size_t probes = 0;
  std::size_t mismatches = 0;
  const auto probe = [&](std::span<const double> features) {
    ++probes;
    if (tree.predict(features) != reference.predict(features)) ++mismatches;
  };
  for (std::size_t r = 0; r < x.rows(); ++r) probe(x.row(r));
  std::vector<double> features(x.cols());
  for (std::size_t f = 0; f < x.cols(); ++f) {
    std::vector<double> distinct(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) distinct[r] = x(r, f);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (std::size_t i = 0; i + 1 < distinct.size(); ++i) {
      const double midpoint = 0.5 * (distinct[i] + distinct[i + 1]);
      for (std::size_t r = 0; r < x.rows(); ++r) {
        std::copy(x.row(r).begin(), x.row(r).end(), features.begin());
        features[f] = midpoint;
        probe(features);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << probes << " probes";
}

/// BAT-shaped data: six discrete features of 2 to 37 levels (hotspot's
/// block_size_x has 37) with uneven level values, and an integer target
/// with an interaction and integer noise.
std::pair<Matrix, std::vector<double>> discrete_data(std::size_t n,
                                                     std::uint64_t seed) {
  const std::vector<int> levels{2, 4, 7, 16, 33, 37};
  common::Rng rng(seed);
  Matrix x(n, levels.size());
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < levels.size(); ++f) {
      const auto level = rng.uniform_int(0, levels[f] - 1);
      x(i, f) = static_cast<double>(level * level + 3 * level);
    }
    y[i] = 40.0 * x(i, 0) + x(i, 1) * x(i, 2) + (x(i, 4) > 200.0 ? 300.0 : 0.0) +
           static_cast<double>(rng.uniform_int(0, 9));
  }
  return {std::move(x), std::move(y)};
}

TEST(Matrix, FromRowsAndAccess) {
  const auto m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.row(0)[1], 2.0);
}

TEST(Matrix, PermutedColumnOnlyTouchesThatColumn) {
  const auto m = Matrix::from_rows({{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}});
  const auto p = m.with_permuted_column(1, {2, 0, 1});
  EXPECT_DOUBLE_EQ(p(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 10.0);
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);  // column 0 untouched
}

TEST(TrainTestSplit, SizesAndDeterminism) {
  const auto [x, y] = synthetic_data(100, 1);
  const auto s1 = train_test_split(x, y, 0.25, 7);
  const auto s2 = train_test_split(x, y, 0.25, 7);
  EXPECT_EQ(s1.x_train.rows(), 75u);
  EXPECT_EQ(s1.x_test.rows(), 25u);
  EXPECT_EQ(s1.y_test, s2.y_test);
  const auto s3 = train_test_split(x, y, 0.25, 8);
  EXPECT_NE(s1.y_test, s3.y_test);
}

TEST(FeatureBins, FlatBinsAscendPerFeature) {
  const auto x = Matrix::from_rows({{3.0, 1.0}, {1.0, 1.0}, {2.0, 5.0}});
  const FeatureBins bins(x);
  EXPECT_EQ(bins.rows(), 3u);
  EXPECT_EQ(bins.num_bins(), 5u);
  EXPECT_EQ(bins.first_bin(0), 0u);
  EXPECT_EQ(bins.first_bin(1), 3u);
  EXPECT_EQ(bins.first_bin(2), 5u);
  const std::vector<double> values{1.0, 2.0, 3.0, 1.0, 5.0};
  for (std::size_t b = 0; b < bins.num_bins(); ++b) {
    EXPECT_EQ(bins.value(b), values[b]);
  }
  EXPECT_EQ(std::vector<std::uint32_t>(bins.row(0).begin(), bins.row(0).end()),
            (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(std::vector<std::uint32_t>(bins.row(2).begin(), bins.row(2).end()),
            (std::vector<std::uint32_t>{1, 4}));
}

TEST(RegressionTree, FitsAStepFunctionExactly) {
  Matrix x(100, 1);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 50 ? 1.0 : 5.0;
  }
  std::vector<std::size_t> rows(100);
  for (std::size_t i = 0; i < 100; ++i) rows[i] = i;
  RegressionTree tree;
  tree.fit(x, y, rows, TreeParams{});
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{10.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{80.0}), 5.0);
}

TEST(RegressionTree, RespectsMinSamplesLeaf) {
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = static_cast<double>(i);
  }
  std::vector<std::size_t> rows(10);
  for (std::size_t i = 0; i < 10; ++i) rows[i] = i;
  TreeParams params;
  params.min_samples_leaf = 5;
  RegressionTree tree;
  tree.fit(x, y, rows, params);
  // Only one split is possible (5|5).
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(RegressionTree, MatchesSortScanOnDiscreteData) {
  TreeParams deep;
  deep.max_depth = 10;
  deep.min_samples_leaf = 1;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto [x, y] = discrete_data(500, seed);
    // A GBDT-style row sample that also drops one middle level of
    // feature 3, so its bin is empty from the root down; deeper nodes
    // see few rows and leave many bins of the 33- and 37-level
    // features empty between non-empty ones.
    common::Rng rng(seed + 100);
    std::vector<std::size_t> sample;
    for (const std::size_t r : rng.sample_indices(x.rows(), 425)) {
      if (x(r, 3) != 28.0) sample.push_back(r);
    }
    expect_same_tree(x, y, sample, TreeParams{});
    expect_same_tree(x, y, sample, deep);
    expect_same_tree(x, y, all_rows(x.rows()), deep);
  }
}

TEST(RegressionTree, MatchesSortScanOnContinuousData) {
  for (const std::uint64_t seed : {2u, 3u}) {
    const auto [x, y] = synthetic_data(400, seed);
    // log(y) rounded to a multiple of 2^-8: dyadic, so sums are exact.
    std::vector<double> target(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
      target[i] = std::ldexp(std::round(std::ldexp(std::log(y[i]), 8)), -8);
    }
    expect_same_tree(x, target, all_rows(x.rows()), TreeParams{});
  }
}

TEST(RegressionTree, MatchesSortScanWithConstantColumnOrTarget) {
  auto [x, y] = discrete_data(300, 4);
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 2) = 7.0;
  expect_same_tree(x, y, all_rows(x.rows()), TreeParams{});

  const std::vector<double> flat(x.rows(), 3.0);
  expect_same_tree(x, flat, all_rows(x.rows()), TreeParams{});
  RegressionTree tree;
  tree.fit(x, flat, all_rows(x.rows()), TreeParams{});
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(RegressionTree, MatchesSortScanAtMinSamplesLeafBoundary) {
  for (const std::size_t leaf : {1u, 2u, 5u, 7u}) {
    for (const std::size_t n : {2 * leaf - 1, 2 * leaf, 2 * leaf + 1}) {
      // Distinct values, then pairs of equal values, so boundaries fall
      // on both sides of min_samples_leaf.
      for (const std::size_t run : {1u, 2u}) {
        Matrix x(n, 1);
        std::vector<double> y(n);
        for (std::size_t i = 0; i < n; ++i) {
          x(i, 0) = static_cast<double>(i / run);
          y[i] = static_cast<double>(i * i);
        }
        TreeParams params;
        params.min_samples_leaf = leaf;
        expect_same_tree(x, y, all_rows(n), params);
      }
    }
  }
}

TEST(RegressionTree, MatchesSortScanOnAdjacentDoubles) {
  // The midpoint of two adjacent doubles rounds to one of them: to the
  // lower value from 1.0, a clean split, and to the upper one from
  // nextafter(1.0), which sends every row left, so that node stays a
  // leaf.
  for (const double low : {1.0, std::nextafter(1.0, 2.0)}) {
    const double high = std::nextafter(low, 2.0);
    Matrix x(40, 2);
    std::vector<double> y(40);
    for (std::size_t i = 0; i < 40; ++i) {
      x(i, 0) = i % 2 == 0 ? low : high;
      x(i, 1) = static_cast<double>(i % 5);
      y[i] = (i % 2 == 0 ? 0.0 : 16.0) + static_cast<double>(i % 5);
    }
    expect_same_tree(x, y, all_rows(40), TreeParams{});
    RegressionTree tree;
    tree.fit(x, y, all_rows(40), TreeParams{});
    if (low == 1.0) {
      EXPECT_GT(tree.node_count(), 1u);
    } else {
      EXPECT_EQ(tree.node_count(), 1u);
    }
  }
}

TEST(RegressionTree, SplitGainsConcentrateOnInformativeFeature) {
  const auto [x, y] = synthetic_data(400, 2);
  std::vector<double> logy(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) logy[i] = std::log(y[i]);
  std::vector<std::size_t> rows(x.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  RegressionTree tree;
  tree.fit(x, logy, rows, TreeParams{});
  const auto gains = tree.split_gains(3);
  EXPECT_GT(gains[0], gains[2]);
}

TEST(Gbdt, HighR2OnSmoothTarget) {
  const auto [x, y] = synthetic_data(600, 3);
  const auto split = train_test_split(x, y, 0.25, 11);
  GbdtRegressor model;
  model.fit(split.x_train, split.y_train);
  const auto pred = model.predict_all(split.x_test);
  EXPECT_GT(r2_score(split.y_test, pred), 0.95);
}

TEST(Gbdt, MoreTreesDoNotHurtTrainFit) {
  const auto [x, y] = synthetic_data(300, 4);
  GbdtParams small;
  small.num_trees = 10;
  GbdtParams large;
  large.num_trees = 150;
  GbdtRegressor m_small(small), m_large(large);
  m_small.fit(x, y);
  m_large.fit(x, y);
  const auto p_small = m_small.predict_all(x);
  const auto p_large = m_large.predict_all(x);
  EXPECT_GE(r2_score(y, p_large), r2_score(y, p_small));
}

TEST(Gbdt, DeterministicGivenSeed) {
  const auto [x, y] = synthetic_data(200, 5);
  GbdtRegressor a, b;
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_DOUBLE_EQ(a.predict(x.row(0)), b.predict(x.row(0)));
}

TEST(Gbdt, PredictAllIsBitEqualToPredict) {
  // 700 rows span several prediction blocks and end in a partial one.
  const auto [x, y] = synthetic_data(700, 8);
  for (const bool log_target : {true, false}) {
    GbdtParams params;
    params.num_trees = 60;
    GbdtRegressor model(params);
    model.fit(x, y, log_target);
    const auto all = model.predict_all(x);
    ASSERT_EQ(all.size(), x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      EXPECT_EQ(all[i], model.predict(x.row(i))) << "row " << i;
    }
  }
}

TEST(Gbdt, PredictAllRequiresTrainedModel) {
  const GbdtRegressor model;
  EXPECT_THROW((void)model.predict_all(Matrix(0, 3)),
               common::ContractViolation);
}

TEST(Gbdt, LogTargetRequiresPositiveY) {
  Matrix x(4, 1);
  std::vector<double> y{1.0, 2.0, -1.0, 3.0};
  GbdtRegressor model;
  EXPECT_THROW(model.fit(x, y, /*log_target=*/true),
               common::ContractViolation);
  EXPECT_NO_THROW(model.fit(x, y, /*log_target=*/false));
}

TEST(Metrics, R2Properties) {
  const std::vector<double> truth{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r2_score(truth, truth), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_DOUBLE_EQ(r2_score(truth, mean_pred), 0.0);
  const std::vector<double> bad{4.0, 3.0, 2.0, 1.0};
  EXPECT_LT(r2_score(truth, bad), 0.0);
}

TEST(Metrics, Rmse) {
  const std::vector<double> truth{0.0, 0.0};
  const std::vector<double> pred{3.0, 4.0};
  EXPECT_DOUBLE_EQ(rmse(truth, pred), std::sqrt(12.5));
}

TEST(Pfi, InformativeFeaturesDominateNoise) {
  const auto [x, y] = synthetic_data(600, 6);
  GbdtRegressor model;
  model.fit(x, y);
  const auto result = permutation_importance(model, x, y);
  EXPECT_GT(result.baseline_r2, 0.9);
  EXPECT_GT(result.importance[0], 10.0 * result.importance[2] + 1e-9);
  EXPECT_GT(result.importance[1], result.importance[2]);
  EXPECT_GT(result.total(), 0.0);
}

TEST(Pfi, RequiresTrainedModel) {
  GbdtRegressor model;
  Matrix x(2, 1);
  std::vector<double> y{1.0, 2.0};
  EXPECT_THROW((void)permutation_importance(model, x, y),
               common::ContractViolation);
}

class GbdtDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(GbdtDepthSweep, DeeperTreesFitInteractionsBetter) {
  // y depends on XOR(x0 > .5, x1 > .5): needs depth >= 2.
  common::Rng rng(7);
  Matrix x(400, 2);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    const bool a = x(i, 0) > 0.5, b = x(i, 1) > 0.5;
    y[i] = (a ^ b) ? 4.0 : 1.0;
  }
  GbdtParams params;
  params.tree.max_depth = GetParam();
  GbdtRegressor model(params);
  model.fit(x, y);
  const double r2 = r2_score(y, model.predict_all(x));
  if (GetParam() >= 2) {
    EXPECT_GT(r2, 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, GbdtDepthSweep, ::testing::Values(2, 4, 6));

}  // namespace
}  // namespace bat::ml
