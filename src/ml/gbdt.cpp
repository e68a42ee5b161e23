#include "ml/gbdt.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"

namespace bat::ml {

namespace {

/// Calls fn(first, sums) for each block of up to kBlockRows entries of
/// `values`, the block's rows starting at `first`; blocks run in
/// parallel.
template <typename Fn>
void for_each_block(std::vector<double>& values, const Fn& fn) {
  constexpr std::size_t kBlockRows = RegressionTree::kBlockRows;
  const std::size_t blocks = (values.size() + kBlockRows - 1) / kBlockRows;
  common::parallel_for(0, blocks, [&](std::size_t block) {
    const std::size_t first = block * kBlockRows;
    fn(first, std::span<double>(values).subspan(
                  first, std::min(kBlockRows, values.size() - first)));
  });
}

}  // namespace

void GbdtRegressor::fit(const Matrix& x, std::span<const double> y,
                        bool log_target) {
  BAT_EXPECTS(x.rows() == y.size());
  BAT_EXPECTS(x.rows() >= 2);
  trees_.clear();
  log_target_ = log_target;

  std::vector<double> target(y.begin(), y.end());
  if (log_target_) {
    for (double& v : target) {
      BAT_EXPECTS(v > 0.0);
      v = std::log(v);
    }
  }

  double sum = 0.0;
  for (const double v : target) sum += v;
  base_prediction_ = sum / static_cast<double>(target.size());

  std::vector<double> residual(target.size());
  std::vector<double> current(target.size(), base_prediction_);
  common::Rng rng(params_.seed);

  const auto sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(x.rows()) * params_.subsample));

  const FeatureBins bins(x);
  trees_.reserve(params_.num_trees);
  for (std::size_t t = 0; t < params_.num_trees; ++t) {
    for (std::size_t i = 0; i < target.size(); ++i) {
      residual[i] = target[i] - current[i];
    }
    const auto rows = params_.subsample >= 1.0
                          ? [&] {
                              std::vector<std::size_t> all(x.rows());
                              for (std::size_t i = 0; i < all.size(); ++i)
                                all[i] = i;
                              return all;
                            }()
                          : rng.sample_indices(x.rows(), sample_size);
    RegressionTree tree;
    tree.fit(x, bins, residual, rows, params_.tree);

    // Update running predictions over ALL rows (parallel: trees are
    // sequential, but scoring a tree is embarrassingly parallel), with
    // the block walk predict_all uses.
    for_each_block(current, [&](std::size_t first, std::span<double> sums) {
      tree.add_block(x, first, params_.learning_rate, sums);
    });
    trees_.push_back(std::move(tree));
  }
}

double GbdtRegressor::predict(std::span<const double> features) const {
  BAT_EXPECTS(trained());
  double acc = base_prediction_;
  for (const auto& tree : trees_) {
    acc += params_.learning_rate * tree.predict(features);
  }
  return log_target_ ? std::exp(acc) : acc;
}

std::vector<double> GbdtRegressor::predict_all(const Matrix& x) const {
  BAT_EXPECTS(trained());
  // Tree-major over blocks of rows, so one tree's nodes stay in cache
  // across a block. Each row still adds its trees in order, so results
  // are bit-equal to predict().
  std::vector<double> out(x.rows(), base_prediction_);
  for_each_block(out, [&](std::size_t first, std::span<double> sums) {
    for (const auto& tree : trees_) {
      tree.add_block(x, first, params_.learning_rate, sums);
    }
    if (log_target_) {
      for (double& v : sums) v = std::exp(v);
    }
  });
  return out;
}

double r2_score(std::span<const double> truth,
                std::span<const double> predicted) {
  BAT_EXPECTS(truth.size() == predicted.size());
  BAT_EXPECTS(truth.size() >= 2);
  double mean = 0.0;
  for (const double v : truth) mean += v;
  mean /= static_cast<double>(truth.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
    ss_tot += (truth[i] - mean) * (truth[i] - mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double rmse(std::span<const double> truth, std::span<const double> predicted) {
  BAT_EXPECTS(truth.size() == predicted.size());
  BAT_EXPECTS(!truth.empty());
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    acc += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
  }
  return std::sqrt(acc / static_cast<double>(truth.size()));
}

}  // namespace bat::ml
