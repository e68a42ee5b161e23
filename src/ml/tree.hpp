// CART regression tree with exact splits over the distinct values each
// feature takes.
//
// Splits are found with per-node histograms (Ke et al., "LightGBM",
// NeurIPS 2017) over FeatureBins, which give every distinct value of a
// feature column its own bin. BAT parameters take at most 37 values, so
// a node fills sum/count histograms in one pass over its rows and scans
// a few dozen bins per feature instead of sorting. Each bin boundary is
// a candidate the exact sort-based scan would also consider, with the
// same threshold, gain formula and tie rule, so trees match that scan's
// up to the order in which bin sums are added (tests/ml_test.cpp keeps
// the sort-based scan as the reference).
//
// Prediction walks a fixed number of levels with no data-dependent
// branch. Both children of a leaf point at the leaf itself, and a leaf
// reads feature 0, so depth() steps of
//   i = child[!(x[feature] <= threshold)]
// bring any row to its leaf, whichever way each compare goes (a NaN
// feature goes right, as `!(NaN <= t)` is 1). add_block() advances up to
// kBlockRows rows one level per pass (the frontier-in-waves traversal of
// Gomes and Teodoro, arXiv 1605.00930): the rows of a pass do not depend
// on each other, so their node loads overlap instead of waiting on
// mispredicted branches. tests/ml_test.cpp keeps a branching walk as the
// reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "ml/matrix.hpp"

namespace bat::ml {

struct TreeParams {
  int max_depth = 6;
  std::size_t min_samples_leaf = 5;
  double min_gain = 1e-12;
};

/// The feature columns of a matrix as bin codes, built once per GBDT fit.
/// Bins are numbered flat across features: feature f owns bins
/// [first_bin(f), first_bin(f + 1)), holding its distinct values in
/// ascending order.
class FeatureBins {
 public:
  explicit FeatureBins(const Matrix& x);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t num_bins() const noexcept {
    return values_.size();
  }
  [[nodiscard]] std::size_t first_bin(std::size_t feature) const {
    return first_bin_[feature];
  }
  /// Feature value of flat bin `bin`.
  [[nodiscard]] double value(std::size_t bin) const { return values_[bin]; }
  /// Flat bin of every feature of row `r`.
  [[nodiscard]] std::span<const std::uint32_t> row(std::size_t r) const {
    return {codes_.data() + r * cols_, cols_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> values_;
  std::vector<std::size_t> first_bin_;  // cols_ + 1 entries
  std::vector<std::uint32_t> codes_;    // row-major, flat bin numbers
};

class RegressionTree {
 public:
  /// Fits on the rows of x listed in `sample_rows` (gradient targets in
  /// `y`, aligned with x's rows).
  void fit(const Matrix& x, std::span<const double> y,
           std::span<const std::size_t> sample_rows, const TreeParams& params);

  /// As above, reusing `bins`, which must be FeatureBins(x).
  void fit(const Matrix& x, const FeatureBins& bins, std::span<const double> y,
           std::span<const std::size_t> sample_rows, const TreeParams& params);

  [[nodiscard]] double predict(std::span<const double> features) const {
    BAT_EXPECTS(trained());
    std::uint32_t at = 0;  // the root
    for (int level = 0; level < depth_; ++level) {
      at = next(at, features.data());
    }
    return nodes_[at].value;
  }

  /// Rows add_block() walks at once.
  static constexpr std::size_t kBlockRows = 128;

  /// Adds scale * predict(x.row(first + i)) to sums[i] for each of the
  /// sums.size() <= kBlockRows rows of x from `first`, walking them down
  /// the tree one level per pass.
  void add_block(const Matrix& x, std::size_t first, double scale,
                 std::span<double> sums) const;

  [[nodiscard]] bool trained() const noexcept { return !nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  /// Depth of the deepest leaf; 0 for a single-leaf tree.
  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// Total squared-error gain contributed by splits on each feature
  /// (tree-internal importance; PFI is computed separately).
  [[nodiscard]] std::vector<double> split_gains(std::size_t num_features) const;

 private:
  struct Node {
    std::uint32_t feature = 0;  // a leaf reads feature 0 and ignores it
    std::uint32_t child[2] = {0, 0};  // left (value <= threshold),
                                      // right; a leaf's are its own index
    double threshold = 0.0;
    double value = 0.0;  // leaf prediction
    double gain = 0.0;   // split gain (internal nodes)
  };
  struct Builder;

  /// One level of the walk: the child of node `at` that `row` goes to,
  /// or `at` itself when it is a leaf.
  [[nodiscard]] std::uint32_t next(std::uint32_t at, const double* row) const {
    const Node& node = nodes_[at];
    return node.child[!(row[node.feature] <= node.threshold)];
  }

  std::uint32_t build(Builder& b, std::size_t begin, std::size_t end,
                      int depth);

  std::vector<Node> nodes_;
  int depth_ = 0;
};

}  // namespace bat::ml
