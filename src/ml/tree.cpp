#include "ml/tree.hpp"

#include <algorithm>
#include <limits>

namespace bat::ml {

namespace {

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

}  // namespace

FeatureBins::FeatureBins(const Matrix& x)
    : rows_(x.rows()), cols_(x.cols()), codes_(x.rows() * x.cols()) {
  // Flat bin numbers are at most rows * cols; they are stored as uint32.
  BAT_EXPECTS(codes_.size() <= std::numeric_limits<std::uint32_t>::max());
  first_bin_.reserve(cols_ + 1);
  std::vector<double> distinct;
  for (std::size_t f = 0; f < cols_; ++f) {
    distinct.clear();
    for (std::size_t r = 0; r < rows_; ++r) distinct.push_back(x(r, f));
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    const std::size_t first = values_.size();
    first_bin_.push_back(first);
    values_.insert(values_.end(), distinct.begin(), distinct.end());
    for (std::size_t r = 0; r < rows_; ++r) {
      const auto it =
          std::lower_bound(distinct.begin(), distinct.end(), x(r, f));
      codes_[r * cols_ + f] =
          static_cast<std::uint32_t>(first + (it - distinct.begin()));
    }
  }
  first_bin_.push_back(values_.size());
}

/// Per-fit state shared by every node of one tree.
struct RegressionTree::Builder {
  struct Bin {
    double sum = 0.0;  // targets of the node's rows in this bin
    std::size_t count = 0;
  };

  const Matrix& x;
  const FeatureBins& bins;
  std::span<const double> y;
  const TreeParams& params;
  std::vector<std::size_t> rows;  // partitioned in place, node by node
  std::vector<Bin> hist;          // one node's histogram, by flat bin
};

void RegressionTree::fit(const Matrix& x, std::span<const double> y,
                         std::span<const std::size_t> sample_rows,
                         const TreeParams& params) {
  fit(x, FeatureBins(x), y, sample_rows, params);
}

void RegressionTree::fit(const Matrix& x, const FeatureBins& bins,
                         std::span<const double> y,
                         std::span<const std::size_t> sample_rows,
                         const TreeParams& params) {
  BAT_EXPECTS(x.rows() == y.size());
  BAT_EXPECTS(bins.rows() == x.rows() && bins.cols() == x.cols());
  BAT_EXPECTS(!sample_rows.empty());
  nodes_.clear();
  depth_ = 0;
  Builder b{x,
            bins,
            y,
            params,
            {sample_rows.begin(), sample_rows.end()},
            std::vector<Builder::Bin>(bins.num_bins())};
  build(b, 0, b.rows.size(), 0);
}

std::uint32_t RegressionTree::build(Builder& b, std::size_t begin,
                                    std::size_t end, int depth) {
  const TreeParams& params = b.params;
  const std::span<const std::size_t> rows(b.rows.data() + begin, end - begin);
  const std::size_t n = rows.size();
  double sum = 0.0;
  for (const std::size_t r : rows) sum += b.y[r];
  const double mean = sum / static_cast<double>(n);

  const auto node_index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{.child = {node_index, node_index}, .value = mean});
  depth_ = std::max(depth_, depth);

  if (depth >= params.max_depth || n < 2 * params.min_samples_leaf) {
    return node_index;
  }

  std::fill(b.hist.begin(), b.hist.end(), Builder::Bin{});
  for (const std::size_t r : rows) {
    const double target = b.y[r];
    for (const std::uint32_t bin : b.bins.row(r)) {
      b.hist[bin].sum += target;
      ++b.hist[bin].count;
    }
  }

  // Exact best split: the boundary between two adjacent non-empty bins
  // of a feature is a candidate, thresholded at the midpoint of their
  // values. Features and boundaries are visited in ascending order and
  // only a strictly larger gain wins, as in a sorted scan.
  SplitCandidate best;
  for (std::size_t f = 0; f < b.bins.cols(); ++f) {
    double left_sum = 0.0;
    std::size_t nl = 0;
    std::size_t prev = 0;  // last non-empty bin, valid once nl > 0
    for (std::size_t bin = b.bins.first_bin(f); bin < b.bins.first_bin(f + 1);
         ++bin) {
      const auto& h = b.hist[bin];
      if (h.count == 0) continue;
      const std::size_t nr = n - nl;
      if (nl > 0 && nl >= params.min_samples_leaf &&
          nr >= params.min_samples_leaf) {
        const double right_sum = sum - left_sum;
        // Variance-reduction gain (up to constants): sum^2/n terms.
        const double gain = left_sum * left_sum / static_cast<double>(nl) +
                            right_sum * right_sum / static_cast<double>(nr) -
                            sum * sum / static_cast<double>(n);
        if (gain > best.gain) {
          best.feature = static_cast<int>(f);
          best.threshold = 0.5 * (b.bins.value(prev) + b.bins.value(bin));
          best.gain = gain;
        }
      }
      left_sum += h.sum;
      nl += h.count;
      prev = bin;
    }
  }

  if (best.feature < 0 || best.gain <= params.min_gain) {
    return node_index;
  }

  // Partition rows in place.
  const auto feature = static_cast<std::size_t>(best.feature);
  const auto mid_it = std::partition(
      b.rows.begin() + static_cast<std::ptrdiff_t>(begin),
      b.rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return b.x(r, feature) <= best.threshold; });
  const auto mid = static_cast<std::size_t>(mid_it - b.rows.begin());
  if (mid == begin || mid == end) return node_index;  // degenerate

  nodes_[node_index].feature = static_cast<std::uint32_t>(best.feature);
  nodes_[node_index].threshold = best.threshold;
  nodes_[node_index].gain = best.gain;
  const std::uint32_t left = build(b, begin, mid, depth + 1);
  const std::uint32_t right = build(b, mid, end, depth + 1);
  nodes_[node_index].child[0] = left;
  nodes_[node_index].child[1] = right;
  return node_index;
}

void RegressionTree::add_block(const Matrix& x, std::size_t first,
                               double scale, std::span<double> sums) const {
  BAT_EXPECTS(trained());
  BAT_EXPECTS(sums.size() <= kBlockRows && first + sums.size() <= x.rows());
  const std::size_t n = sums.size();
  if (n == 0) return;
  const double* rows = x.row(first).data();
  const std::size_t cols = x.cols();
  std::uint32_t at[kBlockRows] = {};  // every row starts at the root
  for (int level = 0; level < depth_; ++level) {
    for (std::size_t i = 0; i < n; ++i) at[i] = next(at[i], rows + i * cols);
  }
  for (std::size_t i = 0; i < n; ++i) sums[i] += scale * nodes_[at[i]].value;
}

std::vector<double> RegressionTree::split_gains(
    std::size_t num_features) const {
  std::vector<double> gains(num_features, 0.0);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].child[0] != i) gains[nodes_[i].feature] += nodes_[i].gain;
  }
  return gains;
}

}  // namespace bat::ml
