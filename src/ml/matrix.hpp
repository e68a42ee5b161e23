// Dense row-major feature matrix + helpers for the ML substrate.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace bat::ml {

/// Row-major matrix of doubles; rows are samples, columns are features.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Builds from a vector of equal-length rows.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }

  /// Returns a copy with column `c`'s values permuted by `perm` (used by
  /// permutation feature importance).
  [[nodiscard]] Matrix with_permuted_column(
      std::size_t c, const std::vector<std::size_t>& perm) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

struct TrainTestSplit {
  Matrix x_train;
  std::vector<double> y_train;
  Matrix x_test;
  std::vector<double> y_test;
};

/// Deterministic shuffled split; test_fraction in (0, 1).
[[nodiscard]] TrainTestSplit train_test_split(const Matrix& x,
                                              std::span<const double> y,
                                              double test_fraction,
                                              std::uint64_t seed);

}  // namespace bat::ml
