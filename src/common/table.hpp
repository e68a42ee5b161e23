// ASCII table rendering for the bench harnesses: each harness prints the
// same rows the paper's tables/figures report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bat::common {

class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> headers);

  /// Appends a row; must have the same number of cells as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles/ints into a row.
  void add_row_values(const std::vector<double>& values, int decimals = 3);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Renders with column alignment:
  ///   | header | header |
  ///   |--------|--------|
  ///   | cell   | cell   |
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bat::common
