// Columnar archive of evaluations for one (benchmark, device) pair.
//
// All paper analyses (Figs 1-6, Table VIII "Reduced") consume datasets:
// exhaustive enumerations for the four small benchmarks and 10 000-sample
// datasets for the three large ones. Datasets round-trip through CSV so
// harnesses can cache expensive sweeps.
//
// Ownership / thread-safety: Dataset is a self-contained value type;
// copies are independent and an instance is immutable once built, so
// concurrent reads need no synchronization (io::DatasetRepository
// shares one instance with every consumer that resolves its key).
// Builders (add_row) are single-threaded.
#pragma once

#include <string>
#include <vector>

#include "core/measurement.hpp"
#include "core/search_space.hpp"
#include "core/types.hpp"

namespace bat::core {

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string benchmark_name, std::string device_name,
          std::vector<std::string> param_names);

  void add(ConfigIndex index, const Config& config, const Measurement& m);
  void reserve(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return times_.size(); }
  [[nodiscard]] bool empty() const noexcept { return times_.empty(); }

  [[nodiscard]] const std::string& benchmark_name() const noexcept {
    return benchmark_name_;
  }
  [[nodiscard]] const std::string& device_name() const noexcept {
    return device_name_;
  }
  [[nodiscard]] const std::vector<std::string>& param_names() const noexcept {
    return param_names_;
  }
  /// Where this dataset came from on disk: the path passed to load_csv,
  /// or stamped by io loaders materializing a binary archive
  /// (diagnostics only — e.g. ReplayBackend's foreign-dataset warning
  /// names it). Empty for in-memory datasets.
  [[nodiscard]] const std::string& source() const noexcept { return source_; }
  void set_source(std::string source) { source_ = std::move(source); }
  [[nodiscard]] std::size_t num_params() const noexcept {
    return param_names_.size();
  }

  [[nodiscard]] ConfigIndex config_index(std::size_t row) const;
  [[nodiscard]] Config config(std::size_t row) const;
  [[nodiscard]] Value param_value(std::size_t row, std::size_t param) const;
  [[nodiscard]] double time_ms(std::size_t row) const;
  [[nodiscard]] MeasureStatus status(std::size_t row) const;
  [[nodiscard]] bool row_ok(std::size_t row) const;

  /// Times of all rows with status kOk (the "measured" population).
  [[nodiscard]] std::vector<double> valid_times() const;
  /// Row indices with status kOk.
  [[nodiscard]] std::vector<std::size_t> valid_rows() const;

  /// Row of the best (minimum-time) valid measurement; throws if none.
  [[nodiscard]] std::size_t best_row() const;
  [[nodiscard]] double best_time() const;
  /// Median of valid times; throws if none.
  [[nodiscard]] double median_time() const;

  /// Number of rows with status kOk.
  [[nodiscard]] std::size_t num_valid() const;

  /// Feature matrix (parameter values as doubles) and target vector
  /// (time_ms) over valid rows only — ML input for Fig 6.
  [[nodiscard]] std::vector<std::vector<double>> feature_matrix() const;
  [[nodiscard]] std::vector<double> target_vector() const;

  /// CSV round-trip. Columns: config_index, <param...>, time_ms, status.
  /// Parse failures throw std::invalid_argument pinpointing the source:
  /// "<source>:<line>: <reason>" with the offending cell and column name
  /// (`source_name` defaults to "<memory>"; load_csv passes the path).
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] static Dataset from_csv(const std::string& csv_text,
                                        const std::string& source_name =
                                            "<memory>");
  void save_csv(const std::string& path) const;
  [[nodiscard]] static Dataset load_csv(const std::string& path);

 private:
  std::string benchmark_name_;
  std::string device_name_;
  std::string source_;  // disk path when loaded via load_csv
  std::vector<std::string> param_names_;
  std::vector<ConfigIndex> indices_;
  std::vector<Value> values_;  // row-major, size = rows * num_params
  std::vector<double> times_;
  std::vector<MeasureStatus> statuses_;
};

}  // namespace bat::core
