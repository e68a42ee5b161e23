// DatasetView: zero-copy, mmap-backed random access into a binary
// columnar dataset archive (io/binary_format.hpp).
//
// open() maps the file and parses only the header and footer — O(1) in
// the row count — so opening a multi-gigabyte archive costs
// microseconds where CSV loading costs a full parse. Every accessor
// reads straight out of the mapping (rows live in fixed-capacity
// chunks, so row -> address is one divmod plus a pointer offset); no
// row is ever materialized unless the caller asks (materialize()).
//
// CRC verification is deliberately *not* part of open(): it would read
// the whole payload and destroy the O(1) open. Call verify_crc() when
// integrity matters more than latency (`tune info --verify`).
//
// Consumers: io::load_dataset reads a binary archive into a Dataset
// through materialize(), and `tune info` reads an archive's metadata and
// whole-archive checks straight from the view.
//
// Ownership / thread-safety: immutable after open; concurrent reads
// from any number of threads need no synchronization.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/measurement.hpp"
#include "core/types.hpp"
#include "io/binary_format.hpp"

namespace bat::io {

namespace detail {
/// RAII mmap of a whole file (read-only). Falls back to reading the
/// file into memory when mapping is unavailable.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  void* mapping_ = nullptr;        // non-null when mmap'ed
  std::vector<char> fallback_;     // used when mmap failed
};
}  // namespace detail

class DatasetView {
 public:
  /// Maps `path` and validates header, footer and geometry (throws
  /// std::invalid_argument on malformation, std::runtime_error on I/O
  /// failure).
  [[nodiscard]] static std::shared_ptr<const DatasetView> open(
      const std::string& path);

  // ------------------------------------------------------- identity --
  [[nodiscard]] const std::string& benchmark_name() const noexcept {
    return header_.benchmark;
  }
  [[nodiscard]] const std::string& device_name() const noexcept {
    return header_.device;
  }
  [[nodiscard]] const std::vector<std::string>& param_names() const noexcept {
    return header_.param_names;
  }
  [[nodiscard]] std::size_t num_params() const noexcept {
    return header_.num_params;
  }
  [[nodiscard]] const std::string& source() const noexcept { return path_; }

  // ------------------------------------------------------ row access --
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(footer_.num_rows);
  }
  [[nodiscard]] bool empty() const noexcept { return footer_.num_rows == 0; }

  [[nodiscard]] core::ConfigIndex config_index(std::size_t row) const;
  [[nodiscard]] double time_ms(std::size_t row) const;
  [[nodiscard]] core::MeasureStatus status(std::size_t row) const;
  void config_into(std::size_t row, core::Config& out) const;

  // -------------------------------------------------- column access --
  [[nodiscard]] std::size_t num_chunks() const noexcept { return chunks_; }
  [[nodiscard]] std::size_t chunk_capacity() const noexcept {
    return header_.chunk_rows;
  }
  [[nodiscard]] std::size_t rows_in_chunk(std::size_t chunk) const;
  [[nodiscard]] std::span<const std::uint64_t> indices_column(
      std::size_t chunk) const;
  [[nodiscard]] std::span<const std::int64_t> values_column(
      std::size_t chunk, std::size_t param) const;
  [[nodiscard]] std::span<const double> times_column(std::size_t chunk) const;
  [[nodiscard]] std::span<const std::uint8_t> status_column(
      std::size_t chunk) const;

  // --------------------------------------------------- whole-archive --
  /// Row count with status kOk (one streaming pass over the columns).
  [[nodiscard]] std::size_t num_valid() const;
  /// Minimum valid time; throws std::runtime_error if none.
  [[nodiscard]] double best_time() const;

  /// Recomputes the payload CRC against the footer; false on mismatch.
  /// O(file size).
  [[nodiscard]] bool verify_crc() const;

  /// True when every status byte is a known MeasureStatus value.
  /// Distinct from verify_crc: a faithfully-stored-but-nonsense status
  /// (e.g. converted from a corrupt source) is not a checksum failure.
  [[nodiscard]] bool statuses_valid() const;

  /// Copies every row into an owned core::Dataset (source() stamped),
  /// for consumers that need the Dataset API (analyses, CSV export).
  [[nodiscard]] core::Dataset materialize() const;

 private:
  explicit DatasetView(const std::string& path);

  [[nodiscard]] const char* chunk_base(std::size_t chunk) const noexcept {
    return map_->data() + header_.header_bytes + chunk * full_chunk_bytes_;
  }

  std::string path_;
  std::unique_ptr<detail::MappedFile> map_;
  FileHeader header_;
  FileFooter footer_;
  std::size_t chunks_ = 0;
  std::size_t full_chunk_bytes_ = 0;
};

}  // namespace bat::io
