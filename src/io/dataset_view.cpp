#include "io/dataset_view.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define BAT_IO_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace bat::io {

namespace detail {

MappedFile::MappedFile(const std::string& path) {
#if BAT_IO_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size >= 0) {
      size_ = static_cast<std::size_t>(st.st_size);
      if (size_ == 0) {
        ::close(fd);
        data_ = "";
        return;
      }
      void* mapping = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (mapping != MAP_FAILED) {
        mapping_ = mapping;
        data_ = static_cast<const char*>(mapping);
        return;
      }
    } else {
      ::close(fd);
    }
    size_ = 0;
  }
#endif
  // Fallback (also the non-POSIX path): read the file into memory —
  // loses zero-copy, keeps every accessor correct.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw std::runtime_error("cannot open dataset file: " + path);
  }
  const auto end = in.tellg();
  fallback_.resize(static_cast<std::size_t>(end));
  in.seekg(0);
  in.read(fallback_.data(), end);
  if (!in) throw std::runtime_error("short read of dataset file: " + path);
  data_ = fallback_.data();
  size_ = fallback_.size();
}

MappedFile::~MappedFile() {
#if BAT_IO_HAVE_MMAP
  if (mapping_ != nullptr) ::munmap(mapping_, size_);
#endif
}

}  // namespace detail

DatasetView::DatasetView(const std::string& path)
    : path_(path), map_(std::make_unique<detail::MappedFile>(path)) {
  if (map_->size() < 16 + kFooterBytes) {
    throw std::invalid_argument(path + ": too small to be a BAT dataset");
  }
  header_ = FileHeader::decode(map_->data(), map_->size(), path);
  footer_ = FileFooter::decode(map_->data() + map_->size() - kFooterBytes,
                               path);
  const std::size_t P = header_.num_params;
  const std::size_t C = header_.chunk_rows;
  if (footer_.full_rows % C != 0 || footer_.full_rows > footer_.num_rows ||
      footer_.num_rows - footer_.full_rows >= C ||
      map_->size() != header_.header_bytes +
                          payload_bytes(footer_.num_rows, P, C) +
                          kFooterBytes) {
    throw std::invalid_argument(path +
                                ": footer geometry disagrees with file size");
  }
  chunks_ = static_cast<std::size_t>((footer_.num_rows + C - 1) / C);
  full_chunk_bytes_ = chunk_bytes(C, P);
}

std::shared_ptr<const DatasetView> DatasetView::open(const std::string& path) {
  return std::shared_ptr<const DatasetView>(new DatasetView(path));
}

std::size_t DatasetView::rows_in_chunk(std::size_t chunk) const {
  BAT_EXPECTS(chunk < chunks_);
  if (chunk + 1 < chunks_) return header_.chunk_rows;
  const std::size_t tail =
      static_cast<std::size_t>(footer_.num_rows % header_.chunk_rows);
  return tail == 0 ? header_.chunk_rows : tail;
}

std::span<const std::uint64_t> DatasetView::indices_column(
    std::size_t chunk) const {
  const std::size_t n = rows_in_chunk(chunk);
  return {reinterpret_cast<const std::uint64_t*>(chunk_base(chunk)), n};
}

std::span<const std::int64_t> DatasetView::values_column(
    std::size_t chunk, std::size_t param) const {
  BAT_EXPECTS(param < header_.num_params);
  const std::size_t n = rows_in_chunk(chunk);
  return {reinterpret_cast<const std::int64_t*>(chunk_base(chunk) + 8 * n +
                                                8 * n * param),
          n};
}

std::span<const double> DatasetView::times_column(std::size_t chunk) const {
  const std::size_t n = rows_in_chunk(chunk);
  return {reinterpret_cast<const double*>(
              chunk_base(chunk) + 8 * n * (1 + header_.num_params)),
          n};
}

std::span<const std::uint8_t> DatasetView::status_column(
    std::size_t chunk) const {
  const std::size_t n = rows_in_chunk(chunk);
  return {reinterpret_cast<const std::uint8_t*>(
              chunk_base(chunk) + 8 * n * (2 + header_.num_params)),
          n};
}

core::ConfigIndex DatasetView::config_index(std::size_t row) const {
  BAT_EXPECTS(row < size());
  return indices_column(row / header_.chunk_rows)[row % header_.chunk_rows];
}

double DatasetView::time_ms(std::size_t row) const {
  BAT_EXPECTS(row < size());
  return times_column(row / header_.chunk_rows)[row % header_.chunk_rows];
}

core::MeasureStatus DatasetView::status(std::size_t row) const {
  BAT_EXPECTS(row < size());
  return static_cast<core::MeasureStatus>(
      status_column(row / header_.chunk_rows)[row % header_.chunk_rows]);
}

void DatasetView::config_into(std::size_t row, core::Config& out) const {
  BAT_EXPECTS(row < size());
  const std::size_t chunk = row / header_.chunk_rows;
  const std::size_t at = row % header_.chunk_rows;
  out.resize(header_.num_params);
  for (std::size_t p = 0; p < header_.num_params; ++p) {
    out[p] = values_column(chunk, p)[at];
  }
}

std::size_t DatasetView::num_valid() const {
  std::size_t n = 0;
  for (std::size_t c = 0; c < chunks_; ++c) {
    for (const auto s : status_column(c)) {
      if (s == static_cast<std::uint8_t>(core::MeasureStatus::kOk)) ++n;
    }
  }
  return n;
}

double DatasetView::best_time() const {
  double best = std::numeric_limits<double>::infinity();
  bool any = false;
  for (std::size_t c = 0; c < chunks_; ++c) {
    const auto statuses = status_column(c);
    const auto times = times_column(c);
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      if (statuses[i] == static_cast<std::uint8_t>(core::MeasureStatus::kOk)) {
        any = true;
        best = std::min(best, times[i]);
      }
    }
  }
  if (!any) throw std::runtime_error(path_ + ": no valid measurements");
  return best;
}

bool DatasetView::verify_crc() const {
  const std::size_t payload_end = map_->size() - kFooterBytes;
  return crc32(map_->data(), payload_end) == footer_.crc_all;
}

bool DatasetView::statuses_valid() const {
  for (std::size_t c = 0; c < chunks_; ++c) {
    for (const auto s : status_column(c)) {
      if (s > static_cast<std::uint8_t>(core::MeasureStatus::kInvalidDevice)) {
        return false;
      }
    }
  }
  return true;
}

core::Dataset DatasetView::materialize() const {
  core::Dataset ds(header_.benchmark, header_.device, header_.param_names);
  ds.reserve(size());
  core::Config scratch(header_.num_params);
  std::vector<std::span<const std::int64_t>> columns(header_.num_params);
  for (std::size_t c = 0; c < chunks_; ++c) {
    const auto indices = indices_column(c);
    const auto times = times_column(c);
    const auto statuses = status_column(c);
    // One span per (chunk, param), not per row: this loop is the whole
    // binary load path, so the column offset math stays out of it.
    for (std::size_t p = 0; p < header_.num_params; ++p) {
      columns[p] = values_column(c, p);
    }
    for (std::size_t i = 0; i < indices.size(); ++i) {
      for (std::size_t p = 0; p < header_.num_params; ++p) {
        scratch[p] = columns[p][i];
      }
      if (statuses[i] >
          static_cast<std::uint8_t>(core::MeasureStatus::kInvalidDevice)) {
        throw std::invalid_argument(
            path_ + ": row " + std::to_string(c * chunk_capacity() + i) +
            " has invalid status byte " + std::to_string(statuses[i]));
      }
      ds.add(indices[i], scratch,
             core::Measurement{times[i],
                               static_cast<core::MeasureStatus>(statuses[i])});
    }
  }
  ds.set_source(path_);
  return ds;
}

}  // namespace bat::io
