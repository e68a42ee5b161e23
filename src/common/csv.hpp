// Minimal CSV I/O: enough for Dataset round-trips and harness exports.
// Handles quoting of cells containing commas/quotes/newlines.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace bat::common {

class CsvWriter {
 public:
  /// Writes to an owned string buffer; call str() / save() at the end.
  CsvWriter() = default;

  void write_row(const std::vector<std::string>& cells);

  [[nodiscard]] const std::string& str() const noexcept { return buffer_; }

  /// Writes the accumulated buffer to `path`; throws std::runtime_error on
  /// failure.
  void save(const std::string& path) const;

  [[nodiscard]] static std::string escape(const std::string& cell);

 private:
  std::string buffer_;
};

/// One parsed CSV row plus the 1-based line it started on in the source
/// text (blank lines are skipped, so row position and line number can
/// diverge — error messages must report the line, not the row).
struct CsvRow {
  std::size_t line = 0;
  std::vector<std::string> cells;
};

class CsvReader {
 public:
  /// Parses full CSV text into rows of cells.
  [[nodiscard]] static std::vector<std::vector<std::string>> parse(
      const std::string& text);

  /// Like parse(), but each row carries its source line number.
  [[nodiscard]] static std::vector<CsvRow> parse_rows(const std::string& text);

  /// Loads and parses a file; throws std::runtime_error if unreadable.
  [[nodiscard]] static std::vector<std::vector<std::string>> load(
      const std::string& path);
};

/// Reads an entire file into a string; throws std::runtime_error on failure.
[[nodiscard]] std::string read_file(const std::string& path);

/// Writes a string to a file; throws std::runtime_error on failure.
void write_file(const std::string& path, const std::string& content);

}  // namespace bat::common
