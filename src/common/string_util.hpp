// Small string helpers shared by the CSV/table/log modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace bat::common {

[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             char delimiter);

[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view separator);

[[nodiscard]] std::string_view trim(std::string_view text);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Formats a double as printf's "%.*f" would in the C locale, then
/// trims trailing zeros ("1.5", "2", "0.333"). Every digit is kept, so
/// 1e300 prints as 301 digits. max_decimals must be at most 64.
[[nodiscard]] std::string format_double(double value, int max_decimals = 6);

/// Groups thousands with spaces like the paper's tables ("123 863 040").
[[nodiscard]] std::string format_grouped(std::uint64_t value);

/// Lower-cases ASCII.
[[nodiscard]] std::string to_lower(std::string_view text);

}  // namespace bat::common
