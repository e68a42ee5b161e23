#include "common/string_util.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <limits>
#include <system_error>

#include "common/contracts.hpp"

namespace bat::common {

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += separator;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string format_double(double value, int max_decimals) {
  // printf's "%.*f" digits in the C locale, every one of them: the
  // widest finite double, -DBL_MAX, takes a sign, 309 integer digits,
  // the point and the decimals.
  constexpr int kMaxDecimals = 64;
  BAT_EXPECTS(max_decimals <= kMaxDecimals);
  constexpr int kIntegerDigits =
      std::numeric_limits<double>::max_exponent10 + 1;
  std::array<char, 1 + kIntegerDigits + 1 + kMaxDecimals> buf;
  const auto [end, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), value,
                    std::chars_format::fixed, max_decimals);
  BAT_ENSURES(ec == std::errc());
  char* last = end;
  if (std::find(buf.data(), last, '.') != last) {
    while (last[-1] == '0') --last;
    if (last[-1] == '.') --last;
  }
  return std::string(buf.data(), last);
}

std::string format_grouped(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first) % 3 == 0 && i >= first) out += ' ';
    out += digits[i];
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace bat::common
