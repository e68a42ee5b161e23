#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"

namespace bat::common {
namespace {

TEST(Csv, RoundTripSimpleRows) {
  CsvWriter w;
  w.write_row({"a", "b", "c"});
  w.write_row({"1", "2", "3"});
  const auto rows = CsvReader::parse(w.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Csv, EscapesCommasQuotesNewlines) {
  CsvWriter w;
  w.write_row({"he,llo", "qu\"ote", "line\nbreak", "plain"});
  const auto rows = CsvReader::parse(w.str());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "he,llo");
  EXPECT_EQ(rows[0][1], "qu\"ote");
  EXPECT_EQ(rows[0][2], "line\nbreak");
  EXPECT_EQ(rows[0][3], "plain");
}

TEST(Csv, ToleratesCrlfAndEmptyCells) {
  const auto rows = CsvReader::parse("a,,c\r\nd,e,\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "");
  EXPECT_EQ(rows[1][2], "");
}

TEST(Csv, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bat_csv_test.csv";
  CsvWriter w;
  w.write_row({"x", "y"});
  w.save(path);
  const auto rows = CsvReader::load(path);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "x");
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW((void)read_file("/nonexistent/bat/file.csv"),
               std::runtime_error);
}

TEST(Json, ScalarsAndEscapes) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(std::int64_t{42}).dump(), "42");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("a\"b\n").dump(), "\"a\\\"b\\n\"");
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, NestedStructure) {
  JsonObject obj;
  obj["name"] = Json("gemm");
  obj["values"] = Json::array(std::vector<double>{1.0, 2.0});
  const std::string compact = Json(obj).dump();
  EXPECT_EQ(compact, "{\"name\":\"gemm\",\"values\":[1,2]}");
}

TEST(Json, IndentedOutputContainsNewlines) {
  JsonObject obj;
  obj["k"] = Json(1);
  EXPECT_NE(Json(obj).dump(2).find('\n'), std::string::npos);
}

TEST(Table, AlignsColumns) {
  AsciiTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RowArityIsChecked) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, AddRowValuesFormats) {
  AsciiTable t({"v"});
  t.add_row_values({1.2345}, 2);
  EXPECT_NE(t.to_string().find("1.23"), std::string::npos);
}

TEST(StringUtil, SplitJoinTrim) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
}

/// printf's "%.*f" with format_double's zero trim, into a buffer wide
/// enough for any double: the reference format_double must match.
std::string printf_reference(double value, int decimals) {
  std::vector<char> buf(1024);
  std::snprintf(buf.data(), buf.size(), "%.*f", decimals, value);
  std::string s(buf.data());
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s;
}

TEST(StringUtil, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
  EXPECT_EQ(format_double(-0.0, 9), "-0");
  EXPECT_EQ(format_double(0.125, 2), "0.12");  // ties round to even
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");

  // Wide numbers print every digit, however many: 1e63 is 64 digits,
  // 1e300 is 301 and -DBL_MAX a sign and 309.
  const double max = std::numeric_limits<double>::max();
  for (const auto& [value, digits] :
       {std::pair{1e63, 64}, std::pair{-1e62, 63}, std::pair{1e300, 301},
        std::pair{-max, 309}}) {
    const auto text = format_double(value, 9);
    EXPECT_EQ(text.size(), static_cast<std::size_t>(digits) +
                               (value < 0 ? 1 : 0))
        << value;
    EXPECT_EQ(text, printf_reference(value, 9)) << value;
  }
  EXPECT_EQ(format_double(-max, 9).substr(0, 18), "-17976931348623157");
  EXPECT_EQ(format_double(1e300, 9).substr(0, 17), "10000000000000000");
}

TEST(StringUtil, FormatDoubleMatchesPrintfOnASeededSweep) {
  std::mt19937_64 rng(20240613);
  const std::array decimals{0, 1, 2, 3, 4, 6, 9};
  std::uniform_real_distribution<double> mantissa(0.5, 1.0);
  std::uniform_int_distribution<int> exponent(-40, 177);  // to ~1e53
  std::size_t mismatches = 0;
  std::string first_mismatch;
  const auto check = [&](double value) {
    const int d = decimals[rng() % decimals.size()];
    if (format_double(value, d) != printf_reference(value, d)) {
      if (mismatches++ == 0) {
        first_mismatch = printf_reference(value, d) + " at " +
                         std::to_string(d) + " decimals";
      }
    }
  };
  for (int i = 0; i < 100'000; ++i) {
    // Any bit pattern: denormals, huge magnitudes, inf and nan.
    check(std::bit_cast<double>(static_cast<std::uint64_t>(rng())));
    // The magnitudes objectives and wall times take.
    const double sign = rng() % 2 == 0 ? 1.0 : -1.0;
    check(sign * std::ldexp(mantissa(rng), exponent(rng)));
    // Exact binary fractions, where rounding ties happen.
    check(sign * std::ldexp(static_cast<double>(rng() % 4096),
                            -static_cast<int>(rng() % 16)));
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

struct GroupedCase {
  std::uint64_t value;
  const char* expected;
};

class FormatGrouped : public ::testing::TestWithParam<GroupedCase> {};

TEST_P(FormatGrouped, MatchesPaperStyle) {
  EXPECT_EQ(format_grouped(GetParam().value), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Values, FormatGrouped,
    ::testing::Values(GroupedCase{0, "0"}, GroupedCase{999, "999"},
                      GroupedCase{4092, "4 092"},
                      GroupedCase{82944, "82 944"},
                      GroupedCase{9732096, "9 732 096"},
                      GroupedCase{123863040, "123 863 040"}));

}  // namespace
}  // namespace bat::common
