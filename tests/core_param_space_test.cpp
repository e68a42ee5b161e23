#include "core/param_space.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/contracts.hpp"

namespace bat::core {
namespace {

ParamSpace tiny_space() {
  ParamSpace space;
  space.add(Parameter::list("a", {1, 2, 3}))
      .add(Parameter::list("b", {10, 20}))
      .add(Parameter::list("c", {0, 1, 2, 3}));
  return space;
}

TEST(Parameter, Builders) {
  const auto r = Parameter::range("r", 1, 10);
  EXPECT_EQ(r.cardinality(), 10u);
  EXPECT_EQ(r.value_at(0), 1);
  EXPECT_EQ(r.value_at(9), 10);

  const auto stepped = Parameter::range("s", 4, 128, 4);
  EXPECT_EQ(stepped.cardinality(), 32u);

  const auto p2 = Parameter::pow2("p", 1, 8);
  EXPECT_EQ(p2.values(), (std::vector<Value>{1, 2, 4, 8}));
}

TEST(ParamSpace, CardinalityOverflowThrowsAtConstruction) {
  // cardinality() itself is noexcept; the uint64 overflow check runs
  // when parameters are added. Five 2^13-value parameters overflow the
  // 64-bit product (2^65) on the last add().
  std::vector<Value> wide(1 << 13);
  for (std::size_t i = 0; i < wide.size(); ++i) {
    wide[i] = static_cast<Value>(i);
  }
  ParamSpace space;
  for (int p = 0; p < 4; ++p) {
    space.add(Parameter::list("p" + std::to_string(p), wide));
  }
  EXPECT_EQ(space.cardinality(), ConfigIndex{1} << 52);
  EXPECT_THROW(space.add(Parameter::list("p4", wide)), std::overflow_error);

  // The vector constructor performs the same check.
  std::vector<Parameter> params;
  for (int p = 0; p < 5; ++p) {
    params.emplace_back(Parameter::list("q" + std::to_string(p), wide));
  }
  EXPECT_THROW((void)ParamSpace(std::move(params)), std::overflow_error);
}

TEST(Parameter, IndexOfAndContains) {
  const auto p = Parameter::list("x", {5, 7, 9});
  EXPECT_EQ(p.index_of(7), 1u);
  EXPECT_TRUE(p.contains(9));
  EXPECT_FALSE(p.contains(6));
  EXPECT_THROW((void)p.index_of(6), std::out_of_range);
}

TEST(Parameter, RejectsDuplicatesAndEmpty) {
  EXPECT_THROW(Parameter("d", {1, 1}), common::ContractViolation);
  EXPECT_THROW(Parameter("e", {}), common::ContractViolation);
}

TEST(ParamSpace, CardinalityIsProduct) {
  EXPECT_EQ(tiny_space().cardinality(), 3u * 2u * 4u);
}

TEST(ParamSpace, DuplicateNamesRejected) {
  ParamSpace space;
  space.add(Parameter::list("a", {1}));
  EXPECT_THROW(space.add(Parameter::list("a", {2})), std::invalid_argument);
}

TEST(ParamSpace, IndexLookups) {
  const auto space = tiny_space();
  EXPECT_EQ(space.index_of("b"), 1u);
  EXPECT_TRUE(space.has_param("c"));
  EXPECT_FALSE(space.has_param("z"));
  EXPECT_THROW((void)space.index_of("z"), std::out_of_range);
  EXPECT_EQ(space.param_names(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParamSpace, RowMajorOrderLastParamFastest) {
  const auto space = tiny_space();
  EXPECT_EQ(space.config_at(0), (Config{1, 10, 0}));
  EXPECT_EQ(space.config_at(1), (Config{1, 10, 1}));
  EXPECT_EQ(space.config_at(4), (Config{1, 20, 0}));
  EXPECT_EQ(space.config_at(8), (Config{2, 10, 0}));
  EXPECT_EQ(space.config_at(23), (Config{3, 20, 3}));
}

TEST(ParamSpace, IndexConfigBijection) {
  const auto space = tiny_space();
  for (ConfigIndex i = 0; i < space.cardinality(); ++i) {
    EXPECT_EQ(space.index_of_config(space.config_at(i)), i);
  }
}

TEST(ParamSpace, ContainsChecksMembershipAndArity) {
  const auto space = tiny_space();
  EXPECT_TRUE(space.contains(Config{1, 10, 0}));
  EXPECT_FALSE(space.contains(Config{1, 11, 0}));
  EXPECT_FALSE(space.contains(Config{1, 10}));
}

TEST(ParamSpace, DecodeRejectsOutOfRangeIndex) {
  const auto space = tiny_space();
  EXPECT_THROW((void)space.config_at(space.cardinality()),
               common::ContractViolation);
}

TEST(ParamSpace, DescribeFormats) {
  EXPECT_EQ(tiny_space().describe(Config{3, 20, 0}), "a=3, b=20, c=0");
}

struct SpaceShape {
  std::vector<std::size_t> radices;
};

class MixedRadixSweep : public ::testing::TestWithParam<SpaceShape> {};

TEST_P(MixedRadixSweep, BijectionHoldsForAllIndices) {
  ParamSpace space;
  const auto& radices = GetParam().radices;
  for (std::size_t p = 0; p < radices.size(); ++p) {
    std::vector<Value> values;
    for (std::size_t v = 0; v < radices[p]; ++v) {
      values.push_back(static_cast<Value>(v * 3 + 1));
    }
    space.add(Parameter::list("p" + std::to_string(p), values));
  }
  ConfigIndex expected = 1;
  for (const auto r : radices) expected *= r;
  ASSERT_EQ(space.cardinality(), expected);

  std::set<Config> seen;
  for (ConfigIndex i = 0; i < space.cardinality(); ++i) {
    const auto config = space.config_at(i);
    EXPECT_EQ(space.index_of_config(config), i);
    seen.insert(config);
  }
  EXPECT_EQ(seen.size(), space.cardinality());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MixedRadixSweep,
    ::testing::Values(SpaceShape{{1}}, SpaceShape{{5}}, SpaceShape{{2, 2}},
                      SpaceShape{{4, 1, 3}}, SpaceShape{{3, 5, 2, 4}},
                      SpaceShape{{2, 2, 2, 2, 2, 2}}));

}  // namespace
}  // namespace bat::core
