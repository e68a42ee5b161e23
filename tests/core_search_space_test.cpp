#include "core/search_space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/compiled_space.hpp"

namespace bat::core {
namespace {

SearchSpace divisible_space() {
  ParamSpace params;
  params.add(Parameter::list("m", {8, 16, 32, 64}))
      .add(Parameter::list("t", {2, 4, 8}))
      .add(Parameter::list("flag", {0, 1}));
  ConstraintSet constraints;
  constraints.add("t divides m",
                  [](const Config& c) { return c[0] % c[1] == 0; });
  return SearchSpace(std::move(params), std::move(constraints));
}

std::uint64_t brute_force_count(const SearchSpace& space) {
  std::uint64_t count = 0;
  for (ConfigIndex i = 0; i < space.cardinality(); ++i) {
    if (space.constraints().satisfied(space.params().config_at(i))) ++count;
  }
  return count;
}

TEST(ConstraintSet, SatisfiedAndFirstViolation) {
  ConstraintSet cs;
  cs.add("positive", [](const Config& c) { return c[0] > 0; });
  cs.add("even", [](const Config& c) { return c[0] % 2 == 0; });
  EXPECT_TRUE(cs.satisfied(Config{4}));
  EXPECT_FALSE(cs.satisfied(Config{3}));
  EXPECT_EQ(cs.first_violation(Config{-2}), "positive");
  EXPECT_EQ(cs.first_violation(Config{3}), "even");
  EXPECT_EQ(cs.first_violation(Config{2}), "");
}

TEST(SearchSpace, CountMatchesBruteForce) {
  const auto space = divisible_space();
  EXPECT_EQ(space.count_constrained(), brute_force_count(space));
}

TEST(SearchSpace, CountWithoutConstraintsIsCardinality) {
  ParamSpace params;
  params.add(Parameter::list("x", {1, 2, 3}));
  SearchSpace space(std::move(params), ConstraintSet{});
  EXPECT_EQ(space.count_constrained(), 3u);
}

TEST(SearchSpace, EnumerateIsSortedAndValid) {
  const auto space = divisible_space();
  const auto valid = space.enumerate_constrained();
  EXPECT_EQ(valid.size(), space.count_constrained());
  EXPECT_TRUE(std::is_sorted(valid.begin(), valid.end()));
  for (const auto idx : valid) {
    EXPECT_TRUE(space.is_valid(space.params().config_at(idx)));
  }
}

TEST(SearchSpace, SampleDistinctValidDeterministic) {
  const auto space = divisible_space();
  common::Rng rng1(5), rng2(5);
  const auto s1 = space.sample_constrained(6, rng1);
  const auto s2 = space.sample_constrained(6, rng2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 6u);
  std::set<ConfigIndex> unique(s1.begin(), s1.end());
  EXPECT_EQ(unique.size(), s1.size());
  for (const auto idx : s1) {
    EXPECT_TRUE(space.is_valid(space.params().config_at(idx)));
  }
}

TEST(SearchSpace, SampleMoreThanExistReturnsAll) {
  const auto space = divisible_space();
  common::Rng rng(6);
  const auto all = space.sample_constrained(10'000, rng);
  EXPECT_EQ(all.size(), space.count_constrained());
}

TEST(SearchSpace, RandomValidIndexSatisfiesConstraints) {
  const auto space = divisible_space();
  common::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto index = space.random_valid_index(rng);
    EXPECT_TRUE(space.is_valid(space.params().config_at(index)));
  }
}

TEST(SearchSpace, ValidNeighborsRespectConstraints) {
  const auto space = divisible_space();
  const Config center{16, 4, 0};
  ASSERT_TRUE(space.is_valid(center));
  std::vector<Config> neighbors;
  NeighborScratch scratch;
  space.compiled().for_each_valid_neighbor_index(
      space.params().index_of_config(center), scratch,
      [&](ConfigIndex n) { neighbors.push_back(space.params().config_at(n)); });
  EXPECT_FALSE(neighbors.empty());
  for (const auto& n : neighbors) {
    EXPECT_TRUE(space.is_valid(n));
    int diff = 0;
    for (std::size_t p = 0; p < n.size(); ++p) diff += n[p] != center[p];
    EXPECT_EQ(diff, 1);
  }
  // m=16, t=4: m-neighbors {8, 32, 64} all divisible by 4; t-neighbors
  // {2, 8} both divide 16; flag neighbor always valid.
  EXPECT_EQ(neighbors.size(), 3u + 2u + 1u);
}

TEST(SearchSpace, IsValidChecksMembershipToo) {
  const auto space = divisible_space();
  EXPECT_FALSE(space.is_valid(Config{9, 2, 0}));   // 9 not a value of m
  EXPECT_FALSE(space.is_valid(Config{16, 8, 0, 1}));  // wrong arity
}

TEST(SearchSpace, ContradictionConstraintTerminatesGracefully) {
  // Regression: rejection sampling must not spin when constraints kill
  // (almost) everything. A contradictory space yields an empty sample
  // and a clear exception from random_valid_index, both promptly.
  ParamSpace params;
  params.add(Parameter::list("m", {8, 16, 32, 64}))
      .add(Parameter::list("t", {2, 4, 8}));
  ConstraintSet constraints;
  constraints.add("contradiction",
                  [](const Config&) { return false; });
  const SearchSpace space(std::move(params), std::move(constraints));

  EXPECT_EQ(space.count_constrained(), 0u);
  EXPECT_TRUE(space.enumerate_constrained().empty());
  common::Rng rng(3);
  EXPECT_TRUE(space.sample_constrained(25, rng).empty());
  EXPECT_THROW((void)space.random_valid_index(rng), std::runtime_error);
}

TEST(SearchSpace, NearEmptyValidSetStillSamplesExactly) {
  // One surviving configuration out of 12: the density-aware path must
  // find it without rejection noise.
  ParamSpace params;
  params.add(Parameter::list("m", {8, 16, 32, 64}))
      .add(Parameter::list("t", {2, 4, 8}));
  ConstraintSet constraints;
  constraints.add("only m=32 t=8",
                  [](const Config& c) { return c[0] == 32 && c[1] == 8; });
  const SearchSpace space(std::move(params), std::move(constraints));

  common::Rng rng(11);
  const auto sample = space.sample_constrained(5, rng);
  ASSERT_EQ(sample.size(), 1u);
  EXPECT_EQ(space.params().config_at(sample[0]), (Config{32, 8}));
  EXPECT_EQ(space.params().config_at(space.random_valid_index(rng)),
            (Config{32, 8}));
}

class RejectionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RejectionSweep, SampleSizesAreExact) {
  const auto space = divisible_space();
  common::Rng rng(GetParam());
  const std::size_t want =
      std::min<std::size_t>(GetParam() % 7 + 1,
                            space.count_constrained());
  EXPECT_EQ(space.sample_constrained(want, rng).size(), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RejectionSweep,
                         ::testing::Values(1u, 2u, 3u, 10u, 99u));

}  // namespace
}  // namespace bat::core
