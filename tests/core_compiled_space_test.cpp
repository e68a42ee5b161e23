// Index-space invariants of CompiledSpace: rank/select round trips,
// neighbor parity with a brute-force Config reference across all seven
// kernel spaces, soundness of the declared constraint read sets, and
// density-aware sampling.
#include "core/compiled_space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "core/search_space.hpp"
#include "kernels/all_kernels.hpp"

namespace bat::core {
namespace {

const std::vector<std::string>& kernel_names() {
  static const std::vector<std::string> names{
      "pnpoly", "nbody", "convolution", "gemm", "expdist", "hotspot",
      "dedisp"};
  return names;
}

SearchSpace divisible_space() {
  ParamSpace params;
  params.add(Parameter::list("m", {8, 16, 32, 64}))
      .add(Parameter::list("t", {2, 4, 8}))
      .add(Parameter::list("flag", {0, 1}));
  ConstraintSet constraints;
  constraints.add("t divides m", {"m", "t"},
                  [](const Config& c) { return c[0] % c[1] == 0; });
  return SearchSpace(std::move(params), std::move(constraints));
}

/// Reference validity: decode, then run the full constraint set.
bool brute_force_valid(const SearchSpace& space, ConfigIndex index) {
  return space.constraints().satisfied(space.params().config_at(index));
}

/// Reference Hamming-1 neighborhood: every single-value swap of the
/// decoded base that passes the full constraint set.
std::set<ConfigIndex> brute_force_valid_neighbors(const SearchSpace& space,
                                                  ConfigIndex base) {
  const auto& params = space.params();
  const Config center = params.config_at(base);
  Config config = center;
  std::set<ConfigIndex> out;
  for (std::size_t p = 0; p < params.num_params(); ++p) {
    for (const Value v : params.param(p).values()) {
      if (v == center[p]) continue;
      config[p] = v;
      if (space.constraints().satisfied(config)) {
        out.insert(params.index_of_config(config));
      }
    }
    config[p] = center[p];
  }
  return out;
}

TEST(CompiledSpace, TablesMatchParamSpace) {
  const auto space = divisible_space();
  const auto& cs = space.compiled();
  ASSERT_EQ(cs.num_params(), space.params().num_params());
  EXPECT_EQ(cs.cardinality(), space.cardinality());
  for (std::size_t p = 0; p < cs.num_params(); ++p) {
    EXPECT_EQ(cs.values(p), space.params().param(p).values());
    EXPECT_EQ(cs.radix(p), space.params().param(p).cardinality());
  }
  // Decode parity with ParamSpace over the whole product.
  Config a, b;
  std::vector<std::uint32_t> digits;
  for (ConfigIndex i = 0; i < cs.cardinality(); ++i) {
    cs.decode_into(i, a);
    space.params().decode_into(i, b);
    EXPECT_EQ(a, b);
    cs.decode_digits(i, digits);
    EXPECT_EQ(cs.index_of_digits(digits), i);
  }
}

TEST(CompiledSpace, RankSelectRoundTrip) {
  const auto space = divisible_space();
  const auto& cs = space.compiled();
  ASSERT_TRUE(cs.has_valid_set());
  EXPECT_EQ(cs.num_valid(), space.count_constrained());
  for (std::uint64_t ordinal = 0; ordinal < cs.num_valid(); ++ordinal) {
    const auto index = cs.select(ordinal);
    const auto back = cs.rank(index);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, ordinal);
  }
  // Invalid indices have no rank; every index is classified correctly.
  for (ConfigIndex i = 0; i < cs.cardinality(); ++i) {
    EXPECT_EQ(cs.rank(i).has_value(), brute_force_valid(space, i));
    EXPECT_EQ(cs.is_valid_index(i), brute_force_valid(space, i));
  }
}

TEST(CompiledSpace, RankSelectRoundTripOnKernelSpaces) {
  for (const auto& name : kernel_names()) {
    const auto bench = kernels::make(name);
    const auto& space = bench->space();
    const auto& cs = space.compiled();
    common::Rng rng(0xC0FFEE);
    if (!cs.has_valid_set()) {
      // Streamed space: spot-check classification parity instead.
      for (int i = 0; i < 50; ++i) {
        const ConfigIndex idx = rng.next_below(cs.cardinality());
        EXPECT_EQ(cs.is_valid_index(idx), brute_force_valid(space, idx))
            << name;
      }
      continue;
    }
    EXPECT_EQ(cs.num_valid(), space.count_constrained()) << name;
    for (int i = 0; i < 200; ++i) {
      const auto ordinal = rng.next_below(cs.num_valid());
      const auto back = cs.rank(cs.select(ordinal));
      ASSERT_TRUE(back.has_value()) << name;
      EXPECT_EQ(*back, ordinal) << name;
    }
  }
}

TEST(CompiledSpace, StreamedWalkMatchesBruteForce) {
  // Streamed compilations (Options{0}) of spaces small enough to check
  // index by index: the walk's count, enumeration, single-index checks
  // and sub-range walks against the reference, and against the
  // materialized valid set of the same space.
  std::vector<SearchSpace> spaces{divisible_space()};
  for (const char* name : {"pnpoly", "nbody", "convolution", "gemm"}) {
    spaces.push_back(kernels::make(name)->space());
  }
  for (const auto& space : spaces) {
    const CompiledSpace streamed(space.params(), space.constraints(),
                                 CompiledSpace::Options{0});
    ASSERT_FALSE(streamed.has_valid_set());
    std::vector<ConfigIndex> expected;
    for (ConfigIndex i = 0; i < space.cardinality(); ++i) {
      const bool valid = brute_force_valid(space, i);
      EXPECT_EQ(streamed.is_valid_index(i), valid) << "index " << i;
      if (valid) expected.push_back(i);
    }
    EXPECT_EQ(streamed.count_valid(), expected.size());
    EXPECT_EQ(streamed.enumerate_valid(), expected);
    const auto& materialized = space.compiled();
    ASSERT_TRUE(materialized.has_valid_set());
    EXPECT_EQ(materialized.count_valid(), expected.size());
    EXPECT_EQ(materialized.enumerate_valid(), expected);

    const ConfigIndex lo = space.cardinality() / 3;
    const ConfigIndex hi = 2 * space.cardinality() / 3 + 1;
    std::vector<ConfigIndex> in_range;
    std::copy_if(expected.begin(), expected.end(),
                 std::back_inserter(in_range),
                 [&](ConfigIndex i) { return i >= lo && i < hi; });
    for (const CompiledSpace* cs : {&streamed, &materialized}) {
      std::vector<ConfigIndex> walked;
      cs->for_each_valid(lo, hi, [&](ConfigIndex i) { walked.push_back(i); });
      EXPECT_EQ(walked, in_range);
    }
  }
}

TEST(CompiledSpace, NeighborParityWithReferencePathOnAllKernelSpaces) {
  // for_each_valid_neighbor_index must visit exactly the brute-force
  // neighborhood — on materialized spaces (rank probes) and streamed
  // ones (constraint plan) alike.
  for (const auto& name : kernel_names()) {
    const auto bench = kernels::make(name);
    const auto& space = bench->space();
    const auto& cs = space.compiled();
    common::Rng rng(0xBA7 + static_cast<std::uint64_t>(name[0]));
    NeighborScratch scratch;
    for (int trial = 0; trial < 5; ++trial) {
      const ConfigIndex base = space.random_valid_index(rng);
      std::set<ConfigIndex> actual;
      cs.for_each_valid_neighbor_index(
          base, scratch, [&](ConfigIndex n) { actual.insert(n); });
      EXPECT_EQ(actual, brute_force_valid_neighbors(space, base))
          << name << " base=" << base;
    }
  }
}

TEST(CompiledSpace, NeighborPlanIsExactFromInvalidBase) {
  // From an invalid base the plan path must still report exactly the
  // valid neighbors (constraints not touching the moved parameter keep
  // their violated truth value, so most moves repair nothing).
  ParamSpace params;
  params.add(Parameter::list("m", {8, 16, 32, 64}))
      .add(Parameter::list("t", {2, 4, 8}))
      .add(Parameter::list("flag", {0, 1}));
  ConstraintSet constraints;
  constraints.add("t divides m", {"m", "t"},
                  [](const Config& c) { return c[0] % c[1] == 0; });
  // Force the streamed (constraint-plan) path with a tiny limit.
  CompiledSpace cs(params, constraints, CompiledSpace::Options{0});
  ASSERT_FALSE(cs.has_valid_set());

  const SearchSpace space = divisible_space();
  NeighborScratch scratch;
  for (ConfigIndex base = 0; base < cs.cardinality(); ++base) {
    std::set<ConfigIndex> actual;
    cs.for_each_valid_neighbor_index(base, scratch,
                                     [&](ConfigIndex n) { actual.insert(n); });
    EXPECT_EQ(actual, brute_force_valid_neighbors(space, base))
        << "base=" << base;
  }
}

TEST(CompiledSpace, DeclaredConstraintReadsAreSound) {
  // A constraint's predicate must be invariant under changes to any
  // parameter *outside* its declared read set — this is what licenses
  // the plan to skip re-checking it on such moves.
  for (const auto& name : kernel_names()) {
    const auto bench = kernels::make(name);
    const auto& space = bench->space();
    const auto& params = space.params();
    common::Rng rng(0x5EED + static_cast<std::uint64_t>(name[0]));
    for (const auto& constraint : space.constraints().all()) {
      const auto& reads = constraint.reads();
      ASSERT_FALSE(reads.empty())
          << name << ": kernel constraint '" << constraint.name()
          << "' should declare its read set";
      std::set<std::size_t> read_positions;
      for (const auto& r : reads) read_positions.insert(params.index_of(r));

      for (int trial = 0; trial < 100; ++trial) {
        Config config = params.config_at(rng.next_below(params.cardinality()));
        const bool before = constraint.check(config);
        // Mutate one non-read parameter.
        std::vector<std::size_t> mutable_positions;
        for (std::size_t p = 0; p < params.num_params(); ++p) {
          if (!read_positions.count(p)) mutable_positions.push_back(p);
        }
        if (mutable_positions.empty()) break;
        const auto p = mutable_positions[static_cast<std::size_t>(
            rng.next_below(mutable_positions.size()))];
        config[p] = rng.pick(params.param(p).values());
        EXPECT_EQ(constraint.check(config), before)
            << name << ": '" << constraint.name()
            << "' reacted to undeclared parameter "
            << params.param(p).name();
      }
    }
  }
}

TEST(CompiledSpace, DensityAwareSamplingIsDistinctValidAndDeterministic) {
  const auto space = divisible_space();
  const auto& cs = space.compiled();
  ASSERT_TRUE(cs.has_valid_set());
  common::Rng rng1(42), rng2(42);
  const auto s1 = cs.sample_valid(6, rng1);
  const auto s2 = cs.sample_valid(6, rng2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 6u);
  EXPECT_TRUE(std::is_sorted(s1.begin(), s1.end()));
  std::set<ConfigIndex> unique(s1.begin(), s1.end());
  EXPECT_EQ(unique.size(), s1.size());
  for (const auto idx : s1) EXPECT_TRUE(cs.is_valid_index(idx));
  // Asking for more than exist returns the whole valid set.
  common::Rng rng3(7);
  EXPECT_EQ(cs.sample_valid(100'000, rng3).size(), cs.num_valid());
}

TEST(CompiledSpace, EmptyValidSetTerminatesGracefully) {
  ParamSpace params;
  params.add(Parameter::list("x", {1, 2, 3}))
      .add(Parameter::list("y", {1, 2}));
  ConstraintSet constraints;
  constraints.add("contradiction", {"x"},
                  [](const Config&) { return false; });
  const SearchSpace space(std::move(params), std::move(constraints));
  const auto& cs = space.compiled();
  ASSERT_TRUE(cs.has_valid_set());
  EXPECT_EQ(cs.num_valid(), 0u);
  common::Rng rng(1);
  EXPECT_TRUE(cs.sample_valid(10, rng).empty());
  EXPECT_THROW((void)cs.random_valid_index(rng), std::runtime_error);
}

TEST(CompiledSpace, DuplicatedReadNamesDoNotDropNeighbors) {
  // Regression: a repeated name in a read set must not double-count the
  // constraint in the per-parameter plan (which would make the streamed
  // path skip every neighbor of the repeated parameter from an invalid
  // base).
  ParamSpace params;
  params.add(Parameter::list("m", {8, 16, 32, 64}))
      .add(Parameter::list("t", {2, 4, 8}));
  ConstraintSet constraints;
  constraints.add("t divides m (dup reads)", {"m", "m", "t"},
                  [](const Config& c) { return c[0] % c[1] == 0; });
  const SearchSpace space{ParamSpace(params), ConstraintSet(constraints)};
  // Streamed plan path.
  CompiledSpace cs(params, constraints, CompiledSpace::Options{0});
  ASSERT_FALSE(cs.has_valid_set());
  NeighborScratch scratch;
  for (ConfigIndex base = 0; base < cs.cardinality(); ++base) {
    std::set<ConfigIndex> actual;
    cs.for_each_valid_neighbor_index(base, scratch,
                                     [&](ConfigIndex n) { actual.insert(n); });
    EXPECT_EQ(actual, brute_force_valid_neighbors(space, base))
        << "base=" << base;
  }
}

TEST(CompiledSpace, UnknownDeclaredReadThrowsAtCompile) {
  ParamSpace params;
  params.add(Parameter::list("x", {1, 2}));
  ConstraintSet constraints;
  constraints.add("typo", {"not_a_param"}, [](const Config&) { return true; });
  EXPECT_THROW((void)CompiledSpace(params, constraints),
               std::invalid_argument);
}

}  // namespace
}  // namespace bat::core
