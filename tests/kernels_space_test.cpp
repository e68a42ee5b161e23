// Validates the seven benchmark search spaces against the paper's
// Tables I-VII (value sets) and Table VIII (cardinalities; constrained
// counts per our reconstructed constraint sets — see EXPERIMENTS.md).
#include <gtest/gtest.h>

#include "kernels/all_kernels.hpp"

namespace bat::kernels {
namespace {

struct SpaceExpectation {
  const char* name;
  std::size_t num_params;
  std::uint64_t cardinality;    // Table VIII, exact
  std::uint64_t constrained;    // our frozen constraint counts
};

class BenchmarkSpaceSweep
    : public ::testing::TestWithParam<SpaceExpectation> {};

TEST_P(BenchmarkSpaceSweep, CardinalityMatchesTable8) {
  const auto bench = make(GetParam().name);
  EXPECT_EQ(bench->space().params().num_params(), GetParam().num_params);
  EXPECT_EQ(bench->space().cardinality(), GetParam().cardinality);
}

TEST_P(BenchmarkSpaceSweep, ConstrainedCountIsStable) {
  const auto bench = make(GetParam().name);
  EXPECT_EQ(bench->space().count_constrained(), GetParam().constrained);
}

TEST_P(BenchmarkSpaceSweep, FourPaperDevices) {
  const auto bench = make(GetParam().name);
  ASSERT_EQ(bench->device_count(), 4u);
  EXPECT_EQ(bench->device_name(0), "RTX_2080Ti");
  EXPECT_EQ(bench->device_index("RTX_3090"), 2u);
  EXPECT_THROW((void)bench->device_index("A100"), std::out_of_range);
}

TEST_P(BenchmarkSpaceSweep, RandomValidConfigsEvaluateDeterministically) {
  const auto bench = make(GetParam().name);
  common::Rng rng(21);
  for (int i = 0; i < 5; ++i) {
    const auto& space = bench->space();
    const auto config = space.params().config_at(space.random_valid_index(rng));
    const auto a = bench->evaluate(config, i % 4);
    const auto b = bench->evaluate(config, i % 4);
    EXPECT_EQ(a.status, b.status);
    if (a.ok()) {
      EXPECT_DOUBLE_EQ(a.time_ms, b.time_ms);
    }
  }
}

TEST_P(BenchmarkSpaceSweep, ConstraintViolatingConfigIsRejected) {
  const auto bench = make(GetParam().name);
  if (bench->space().constraints().empty()) GTEST_SKIP();
  // Find a violating configuration by scanning the full product.
  const auto& space = bench->space();
  core::Config bad;
  for (core::ConfigIndex i = 0; i < space.cardinality(); ++i) {
    const auto config = space.params().config_at(i);
    if (!space.constraints().satisfied(config)) {
      bad = config;
      break;
    }
  }
  ASSERT_FALSE(bad.empty());
  const auto m = bench->evaluate(bad, 0);
  EXPECT_EQ(m.status, core::MeasureStatus::kInvalidConstraint);
}

// Cardinalities are the paper's Table VIII values, exactly. Constrained
// counts: GEMM matches the paper exactly (CLBlast constraint set =>
// 17 956); Pnpoly has no constraints (4 092, exact). The other counts
// come from our reconstruction of the upstream constraint sets and are
// frozen here as regression anchors (paper deltas in EXPERIMENTS.md).
INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkSpaceSweep,
    ::testing::Values(
        SpaceExpectation{"gemm", 10, 82944, 17956},
        SpaceExpectation{"nbody", 7, 9408, 3584},
        SpaceExpectation{"hotspot", 8, 22200000, 5994000},
        SpaceExpectation{"pnpoly", 4, 4092, 4092},
        SpaceExpectation{"convolution", 6, 18432, 9600},
        SpaceExpectation{"expdist", 9, 9732096, 518400},
        SpaceExpectation{"dedisp", 8, 123863040, 116242560}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(KernelRegistry, AllSevenRegistered) {
  const auto names = paper_benchmark_names();
  ASSERT_EQ(names.size(), 7u);
  const auto all = make_all();
  ASSERT_EQ(all.size(), 7u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(all[i]->name(), names[i]);
  }
  EXPECT_THROW((void)make("not_a_kernel"), std::out_of_range);
}

TEST(GemmSpace, TableOneParameterOrderAndValues) {
  const auto space = GemmBenchmark::make_space();
  const auto names = space.params().param_names();
  EXPECT_EQ(names, (std::vector<std::string>{"MWG", "NWG", "MDIMC", "NDIMC",
                                             "MDIMA", "NDIMB", "VWM", "VWN",
                                             "SA", "SB"}));
  EXPECT_EQ(space.params().param(0).values(),
            (std::vector<core::Value>{16, 32, 64, 128}));
  EXPECT_EQ(space.params().param(6).values(),
            (std::vector<core::Value>{1, 2, 4, 8}));
}

TEST(GemmSpace, DecodeRoundTrip) {
  const auto space = GemmBenchmark::make_space();
  const core::Config c{64, 32, 16, 8, 16, 8, 2, 4, 1, 0};
  const auto p = GemmBenchmark::decode(c);
  EXPECT_EQ(p.mwg, 64);
  EXPECT_EQ(p.ndimc, 8);
  EXPECT_EQ(p.vwn, 4);
  EXPECT_EQ(p.sa, 1);
  EXPECT_EQ(p.sb, 0);
}

TEST(HotspotSpace, TableThreeValueCounts) {
  const auto space = HotspotBenchmark::make_space();
  EXPECT_EQ(space.params().param(0).cardinality(), 37u);  // block_size_x
  EXPECT_EQ(space.params().param(1).cardinality(), 6u);
  EXPECT_EQ(space.params().param(4).cardinality(), 10u);  // temporal tiling
  EXPECT_EQ(space.params().param(7).values(),
            (std::vector<core::Value>{0, 1, 2, 3, 4}));
}

TEST(PnpolySpace, TableFourValueCounts) {
  const auto space = PnpolyBenchmark::make_space();
  EXPECT_EQ(space.params().param(0).cardinality(), 31u);
  EXPECT_EQ(space.params().param(1).cardinality(), 11u);
  EXPECT_EQ(space.params().param(1).values().front(), 1);
  EXPECT_EQ(space.params().param(1).values().back(), 20);
}

TEST(DedispSpace, TableSevenUnrollDivisors) {
  const auto space = DedispBenchmark::make_space();
  const auto& unroll =
      space.params().param(space.params().index_of(
          "loop_unroll_factor_channel"));
  EXPECT_EQ(unroll.cardinality(), 21u);
  for (const auto v : unroll.values()) {
    if (v != 0) {
      EXPECT_EQ(DedispBenchmark::kChannels % v, 0);
    }
  }
}

TEST(ExpdistSpace, ConstraintsCoupleColumnVariant) {
  const auto space = ExpdistBenchmark::make_space();
  // n_y_blocks > 1 without use_column must be invalid.
  core::Config c{32, 1, 1, 1, 0, 1, 1, 0, 2};
  EXPECT_FALSE(space.constraints().satisfied(c));
  c[7] = 1;  // use_column = 1
  EXPECT_TRUE(space.constraints().satisfied(c));
}

TEST(NbodySpace, VectorTypeRequiresAoS) {
  const auto space = NbodyBenchmark::make_space();
  core::Config c{128, 2, 0, 0, 1, 0, 4};  // SoA with vector_type 4
  EXPECT_FALSE(space.constraints().satisfied(c));
  c[6] = 1;
  EXPECT_TRUE(space.constraints().satisfied(c));
}

}  // namespace
}  // namespace bat::kernels
