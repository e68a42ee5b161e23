// Behavioural tests of the performance models: device-validity rules and
// the qualitative relations the paper's figures rely on.
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"

namespace bat::kernels {
namespace {

TEST(HotspotModel, RejectsSubWarpAndOversizedBlocks) {
  HotspotBenchmark bench;
  // block 1x1 = 1 thread (< 32): invalid on device, constraint-valid.
  core::Config tiny{1, 1, 1, 1, 1, 1, 0, 0};
  ASSERT_TRUE(bench.space().is_valid(tiny));
  EXPECT_EQ(bench.evaluate(tiny, 0).status,
            core::MeasureStatus::kInvalidDevice);
  // 1024 * 32 threads: over the block limit.
  core::Config huge{1024, 32, 1, 1, 1, 1, 0, 0};
  EXPECT_EQ(bench.evaluate(huge, 0).status,
            core::MeasureStatus::kInvalidDevice);
}

TEST(HotspotModel, SharedMemoryGateDependsOnTile) {
  HotspotBenchmark bench;
  // Large tile * high temporal tiling: shared memory cannot hold it.
  core::Config fat{256, 8, 10, 10, 10, 1, 1, 0};
  EXPECT_EQ(bench.evaluate(fat, 0).status,
            core::MeasureStatus::kInvalidDevice);
  // Small tile fits everywhere.
  core::Config slim{64, 2, 1, 1, 2, 1, 1, 0};
  EXPECT_TRUE(bench.evaluate(slim, 0).ok());
}

TEST(HotspotModel, TemporalTilingWithCachedPowerWins) {
  HotspotBenchmark bench;
  const core::Config fused{64, 4, 2, 2, 8, 2, 1, 0};
  const core::Config naive{64, 4, 2, 2, 1, 1, 0, 0};
  const auto fast = bench.evaluate(fused, 2);
  const auto slow = bench.evaluate(naive, 2);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_LT(fast.time_ms * 3.0, slow.time_ms);
}

TEST(NbodyModel, AosWithoutVectorLoadsIsTheSlowCluster) {
  NbodyBenchmark bench;
  const core::Config aos_scalar{256, 2, 0, 0, 0, 1, 1};
  const core::Config soa{256, 2, 0, 0, 1, 1, 1};
  const auto slow = bench.evaluate(aos_scalar, 0);
  const auto fast = bench.evaluate(soa, 0);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_GT(slow.time_ms, 1.8 * fast.time_ms);
}

TEST(ConvolutionModel, SharedMemoryTileGateVariesWithBlock) {
  ConvolutionBenchmark bench;
  // 128x32 threads would exceed 1024 -> constraint-invalid, so use a
  // tile that is constraint-valid but exceeds 48 KiB of staging.
  core::Config fat{128, 8, 8, 8, 0, 0};
  ASSERT_TRUE(bench.space().is_valid(fat));
  EXPECT_EQ(bench.evaluate(fat, 0).status,
            core::MeasureStatus::kInvalidDevice);
}

TEST(ConvolutionModel, PaddingHelpsOnlyMisalignedBlocks) {
  ConvolutionBenchmark bench;
  // block_size_x = 48 (not a multiple of 32): padding should help.
  const core::Config padded{48, 2, 4, 4, 1, 1};
  const core::Config bare{48, 2, 4, 4, 0, 1};
  const auto with_pad = bench.evaluate(padded, 2);
  const auto without = bench.evaluate(bare, 2);
  ASSERT_TRUE(with_pad.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_LE(with_pad.time_ms, without.time_ms * 1.02);
}

TEST(PnpolyModel, DivisionVariantIsSlowEverywhere) {
  PnpolyBenchmark bench;
  for (core::DeviceIndex d = 0; d < 4; ++d) {
    const core::Config division{256, 8, 0, 1};
    const core::Config multiply{256, 8, 1, 1};
    EXPECT_GT(bench.evaluate(division, d).time_ms,
              bench.evaluate(multiply, d).time_ms);
  }
}

TEST(PnpolyModel, BestMethodDiffersAcrossFamilies) {
  PnpolyBenchmark bench;
  const core::Config fma{256, 8, 2, 1};  // Ampere-friendly
  const core::Config intsel{256, 8, 3, 1};  // Turing-friendly
  // Turing (device 0) prefers the INT variant; Ampere (device 2) the FMA
  // variant — the mechanism behind Fig 5b's 58.5% worst-case transfer.
  EXPECT_LT(bench.evaluate(intsel, 0).time_ms,
            bench.evaluate(fma, 0).time_ms);
  EXPECT_LT(bench.evaluate(fma, 2).time_ms,
            bench.evaluate(intsel, 2).time_ms);
}

TEST(PnpolyModel, RegisterFileGateOnWideBlocks) {
  PnpolyBenchmark bench;
  // 992 threads * (18 + 2.6*20 + ...) registers exceeds the 64k file.
  const core::Config wide{992, 20, 2, 1};
  EXPECT_EQ(bench.evaluate(wide, 2).status,
            core::MeasureStatus::kInvalidDevice);
  const core::Config narrow{224, 20, 2, 1};
  EXPECT_TRUE(bench.evaluate(narrow, 2).ok());
}

TEST(DedispModel, StridedTilingRestoresCoalescing) {
  DedispBenchmark bench;
  const core::Config strided{128, 8, 4, 4, 1, 1, 8, 0};
  const core::Config consecutive{128, 8, 4, 4, 0, 1, 8, 0};
  const auto fast = bench.evaluate(strided, 0);
  const auto slow = bench.evaluate(consecutive, 0);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_LT(fast.time_ms, slow.time_ms);
}

TEST(ExpdistModel, ColumnVariantNeedsEnoughYBlocks) {
  ExpdistBenchmark bench;
  const core::Config starved{128, 1, 2, 2, 1, 1, 1, 1, 1};
  const core::Config filled{128, 1, 2, 2, 1, 1, 1, 1, 64};
  const auto slow = bench.evaluate(starved, 2);
  const auto fast = bench.evaluate(filled, 2);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_LT(fast.time_ms, slow.time_ms);
}

TEST(GemmModel, SharedMemoryStagingBeatsDirectLoads) {
  GemmBenchmark bench;
  const core::Config staged{64, 64, 16, 16, 16, 16, 2, 2, 1, 1};
  const core::Config direct{64, 64, 16, 16, 16, 16, 2, 2, 0, 0};
  const auto fast = bench.evaluate(staged, 2);
  const auto slow = bench.evaluate(direct, 2);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_LT(fast.time_ms, slow.time_ms);
}

TEST(GemmModel, BigTilesBeatSmallTiles) {
  GemmBenchmark bench;
  const core::Config big{128, 128, 16, 16, 16, 16, 4, 4, 1, 1};
  const core::Config small{16, 16, 8, 8, 8, 8, 1, 1, 1, 1};
  for (core::DeviceIndex d = 0; d < 4; ++d) {
    EXPECT_LT(bench.evaluate(big, d).time_ms,
              bench.evaluate(small, d).time_ms);
  }
}

TEST(AllModels, NoiseIsSmallAndCentered) {
  for (const auto& bench : make_all()) {
    common::Rng rng(13);
    const auto& space = bench->space();
    const auto config = space.params().config_at(space.random_valid_index(rng));
    const auto m = bench->evaluate(config, 1);
    if (!m.ok()) continue;
    // Re-evaluation is bit-identical (determinism) — noise is baked in.
    EXPECT_DOUBLE_EQ(bench->evaluate(config, 1).time_ms, m.time_ms);
    EXPECT_GT(m.time_ms, 0.0);
    EXPECT_LT(m.time_ms, 1e5);
  }
}

class CrossDeviceSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(CrossDeviceSweep, Rtx3090IsFastestOrCloseForGoodConfigs) {
  const auto bench = make(GetParam());
  const auto ds = core::Runner::run_default(*bench, 2, 0xBA7, 2000);
  const auto best = ds.config(ds.best_row());
  // The 3090 has the highest peak compute AND bandwidth; its own best
  // config must not run faster on any other device.
  const double t3090 = bench->evaluate(best, 2).time_ms;
  for (const core::DeviceIndex d : {0u, 1u, 3u}) {
    const auto m = bench->evaluate(best, d);
    if (m.ok()) {
      EXPECT_GT(m.time_ms, 0.95 * t3090);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, CrossDeviceSweep,
                         ::testing::Values("gemm", "nbody", "pnpoly",
                                           "convolution", "expdist",
                                           "dedisp"));

}  // namespace
}  // namespace bat::kernels
