#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "core/compiled_space.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"
#include "tuners/tuner.hpp"

namespace bat::tuners {
namespace {

TEST(TunerFactory, KnowsAllNamesAndRejectsUnknown) {
  for (const auto& name : tuner_names()) {
    const auto tuner = make_tuner(name);
    EXPECT_EQ(tuner->name(), name);
  }
  EXPECT_EQ(make_tuner("basic")->name(), "local");  // paper's basic tuner
  EXPECT_THROW((void)make_tuner("gradient_descent"), std::out_of_range);
}

class AllTunersSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(AllTunersSweep, RespectsBudgetExactly) {
  const auto bench = kernels::make("pnpoly");
  auto tuner = make_tuner(GetParam());
  const auto run = run_tuner(*tuner, *bench, 0, 60, 17);
  EXPECT_EQ(run.trace.size(), 60u);
  EXPECT_EQ(run.best_so_far.size(), 60u);
}

TEST_P(AllTunersSweep, FindsFiniteBest) {
  const auto bench = kernels::make("pnpoly");
  auto tuner = make_tuner(GetParam());
  const auto run = run_tuner(*tuner, *bench, 2, 80, 23);
  ASSERT_TRUE(run.best.has_value());
  EXPECT_TRUE(std::isfinite(run.best->objective));
}

TEST_P(AllTunersSweep, DeterministicGivenSeed) {
  const auto bench = kernels::make("convolution");
  auto t1 = make_tuner(GetParam());
  auto t2 = make_tuner(GetParam());
  const auto r1 = run_tuner(*t1, *bench, 1, 40, 99);
  const auto r2 = run_tuner(*t2, *bench, 1, 40, 99);
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  for (std::size_t i = 0; i < r1.trace.size(); ++i) {
    EXPECT_EQ(r1.trace[i].index, r2.trace[i].index);
  }
}

TEST_P(AllTunersSweep, BeatsTheMedianWithModestBudget) {
  const auto bench = kernels::make("pnpoly");
  // Median of the exhaustive space (computed once, cheap for pnpoly).
  static const double median = [] {
    const auto b = kernels::make("pnpoly");
    const auto ds = core::Runner::run_exhaustive(*b, 0);
    return ds.median_time();
  }();
  auto tuner = make_tuner(GetParam());
  const auto run = run_tuner(*tuner, *bench, 0, 150, 31);
  ASSERT_TRUE(run.best.has_value());
  EXPECT_LT(run.best->objective, median);
}

INSTANTIATE_TEST_SUITE_P(Tuners, AllTunersSweep,
                         ::testing::ValuesIn(tuner_names()),
                         [](const auto& info) { return info.param; });

/// FNV-1a 64 over every trace entry's (index, objective bit pattern), in
/// order: the rule bat_bench's add_session folds into its golden digests.
std::uint64_t trace_digest(const std::vector<core::TraceEntry>& trace) {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  const auto add = [&state](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state ^= (value >> (8 * i)) & 0xff;
      state *= 0x100000001b3ULL;
    }
  };
  for (const auto& entry : trace) {
    add(entry.index);
    add(std::bit_cast<std::uint64_t>(entry.objective));
  }
  return state;
}

/// Live device-0 trace digests per (tuner, kernel), for seeds 1 and 2,
/// at budget 200 (60 for the surrogate). A change to any tuner's draw
/// order, proposal rule or evaluation path shows up here.
const std::map<std::pair<std::string, std::string>,
               std::array<std::uint64_t, 2>>
    kGoldenTraceDigests = {
    {{"random", "gemm"}, {0x4cb529390cf61b99, 0xdf90c3cc98ad85fb}},
    {{"random", "nbody"}, {0x6e95917ea14d2acb, 0x2aed0b85b5ff5c1d}},
    {{"random", "hotspot"}, {0x147f7cae20fa7b1d, 0xd554a83d26838e11}},
    {{"random", "pnpoly"}, {0x9555ce83db5a7f2e, 0x915c870687ef6da9}},
    {{"random", "convolution"}, {0x4dc8ff14f9878469, 0x45fe2f07cb86681}},
    {{"random", "expdist"}, {0x1c9b75526897eed1, 0x37ae21f4df85c086}},
    {{"random", "dedisp"}, {0xefd9ed7327bd0c14, 0xccf8acb9b71f6431}},
    {{"local", "gemm"}, {0xfca63495d0b0735b, 0x1cd44bc3a253b69b}},
    {{"local", "nbody"}, {0x7e22d15f76498c56, 0x3142b8af97de896a}},
    {{"local", "hotspot"}, {0xbe6340955fe361d5, 0xd0ec3b4fa99b8e0f}},
    {{"local", "pnpoly"}, {0xeea46457bb6b9b8b, 0x5373e48348318e3c}},
    {{"local", "convolution"}, {0x255da1bc09ca8722, 0x4ce2462d035690cd}},
    {{"local", "expdist"}, {0xe5fe0cfef880bd0e, 0x72dbab5a85d90f5b}},
    {{"local", "dedisp"}, {0x53e71e636a704c3d, 0x93c603d2f6c6abb8}},
    {{"annealing", "gemm"}, {0xcefc4f70f9d35442, 0x564df1dc28b726c7}},
    {{"annealing", "nbody"}, {0xdabed46ea118aabd, 0xe23950bb13fb6db9}},
    {{"annealing", "hotspot"}, {0xc8e48d09f8b40d, 0x8c7cbc55fa212ec}},
    {{"annealing", "pnpoly"}, {0xae6be9fb29356312, 0x1821b06d5cf3eea7}},
    {{"annealing", "convolution"}, {0xf8be4e43c1840ec2, 0x34dff9fab60252e1}},
    {{"annealing", "expdist"}, {0x143ecbcdbea68716, 0x39b6dcbf71a327c4}},
    {{"annealing", "dedisp"}, {0xbaced9ed66ed5d3e, 0x65f8eb8771f5fa8}},
    {{"genetic", "gemm"}, {0xb74f6c3357682974, 0x2e643faaa6dc1b66}},
    {{"genetic", "nbody"}, {0x139dcf455b2e50ed, 0xfa69c6e444e0b68f}},
    {{"genetic", "hotspot"}, {0x3a9cc22197eda094, 0x37bd1ef2aca908d1}},
    {{"genetic", "pnpoly"}, {0x1b38dc00b49280a5, 0x1d3b15c1fe1b846f}},
    {{"genetic", "convolution"}, {0x94f1216edf05e500, 0x8fae7b1e9b403e55}},
    {{"genetic", "expdist"}, {0x65413ca1e7247fa2, 0xbf95c6b516e68400}},
    {{"genetic", "dedisp"}, {0xd770cfdf6de4843, 0xea245794d376d874}},
    {{"ils", "gemm"}, {0xc583b0d177ef8211, 0xc8ba351f68b40283}},
    {{"ils", "nbody"}, {0x9b836387b72822a3, 0xee957c59fb8404c6}},
    {{"ils", "hotspot"}, {0xbe6340955fe361d5, 0x2a794ac2073fadf3}},
    {{"ils", "pnpoly"}, {0xca9aeac6f9b93e4a, 0x801d30955d75b0ab}},
    {{"ils", "convolution"}, {0x4920b5ee55e3a991, 0xb8a65ed5f635137a}},
    {{"ils", "expdist"}, {0x79c59caee201c29b, 0xa9bcbaef2e60a376}},
    {{"ils", "dedisp"}, {0x53e71e636a704c3d, 0xe8f1ee175413c851}},
    {{"pso", "gemm"}, {0x1f3251bd8e9c2dde, 0x56fa0808ed8d779c}},
    {{"pso", "nbody"}, {0xfd4013f23be85ba4, 0x92bcb9aabc9fbfb5}},
    {{"pso", "hotspot"}, {0xca6d5a0545e9cbf9, 0xbc6fdc73bc8dc89a}},
    {{"pso", "pnpoly"}, {0x379ec3eee941eccc, 0x9c7134116fbd1db3}},
    {{"pso", "convolution"}, {0x31725ec60aadf6cd, 0xb45db68fcc9fe73e}},
    {{"pso", "expdist"}, {0x826a33eeabce6197, 0xd05c71d16d4d2973}},
    {{"pso", "dedisp"}, {0x4067bce136050cf3, 0xd32a3cf63288883f}},
    {{"de", "gemm"}, {0x41784dd66247b75a, 0xe742ef5f6ee98529}},
    {{"de", "nbody"}, {0x247819adcbefc40d, 0x7256a6c06467b285}},
    {{"de", "hotspot"}, {0x6dc6c0d322eab339, 0x3d07a4052b70bf1}},
    {{"de", "pnpoly"}, {0x431754bd5d7b3ec7, 0xb25324f3b6f1aaa9}},
    {{"de", "convolution"}, {0xaa5b2e3493c922f6, 0xfba81ba7be7238b3}},
    {{"de", "expdist"}, {0xfef0dbe596de0ab4, 0xddcf31ce0ae2a427}},
    {{"de", "dedisp"}, {0xab328b3d20058ebd, 0xc3a6f9346751ddf6}},
    {{"surrogate", "gemm"}, {0x7e73b1a56c7e1f66, 0x927f54372e97db58}},
    {{"surrogate", "nbody"}, {0x6475ce81385453fa, 0xc723008e6c7baf9e}},
    {{"surrogate", "hotspot"}, {0x97c9171bd5a5e465, 0xf488dc55f10faefe}},
    {{"surrogate", "pnpoly"}, {0x9a0145368a7e5a9, 0x5c73281c2b0618ad}},
    {{"surrogate", "convolution"}, {0xf9ea5af9b5ec6087, 0xb8f832a3d072db76}},
    {{"surrogate", "expdist"}, {0xa8433a3be951cad0, 0x2ee696cbd4b48919}},
    {{"surrogate", "dedisp"}, {0xef5c952a53b9be96, 0x7b93cee854c01338}},
};

TEST_P(AllTunersSweep, TracesMatchGoldenDigests) {
  const std::string& tuner_name = GetParam();
  const std::size_t budget = tuner_name == "surrogate" ? 60 : 200;
  std::ostringstream actual;
  for (const auto& kernel : kernels::paper_benchmark_names()) {
    const auto bench = kernels::make(kernel);
    const auto found = kGoldenTraceDigests.find({tuner_name, kernel});
    const auto golden = found == kGoldenTraceDigests.end()
                            ? std::array<std::uint64_t, 2>{}
                            : found->second;
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      auto tuner = make_tuner(tuner_name);
      const auto run = run_tuner(*tuner, *bench, 0, budget, seed);
      const std::uint64_t digest = trace_digest(run.trace);
      actual << (seed == 1 ? "    {{\"" + tuner_name + "\", \"" + kernel +
                                 "\"}, {"
                           : ", ")
             << "0x" << std::hex << digest << std::dec
             << (seed == 2 ? "}},\n" : "");
      EXPECT_EQ(digest, golden[seed - 1])
          << tuner_name << " on " << kernel << ", seed " << seed;
    }
  }
  // On a deliberate trace change, this is the table to paste above.
  if (HasFailure()) ADD_FAILURE() << "digests now:\n" << actual.str();
}

TEST(LocalSearch, ReachesALocalMinimum) {
  const auto bench = kernels::make("pnpoly");
  auto tuner = make_tuner("local");
  const auto run = run_tuner(*tuner, *bench, 2, 400, 5);
  ASSERT_TRUE(run.best.has_value());
  // Verify the incumbent is no worse than all its valid neighbors OR the
  // budget ended mid-descent; for a 400-eval budget on a 4k space, at
  // least one full descent completes, so check against neighbors.
  const auto& space = bench->space();
  core::NeighborScratch scratch;
  std::size_t better_neighbors = 0;
  space.compiled().for_each_valid_neighbor_index(
      run.best->index, scratch, [&](core::ConfigIndex n) {
        const auto m = bench->evaluate(space.params().config_at(n), 2);
        if (m.ok() && m.time_ms < run.best->objective) ++better_neighbors;
      });
  EXPECT_EQ(better_neighbors, 0u);
}

TEST(Comparison, InformedTunersBeatRandomOnGemm) {
  // The whole point of the suite: optimization algorithms can be
  // compared through a single interface. On the hard GEMM space a
  // model/structure-exploiting tuner should beat random search given the
  // same modest budget (aggregated over seeds to avoid flakiness).
  const auto bench = kernels::make("gemm");
  double random_best = 0.0, informed_best = 0.0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto random = make_tuner("random");
    auto informed = make_tuner("ils");
    random_best += run_tuner(*random, *bench, 2, 220, seed).best->objective;
    informed_best +=
        run_tuner(*informed, *bench, 2, 220, seed).best->objective;
  }
  EXPECT_LT(informed_best, random_best * 1.10);
}

TEST_P(AllTunersSweep, LiveAndReplayTracesAreIdentical) {
  // The backend-parity acceptance test: one Runner sweep replayed as a
  // tabular benchmark must reproduce the exact live run (same
  // ConfigIndex sequence, same objectives) for the same seed.
  const auto bench = kernels::make("pnpoly");
  static const core::Dataset ds = core::Runner::run_exhaustive(*bench, 1);
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    auto live_tuner = make_tuner(GetParam());
    core::LiveBackend live(*bench, 1);
    const auto live_run = run_tuner(*live_tuner, live, 70, seed);

    auto replay_tuner = make_tuner(GetParam());
    core::ReplayBackend replay(bench->space(), ds);
    const auto replay_run = run_tuner(*replay_tuner, replay, 70, seed);

    ASSERT_EQ(live_run.trace.size(), replay_run.trace.size());
    for (std::size_t i = 0; i < live_run.trace.size(); ++i) {
      EXPECT_EQ(live_run.trace[i].index, replay_run.trace[i].index);
      EXPECT_DOUBLE_EQ(live_run.trace[i].objective,
                       replay_run.trace[i].objective);
    }
    ASSERT_EQ(live_run.best_so_far.size(), replay_run.best_so_far.size());
    for (std::size_t i = 0; i < live_run.best_so_far.size(); ++i) {
      EXPECT_DOUBLE_EQ(live_run.best_so_far[i], replay_run.best_so_far[i]);
    }
  }
}

TEST(EvaluateGeneration, EndsTheRunWhenExhaustedOrStalled) {
  const auto bench = kernels::make("pnpoly");
  core::LiveBackend live(*bench, 0);
  const std::vector<core::ConfigIndex> batch = {1, 2};
  {
    // Cached configurations stay free after the budget is spent, but no
    // generation is evaluated once the evaluator is exhausted.
    core::CachingEvaluator evaluator(live, 2);
    std::size_t stalled = 0;
    EXPECT_EQ(evaluate_generation(evaluator, batch, stalled).size(), 2u);
    EXPECT_EQ(stalled, 0u);
    EXPECT_NO_THROW((void)evaluator.evaluate_batch(batch));
    EXPECT_THROW((void)evaluate_generation(evaluator, batch, stalled),
                 core::BudgetExhausted);
  }
  {
    // 128 consecutive generations that add nothing end the run; one
    // that adds an entry resets the count.
    core::CachingEvaluator evaluator(live, 10);
    std::size_t stalled = 0;
    (void)evaluate_generation(evaluator, batch, stalled);
    for (int i = 0; i < 127; ++i) {
      (void)evaluate_generation(evaluator, batch, stalled);
    }
    EXPECT_EQ(stalled, 127u);
    const std::vector<core::ConfigIndex> fresh = {3};
    (void)evaluate_generation(evaluator, fresh, stalled);
    EXPECT_EQ(stalled, 0u);
    for (int i = 0; i < 128; ++i) {
      (void)evaluate_generation(evaluator, batch, stalled);
    }
    EXPECT_THROW((void)evaluate_generation(evaluator, batch, stalled),
                 core::BudgetExhausted);
    EXPECT_EQ(evaluator.evaluations(), 3u);
  }
}

TEST(AllTuners, EndBelowABudgetLargerThanTheValidSet) {
  // nbody has 3,584 valid configurations, fewer than the budget. The
  // single-point tuners revisit cached configurations for ever unless
  // the evaluator ends the run once the trace holds the whole valid
  // set; random sees the whole set too, while genetic, pso and de
  // converge first and end through evaluate_generation's stall rule or
  // an empty generation. The counts are those of
  // `tune run --kernel nbody --budget 5000` (seed 42).
  const auto bench = kernels::make("nbody");
  ASSERT_EQ(bench->space().count_constrained(), 3584u);
  const std::pair<const char*, std::size_t> expected[] = {
      {"local", 3584},   {"annealing", 3584}, {"ils", 3584}, {"random", 3584},
      {"genetic", 3561}, {"pso", 134},        {"de", 413}};
  for (const auto& [name, entries] : expected) {
    auto tuner = make_tuner(name);
    const auto run = run_tuner(*tuner, *bench, 0, 5000, 42);
    EXPECT_EQ(run.trace.size(), entries) << name;
    EXPECT_FALSE(run.cancelled) << name;
  }
}

/// snap as it rounded before integer arithmetic replaced the libm
/// call, kept as its reference: each coordinate clamped into
/// [0, radix - 1] and rounded with std::llround.
core::ConfigIndex llround_snap(const core::CompiledSpace& compiled,
                               const std::vector<double>& position) {
  core::ConfigIndex index = 0;
  for (std::size_t p = 0; p < position.size(); ++p) {
    const auto hi = static_cast<double>(compiled.radix(p) - 1);
    index += static_cast<core::ConfigIndex>(
                 std::llround(std::clamp(position[p], 0.0, hi))) *
             compiled.stride(p);
  }
  return index;
}

TEST(Snap, RoundsEveryCoordinateAsLlroundOfTheClampedValue) {
  // Every digit d of every parameter of every paper kernel, probed at
  // the ties d +- 0.5, the doubles next to them on both sides, d itself
  // and out-of-range coordinates; the other coordinates sit off-grid.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t probes = 0;
  std::size_t mismatches = 0;
  std::ostringstream first;
  for (const auto& name : kernels::paper_benchmark_names()) {
    const auto bench = kernels::make(name);
    const auto& compiled = bench->space().compiled();
    std::vector<double> position(compiled.num_params());
    for (std::size_t q = 0; q < position.size(); ++q) {
      position[q] = static_cast<double>(compiled.radix(q)) / 2.0 + 0.25;
    }
    for (std::size_t p = 0; p < position.size(); ++p) {
      const auto top = static_cast<double>(compiled.radix(p) - 1);
      std::vector<double> coordinates = {-kInf, -1e300, -3.0, -1.0,
                                         top + 1.0, top + 7.5, 1e300, kInf};
      for (double d = 0.0; d <= top; d += 1.0) {
        coordinates.push_back(d);
        for (const double tie : {d - 0.5, d + 0.5}) {
          coordinates.push_back(tie);
          coordinates.push_back(std::nextafter(tie, -kInf));
          coordinates.push_back(std::nextafter(tie, kInf));
        }
      }
      const double saved = position[p];
      for (const double c : coordinates) {
        position[p] = c;
        ++probes;
        if (snap(compiled, position) != llround_snap(compiled, position) &&
            mismatches++ == 0) {
          first << name << " parameter " << p << " at " << std::hexfloat << c;
        }
      }
      position[p] = saved;
    }
  }
  EXPECT_GT(probes, 1000u);
  EXPECT_EQ(mismatches, 0u) << "first: " << first.str();
}

TEST(RunTuner, TraceObjectivesMatchBenchmark) {
  const auto bench = kernels::make("nbody");
  auto tuner = make_tuner("random");
  const auto run = run_tuner(*tuner, *bench, 3, 25, 77);
  for (const auto& entry : run.trace) {
    const auto config = bench->space().params().config_at(entry.index);
    const auto m = bench->evaluate(config, 3);
    EXPECT_DOUBLE_EQ(entry.objective, m.objective());
  }
}

}  // namespace
}  // namespace bat::tuners
