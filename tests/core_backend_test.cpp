#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/backend.hpp"
#include "core/evaluator.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"
#include "obs/trace.hpp"

namespace bat::core {
namespace {

std::vector<ConfigIndex> sample_indices(const Benchmark& bench, std::size_t n,
                                        std::uint64_t seed) {
  common::Rng rng(seed);
  const auto& params = bench.space().params();
  std::vector<ConfigIndex> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(
        params.index_of_config(bench.space().random_valid_config(rng)));
  }
  return out;
}

TEST(LiveBackend, BatchMatchesElementWiseEvaluation) {
  const auto bench = kernels::make("pnpoly");
  LiveBackend backend(*bench, 0);
  const auto indices = sample_indices(*bench, 64, 1);  // above the threshold

  const auto batch = backend.evaluate_batch(indices);
  ASSERT_EQ(batch.size(), indices.size());
  const auto& params = bench->space().params();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto single = bench->evaluate(params.config_at(indices[i]), 0);
    EXPECT_DOUBLE_EQ(batch[i].objective(), single.objective());
    EXPECT_EQ(batch[i].status, single.status);
  }
}

TEST(LiveBackend, SmallBatchStaysSerialAndIdentical) {
  const auto bench = kernels::make("pnpoly");
  LiveBackend serial(*bench, 0, /*parallel_threshold=*/1'000'000);
  LiveBackend parallel(*bench, 0, /*parallel_threshold=*/2);
  const auto indices = sample_indices(*bench, 16, 2);
  const auto a = serial.evaluate_batch(indices);
  const auto b = parallel.evaluate_batch(indices);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].objective(), b[i].objective());
  }
}

TEST(ReplayBackend, ServesDatasetMeasurementsExactly) {
  const auto bench = kernels::make("pnpoly");
  const auto ds = Runner::run_exhaustive(*bench, 0);
  ReplayBackend backend(bench->space(), ds);
  EXPECT_EQ(backend.size(), ds.size());

  const auto indices = sample_indices(*bench, 32, 3);
  LiveBackend live(*bench, 0);
  const auto replayed = backend.evaluate_batch(indices);
  const auto lived = live.evaluate_batch(indices);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_DOUBLE_EQ(replayed[i].objective(), lived[i].objective());
    EXPECT_EQ(replayed[i].status, lived[i].status);
  }
}

TEST(ReplayBackend, ThrowsOnUncoveredIndex) {
  const auto bench = kernels::make("pnpoly");
  Dataset tiny(bench->name(), bench->device_name(0),
               bench->space().params().param_names());
  const auto config = bench->space().params().config_at(0);
  tiny.add(0, config, Measurement::valid(1.0));
  ReplayBackend backend(bench->space(), tiny);
  EXPECT_TRUE(backend.contains(0));
  EXPECT_FALSE(backend.contains(1));
  const ConfigIndex missing[1] = {1};
  EXPECT_THROW((void)backend.evaluate_batch(missing), std::out_of_range);
}

TEST(CountingBackend, CacheHitsAreFree) {
  const auto bench = kernels::make("pnpoly");
  LiveBackend live(*bench, 0);
  CountingBackend counting(live, 10);
  const auto indices = sample_indices(*bench, 4, 4);

  (void)counting.evaluate_batch(indices);
  EXPECT_LE(counting.evaluations(), 4u);  // distinct only
  const std::size_t after_first = counting.evaluations();
  (void)counting.evaluate_batch(indices);  // all hits
  EXPECT_EQ(counting.evaluations(), after_first);
}

#ifndef BAT_OBS_OFF
TEST(CountingBackend, OneConfigBatchesShareASpanAndLargerBatchesGetTheirOwn) {
  const auto bench = kernels::make("pnpoly");
  LiveBackend live(*bench, 0);
  const auto indices = sample_indices(*bench, 6, 6);
  const std::uint64_t id = obs::mint_trace_id();
  {
    obs::TraceScope scope(id);
    CountingBackend counting(live, 10);
    for (std::size_t i = 0; i < 3; ++i) {
      (void)counting.evaluate(indices[i]);
    }
    (void)counting.evaluate_batch(std::span(indices).subspan(3, 2));
    (void)counting.evaluate(indices[5]);  // closed by destruction
  }
  const auto spans = obs::trace_buffer().for_trace(id);
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& span : spans) EXPECT_EQ(span.name, "backend.batch");
  EXPECT_EQ(spans[0].detail, "configs=1 batches=3");
  EXPECT_EQ(spans[1].detail, "configs=2");
  EXPECT_EQ(spans[2].detail, "configs=1 batches=1");
}
#endif  // BAT_OBS_OFF

TEST(CountingBackend, DuplicatesWithinABatchChargeOnce) {
  const auto bench = kernels::make("pnpoly");
  LiveBackend live(*bench, 0);
  CountingBackend counting(live, 10);
  const auto one = sample_indices(*bench, 1, 5);
  const std::vector<ConfigIndex> batch{one[0], one[0], one[0]};
  const auto results = counting.evaluate_batch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(counting.evaluations(), 1u);
  EXPECT_DOUBLE_EQ(results[0].objective(), results[2].objective());
}

TEST(CountingBackend, BudgetBoundaryIsExactForBatches) {
  const auto bench = kernels::make("pnpoly");
  const auto indices = sample_indices(*bench, 64, 6);
  std::vector<ConfigIndex> distinct;
  for (const auto i : indices) {  // keep first occurrences only
    bool seen = false;
    for (const auto d : distinct) seen = seen || d == i;
    if (!seen) distinct.push_back(i);
  }
  ASSERT_GE(distinct.size(), 8u);

  LiveBackend live(*bench, 0);
  CountingBackend counting(live, 5);
  // A batch crossing the boundary evaluates exactly up to the budget,
  // records those entries, then throws.
  EXPECT_THROW((void)counting.evaluate_batch(
                   std::span<const ConfigIndex>(distinct.data(), 8)),
               BudgetExhausted);
  EXPECT_EQ(counting.evaluations(), 5u);
  EXPECT_TRUE(counting.exhausted());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(counting.trace()[i].index, distinct[i]);
  }
  // Cache hits keep working after exhaustion; any further miss throws.
  const std::vector<ConfigIndex> hit{distinct[0]};
  EXPECT_NO_THROW((void)counting.evaluate_batch(hit));
  const std::vector<ConfigIndex> miss{distinct[6]};
  EXPECT_THROW((void)counting.evaluate_batch(miss), BudgetExhausted);
}

TEST(CountingBackend, BatchExactlyFillingBudgetDoesNotThrow) {
  const auto bench = kernels::make("pnpoly");
  const auto indices = sample_indices(*bench, 64, 7);
  std::vector<ConfigIndex> distinct;
  for (const auto i : indices) {
    bool seen = false;
    for (const auto d : distinct) seen = seen || d == i;
    if (!seen) distinct.push_back(i);
  }
  ASSERT_GE(distinct.size(), 5u);

  LiveBackend live(*bench, 0);
  CountingBackend counting(live, 5);
  EXPECT_NO_THROW((void)counting.evaluate_batch(
      std::span<const ConfigIndex>(distinct.data(), 5)));
  EXPECT_EQ(counting.evaluations(), 5u);
  EXPECT_TRUE(counting.exhausted());
}

TEST(CachingEvaluator, BatchedAndSerialProduceIdenticalTraces) {
  const auto bench = kernels::make("pnpoly");
  const auto& params = bench->space().params();
  const auto indices = sample_indices(*bench, 30, 8);
  std::vector<Config> configs;
  configs.reserve(indices.size());
  for (const auto i : indices) configs.push_back(params.config_at(i));

  LiveBackend live_a(*bench, 0);
  CachingEvaluator serial(live_a, 100);
  for (const auto& c : configs) (void)serial(c);

  LiveBackend live_b(*bench, 0);
  CachingEvaluator batched(live_b, 100);
  (void)batched.evaluate_batch(configs);

  ASSERT_EQ(serial.trace().size(), batched.trace().size());
  for (std::size_t i = 0; i < serial.trace().size(); ++i) {
    EXPECT_EQ(serial.trace()[i].index, batched.trace()[i].index);
    EXPECT_DOUBLE_EQ(serial.trace()[i].objective,
                     batched.trace()[i].objective);
  }
}

TEST(CachingEvaluator, ReplayAndLiveTracesAreIdentical) {
  const auto bench = kernels::make("pnpoly");
  const auto ds = Runner::run_exhaustive(*bench, 0);
  const auto& params = bench->space().params();
  const auto indices = sample_indices(*bench, 40, 9);
  std::vector<Config> configs;
  for (const auto i : indices) configs.push_back(params.config_at(i));

  LiveBackend live(*bench, 0);
  CachingEvaluator live_eval(live, 25);
  ReplayBackend replay(bench->space(), ds);
  CachingEvaluator replay_eval(replay, 25);

  const auto drive = [&](CachingEvaluator& eval) {
    try {
      (void)eval.evaluate_batch(configs);
    } catch (const BudgetExhausted&) {
    }
  };
  drive(live_eval);
  drive(replay_eval);

  ASSERT_EQ(live_eval.trace().size(), replay_eval.trace().size());
  for (std::size_t i = 0; i < live_eval.trace().size(); ++i) {
    EXPECT_EQ(live_eval.trace()[i].index, replay_eval.trace()[i].index);
    EXPECT_DOUBLE_EQ(live_eval.trace()[i].objective,
                     replay_eval.trace()[i].objective);
  }
}

TEST(TraceStats, BestAndBestSoFarHelpers) {
  const std::vector<TraceEntry> trace{
      {10, 3.0}, {11, 5.0}, {12, 2.0}, {13, 4.0}};
  const auto best = trace_best(trace);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->index, 12u);
  EXPECT_DOUBLE_EQ(best->objective, 2.0);
  EXPECT_EQ(trace_best_so_far(trace),
            (std::vector<double>{3.0, 3.0, 2.0, 2.0}));

  const std::vector<TraceEntry> all_invalid{
      {0, std::numeric_limits<double>::infinity()}};
  EXPECT_FALSE(trace_best(all_invalid).has_value());
  EXPECT_FALSE(trace_best({}).has_value());
}

// A dataset with rows outside this space's valid set (foreign space or
// constraint set) must degrade to hashed lookup — with a one-time
// warning naming the dataset — and still serve every row faithfully.
TEST(ReplayBackend, ForeignDatasetFallsBackToHashedLookup) {
  const auto bench = kernels::make("gemm");  // constrained + materialized
  const auto& space = bench->space();
  const auto& params = space.params();
  common::Rng rng(11);

  Dataset ds("gemm", "RTX_3090", params.param_names());
  std::vector<ConfigIndex> rows;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto config = space.random_valid_config(rng);
    const auto index = params.index_of_config(config);
    rows.push_back(index);
    ds.add(index, config, Measurement::valid(1.0 + static_cast<double>(i)));
  }
  ConfigIndex foreign = 0;
  while (space.compiled().is_valid_index(foreign)) ++foreign;
  ds.add(foreign, params.config_at(foreign),
         Measurement::invalid(MeasureStatus::kInvalidConstraint));

  ReplayBackend backend(space, ds);  // logs the fallback warning once
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConfigIndex one[1] = {rows[i]};
    EXPECT_DOUBLE_EQ(backend.evaluate_batch(one).front().objective(),
                     1.0 + static_cast<double>(i));
  }
  EXPECT_TRUE(backend.contains(foreign));
}

}  // namespace
}  // namespace bat::core
