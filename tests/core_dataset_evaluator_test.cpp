#include <gtest/gtest.h>

#include <cmath>

#include "core/dataset.hpp"
#include "core/evaluator.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"

namespace bat::core {
namespace {

Dataset make_dataset() {
  Dataset ds("bench", "dev", {"p", "q"});
  ds.add(0, Config{1, 10}, Measurement::valid(2.0));
  ds.add(1, Config{1, 20}, Measurement::valid(1.0));
  ds.add(2, Config{2, 10},
         Measurement::invalid(MeasureStatus::kInvalidDevice));
  ds.add(3, Config{2, 20}, Measurement::valid(4.0));
  return ds;
}

TEST(Dataset, BasicAccessors) {
  const auto ds = make_dataset();
  EXPECT_EQ(ds.size(), 4u);
  EXPECT_EQ(ds.num_params(), 2u);
  EXPECT_EQ(ds.config(1), (Config{1, 20}));
  EXPECT_EQ(ds.param_value(3, 1), 20);
  EXPECT_EQ(ds.config_index(2), 2u);
  EXPECT_FALSE(ds.row_ok(2));
  EXPECT_EQ(ds.num_valid(), 3u);
}

TEST(Dataset, BestAndMedianIgnoreInvalid) {
  const auto ds = make_dataset();
  EXPECT_EQ(ds.best_row(), 1u);
  EXPECT_DOUBLE_EQ(ds.best_time(), 1.0);
  EXPECT_DOUBLE_EQ(ds.median_time(), 2.0);
}

TEST(Dataset, ValidTimesAndRows) {
  const auto ds = make_dataset();
  EXPECT_EQ(ds.valid_times(), (std::vector<double>{2.0, 1.0, 4.0}));
  EXPECT_EQ(ds.valid_rows(), (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Dataset, FeatureMatrixOnlyValidRows) {
  const auto ds = make_dataset();
  const auto features = ds.feature_matrix();
  ASSERT_EQ(features.size(), 3u);
  EXPECT_EQ(features[2], (std::vector<double>{2.0, 20.0}));
  EXPECT_EQ(ds.target_vector().size(), 3u);
}

TEST(Dataset, CsvRoundTripIsExact) {
  const auto ds = make_dataset();
  const auto restored = Dataset::from_csv(ds.to_csv());
  ASSERT_EQ(restored.size(), ds.size());
  EXPECT_EQ(restored.benchmark_name(), "bench");
  EXPECT_EQ(restored.device_name(), "dev");
  EXPECT_EQ(restored.param_names(), ds.param_names());
  for (std::size_t r = 0; r < ds.size(); ++r) {
    EXPECT_EQ(restored.config(r), ds.config(r));
    EXPECT_EQ(restored.status(r), ds.status(r));
    if (ds.row_ok(r)) {
      EXPECT_DOUBLE_EQ(restored.time_ms(r), ds.time_ms(r));
    }
  }
}

TEST(Dataset, FromCsvRejectsGarbage) {
  EXPECT_THROW((void)Dataset::from_csv("not,a,dataset\n1,2,3\n"),
               std::invalid_argument);
}

TEST(Dataset, NoValidMeasurementsThrows) {
  Dataset ds("b", "d", {"p"});
  ds.add(0, Config{1}, Measurement::invalid(MeasureStatus::kInvalidDevice));
  EXPECT_THROW((void)ds.best_row(), std::runtime_error);
  EXPECT_THROW((void)ds.median_time(), std::runtime_error);
}

TEST(Measurement, ObjectiveOfInvalidIsInfinite) {
  EXPECT_TRUE(std::isinf(
      Measurement::invalid(MeasureStatus::kInvalidConstraint).objective()));
  EXPECT_DOUBLE_EQ(Measurement::valid(3.5).objective(), 3.5);
  EXPECT_EQ(to_string(MeasureStatus::kOk), "ok");
}

TEST(CachingEvaluator, CountsOnlyDistinctEvaluations) {
  const auto bench = kernels::make("pnpoly");
  LiveBackend backend(*bench, 0);
  CachingEvaluator eval(backend, 10);
  common::Rng rng(3);
  const ConfigIndex a = bench->space().random_valid_index(rng);
  const double first = eval.evaluate_index(a);
  const double second = eval.evaluate_index(a);  // cache hit
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(eval.evaluations(), 1u);
}

TEST(CachingEvaluator, ThrowsWhenBudgetExhausted) {
  const auto bench = kernels::make("pnpoly");
  LiveBackend backend(*bench, 0);
  CachingEvaluator eval(backend, 3);
  common::Rng rng(4);
  for (int i = 0; i < 3; ++i) {
    (void)eval.evaluate_index(bench->space().random_valid_index(rng));
  }
  EXPECT_TRUE(eval.exhausted());
  // A fresh (uncached) configuration must now be refused.
  const ConfigIndex fresh = bench->space().random_valid_index(rng);
  EXPECT_THROW((void)eval.evaluate_index(fresh), BudgetExhausted);
}

TEST(CachingEvaluator, BestSoFarIsMonotone) {
  const auto bench = kernels::make("pnpoly");
  LiveBackend backend(*bench, 0);
  CachingEvaluator eval(backend, 30);
  common::Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    (void)eval.evaluate_index(bench->space().random_valid_index(rng));
  }
  const auto curve = eval.best_so_far();
  ASSERT_EQ(curve.size(), 30u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1]);
  }
  ASSERT_TRUE(eval.best().has_value());
  EXPECT_DOUBLE_EQ(eval.best()->objective, curve.back());
}

TEST(Runner, ExhaustiveCoversAllValidConfigs) {
  const auto bench = kernels::make("pnpoly");
  const auto ds = Runner::run_exhaustive(*bench, 0);
  EXPECT_EQ(ds.size(), bench->space().count_constrained());
  EXPECT_EQ(ds.benchmark_name(), "pnpoly");
}

TEST(Runner, SampledIsDeterministicInSeed) {
  const auto bench = kernels::make("hotspot");
  const auto a = Runner::run_sampled(*bench, 1, 50, 42);
  const auto b = Runner::run_sampled(*bench, 1, 50, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a.config_index(r), b.config_index(r));
    EXPECT_EQ(a.status(r), b.status(r));
  }
}

TEST(Runner, SameSeedSameConfigsAcrossDevices) {
  const auto bench = kernels::make("hotspot");
  const auto a = Runner::run_sampled(*bench, 0, 40, 7);
  const auto b = Runner::run_sampled(*bench, 2, 40, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a.config_index(r), b.config_index(r));
  }
}

TEST(Runner, DefaultPolicyPicksExhaustiveForSmallSpaces) {
  const auto small = kernels::make("pnpoly");
  EXPECT_EQ(Runner::run_default(*small, 0).size(),
            small->space().count_constrained());
  const auto large = kernels::make("dedisp");
  EXPECT_EQ(Runner::run_default(*large, 0, 1, 100).size(), 100u);
}

}  // namespace
}  // namespace bat::core
