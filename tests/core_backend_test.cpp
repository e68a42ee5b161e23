#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/backend.hpp"
#include "core/evaluator.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"
#include "obs/trace.hpp"
#include "service/sharded_cache.hpp"

namespace bat::core {
namespace {

std::vector<ConfigIndex> sample_indices(const Benchmark& bench, std::size_t n,
                                        std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<ConfigIndex> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(bench.space().random_valid_index(rng));
  }
  return out;
}

/// First occurrences of sample_indices(bench, n, seed), in draw order.
std::vector<ConfigIndex> distinct_indices(const Benchmark& bench,
                                          std::size_t n, std::uint64_t seed) {
  std::vector<ConfigIndex> out;
  for (const auto index : sample_indices(bench, n, seed)) {
    if (std::find(out.begin(), out.end(), index) == out.end()) {
      out.push_back(index);
    }
  }
  return out;
}

/// Live measurements, plus a record of every batch the backend is sent;
/// `fail` makes each batch throw instead (after recording it).
struct RecordingBackend final : EvaluationBackend {
  explicit RecordingBackend(const Benchmark& bench) : live(bench, 0) {}
  const std::string& name() const override { return live.name(); }
  const SearchSpace& space() const override { return live.space(); }
  std::vector<Measurement> evaluate_batch(
      std::span<const ConfigIndex> indices) override {
    batches.emplace_back(indices.begin(), indices.end());
    if (fail) throw std::runtime_error("backend failure");
    return live.evaluate_batch(indices);
  }

  LiveBackend live;
  std::vector<std::vector<ConfigIndex>> batches;
  bool fail = false;
};

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

/// Row-for-row equality of a Runner dataset with serial LiveBackend
/// evaluation of `expected` indices, in that order.
void expect_rows_match_serial_live(const Benchmark& bench, const Dataset& ds,
                                   const std::vector<ConfigIndex>& expected) {
  ASSERT_EQ(ds.size(), expected.size());
  LiveBackend backend(bench, 0);
  const auto serial = backend.evaluate_batch(expected);
  const auto& params = bench.space().params();
  for (std::size_t r = 0; r < ds.size(); ++r) {
    ASSERT_EQ(ds.config_index(r), expected[r]) << "row " << r;
    EXPECT_EQ(ds.config(r), params.config_at(expected[r])) << "row " << r;
    EXPECT_EQ(ds.status(r), serial[r].status) << "row " << r;
    if (ds.row_ok(r)) {
      EXPECT_DOUBLE_EQ(ds.time_ms(r), serial[r].time_ms) << "row " << r;
    }
  }
}

TEST(Runner, FannedOutSweepMatchesSerialLiveBackend) {
  // Runner owns the one evaluation fan-out: its sweep splits the batch
  // over the pool and must give the rows serial evaluation gives.
  const auto bench = kernels::make("gemm");
  const auto ds = Runner::run_exhaustive(*bench, 0);
  expect_rows_match_serial_live(*bench, ds,
                                bench->space().enumerate_constrained());
}

/// A test-local benchmark over 128^3 = 2^21 configurations, past the
/// 2^20 materialize limit, so its compiled space is streamed. The one
/// constraint keeps about one configuration in 500.
class SparseBenchmark final : public Benchmark {
 public:
  SparseBenchmark() {
    ParamSpace params;
    params.add(Parameter::range("a", 0, 127))
        .add(Parameter::range("b", 0, 127))
        .add(Parameter::range("c", 0, 127));
    ConstraintSet constraints;
    constraints.add("(a*b + c) % 499 == 0", {"a", "b", "c"},
                    [](const Config& c) {
                      return (c[0] * c[1] + c[2]) % 499 == 0;
                    });
    space_ = SearchSpace(std::move(params), std::move(constraints));
  }
  const std::string& name() const override { return name_; }
  const SearchSpace& space() const override { return space_; }
  std::size_t device_count() const override { return 1; }
  const std::string& device_name(DeviceIndex) const override { return name_; }
  Measurement evaluate(const Config& c, DeviceIndex) const override {
    if (c[2] % 5 == 0) {
      return Measurement::invalid(MeasureStatus::kInvalidDevice);
    }
    return Measurement::valid(1.0 + 0.5 * c[0] + c[1] + 0.25 * c[2]);
  }

 private:
  std::string name_ = "sparse";
  SearchSpace space_;
};

TEST(Runner, StreamExhaustiveOnAStreamedSpaceMatchesBruteForce) {
  const SparseBenchmark bench;
  const auto& space = bench.space();
  ASSERT_GT(space.cardinality(), ConfigIndex{1} << 20);
  ASSERT_FALSE(space.compiled().has_valid_set());

  std::vector<ConfigIndex> expected;
  for (ConfigIndex i = 0; i < space.cardinality(); ++i) {
    if (space.constraints().satisfied(space.params().config_at(i))) {
      expected.push_back(i);
    }
  }
  ASSERT_GT(expected.size(), 1000u);

  Dataset streamed(bench.name(), bench.device_name(0),
                   space.params().param_names());
  const auto rows = Runner::stream_exhaustive(
      bench, 0,
      [&](ConfigIndex index, const Config& config, const Measurement& m) {
        streamed.add(index, config, m);
      },
      333);  // several full batches and a partial last one
  EXPECT_EQ(rows, expected.size());
  expect_rows_match_serial_live(bench, streamed, expected);
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

TEST(CachingEvaluator, CacheHitsAreFree) {
  const auto bench = kernels::make("pnpoly");
  RecordingBackend backend(*bench);
  CachingEvaluator eval(backend, 10);
  const auto indices = sample_indices(*bench, 4, 4);

  (void)eval.evaluate_batch(indices);
  EXPECT_LE(eval.evaluations(), 4u);  // distinct only
  const std::size_t after_first = eval.evaluations();
  // All hits, whichever call asks: nothing is charged or sent.
  (void)eval.evaluate_batch(indices);
  for (const auto index : indices) (void)eval.evaluate_index(index);
  EXPECT_EQ(eval.evaluations(), after_first);
  EXPECT_EQ(backend.batches.size(), 1u);
}

#ifndef BAT_OBS_OFF
TEST(CachingEvaluator, OneConfigBatchesShareASpanAndLargerBatchesGetTheirOwn) {
  const auto bench = kernels::make("pnpoly");
  LiveBackend live(*bench, 0);
  const auto indices = sample_indices(*bench, 6, 6);
  const std::uint64_t id = obs::mint_trace_id();
  {
    obs::TraceScope scope(id);
    CachingEvaluator eval(live, 10);
    for (std::size_t i = 0; i < 3; ++i) {
      (void)eval.evaluate_index(indices[i]);
    }
    (void)eval.evaluate_batch(std::vector<ConfigIndex>{indices[3], indices[4]});
    (void)eval.evaluate_index(indices[5]);
  }  // the evaluator's destruction closes the last run
  const auto spans = obs::trace_buffer().for_trace(id);
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& span : spans) EXPECT_EQ(span.name, "backend.batch");
  EXPECT_EQ(spans[0].detail, "configs=1 batches=3");
  EXPECT_EQ(spans[1].detail, "configs=2");
  EXPECT_EQ(spans[2].detail, "configs=1 batches=1");
}
#endif  // BAT_OBS_OFF

TEST(CachingEvaluator, DuplicatesWithinABatchChargeOnce) {
  const auto bench = kernels::make("pnpoly");
  LiveBackend live(*bench, 0);
  CachingEvaluator eval(live, 10);
  const auto one = sample_indices(*bench, 1, 5);
  const auto results =
      eval.evaluate_batch(std::vector<ConfigIndex>{one[0], one[0], one[0]});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(eval.evaluations(), 1u);
  EXPECT_DOUBLE_EQ(results[0], results[2]);
}

TEST(CachingEvaluator, BudgetBoundaryIsExactForBatches) {
  const auto bench = kernels::make("pnpoly");
  const auto distinct = distinct_indices(*bench, 64, 6);
  ASSERT_GE(distinct.size(), 8u);

  RecordingBackend backend(*bench);
  CachingEvaluator eval(backend, 5);
  // A batch crossing the boundary sends the backend only the misses
  // that fit, records those entries, then throws.
  EXPECT_THROW((void)eval.evaluate_batch(std::span(distinct).first(8)),
               BudgetExhausted);
  EXPECT_EQ(eval.evaluations(), 5u);
  EXPECT_TRUE(eval.exhausted());
  ASSERT_EQ(backend.batches.size(), 1u);
  EXPECT_EQ(backend.batches[0],
            std::vector<ConfigIndex>(distinct.begin(), distinct.begin() + 5));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(eval.trace()[i].index, distinct[i]);
  }
  // Cache hits keep working after exhaustion; any further miss throws.
  // Neither reaches the backend.
  EXPECT_NO_THROW((void)eval.evaluate_index(distinct[0]));
  EXPECT_THROW((void)eval.evaluate_index(distinct[6]), BudgetExhausted);
  EXPECT_EQ(backend.batches.size(), 1u);
}

TEST(CachingEvaluator, BatchExactlyFillingBudgetDoesNotThrow) {
  const auto bench = kernels::make("pnpoly");
  const auto distinct = distinct_indices(*bench, 64, 7);
  ASSERT_GE(distinct.size(), 5u);

  LiveBackend live(*bench, 0);
  CachingEvaluator eval(live, 5);
  EXPECT_NO_THROW((void)eval.evaluate_batch(std::span(distinct).first(5)));
  EXPECT_EQ(eval.evaluations(), 5u);
  EXPECT_TRUE(eval.exhausted());
}

// What the backend is sent: each evaluator call sends at most one
// batch, holding only that call's first-occurrence misses, in order.
TEST(CachingEvaluator, BackendSeesOnlyFirstOccurrenceMissesOneBatchPerCall) {
  const auto bench = kernels::make("pnpoly");
  const auto d = distinct_indices(*bench, 64, 12);
  ASSERT_GE(d.size(), 6u);
  RecordingBackend backend(*bench);
  CachingEvaluator eval(backend, 10);

  (void)eval.evaluate_batch(
      std::vector<ConfigIndex>{d[0], d[1], d[0], d[2], d[1]});
  ASSERT_EQ(backend.batches.size(), 1u);
  EXPECT_EQ(backend.batches[0], (std::vector<ConfigIndex>{d[0], d[1], d[2]}));

  // A mixed call sends only its misses; a single miss is a batch of one.
  (void)eval.evaluate_batch(std::vector<ConfigIndex>{d[4], d[0], d[3], d[4]});
  (void)eval.evaluate_index(d[5]);
  ASSERT_EQ(backend.batches.size(), 3u);
  EXPECT_EQ(backend.batches[1], (std::vector<ConfigIndex>{d[4], d[3]}));
  EXPECT_EQ(backend.batches[2], (std::vector<ConfigIndex>{d[5]}));

  const std::vector<ConfigIndex> charged{d[0], d[1], d[2], d[4], d[3], d[5]};
  ASSERT_EQ(eval.trace().size(), charged.size());
  for (std::size_t i = 0; i < charged.size(); ++i) {
    EXPECT_EQ(eval.trace()[i].index, charged[i]);
  }
}

// A backend that throws mid-session must not strand its shared-cache
// claims: the evaluator abandons every claim it owned, and the next
// session evaluates those configurations itself.
TEST(CachingEvaluator, ThrowingBackendAbandonsClaimsAnotherSessionTakesOver) {
  const auto bench = kernels::make("pnpoly");
  const auto d = distinct_indices(*bench, 64, 14);
  ASSERT_GE(d.size(), 4u);
  const std::vector<ConfigIndex> wanted(d.begin(), d.begin() + 4);
  service::ShardedMeasurementCache shared(bench->space().compiled_shared());
  EvaluationHooks hooks;
  hooks.shared_cache = &shared;

  RecordingBackend broken(*bench);
  broken.fail = true;
  CachingEvaluator failing(broken, 10, hooks);
  EXPECT_THROW((void)failing.evaluate_batch(wanted), std::runtime_error);
  ASSERT_EQ(broken.batches.size(), 1u);
  EXPECT_EQ(broken.batches[0], wanted);  // it owned every claim
  EXPECT_EQ(failing.evaluations(), 0u);
  // Claims still owned would leave the next session waiting forever.
  ASSERT_EQ(shared.stats().abandoned, wanted.size());
  EXPECT_EQ(shared.stats().evaluations, 0u);

  RecordingBackend healthy(*bench);
  CachingEvaluator recovering(healthy, 10, hooks);
  (void)recovering.evaluate_batch(wanted);
  ASSERT_EQ(healthy.batches.size(), 1u);
  EXPECT_EQ(healthy.batches[0], wanted);  // re-claimed, evaluated itself
  EXPECT_EQ(shared.stats().evaluations, wanted.size());

  LiveBackend live(*bench, 0);
  CachingEvaluator standalone(live, 10);
  (void)standalone.evaluate_batch(wanted);
  ASSERT_EQ(recovering.trace().size(), standalone.trace().size());
  for (std::size_t i = 0; i < standalone.trace().size(); ++i) {
    EXPECT_EQ(recovering.trace()[i].index, standalone.trace()[i].index);
    EXPECT_EQ(recovering.trace()[i].objective,
              standalone.trace()[i].objective);
  }
}

TEST(CachingEvaluator, BatchedAndSerialProduceIdenticalTraces) {
  const auto bench = kernels::make("pnpoly");
  const auto indices = sample_indices(*bench, 30, 8);

  LiveBackend live_a(*bench, 0);
  CachingEvaluator serial(live_a, 100);
  for (const auto i : indices) (void)serial.evaluate_index(i);

  LiveBackend live_b(*bench, 0);
  CachingEvaluator batched(live_b, 100);
  (void)batched.evaluate_batch(indices);

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
  const auto indices = sample_indices(*bench, 40, 9);

  LiveBackend live(*bench, 0);
  CachingEvaluator live_eval(live, 25);
  ReplayBackend replay(bench->space(), ds);
  CachingEvaluator replay_eval(replay, 25);

  const auto drive = [&](CachingEvaluator& eval) {
    try {
      (void)eval.evaluate_batch(indices);
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
    const auto index = space.random_valid_index(rng);
    rows.push_back(index);
    ds.add(index, params.config_at(index),
           Measurement::valid(1.0 + static_cast<double>(i)));
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
