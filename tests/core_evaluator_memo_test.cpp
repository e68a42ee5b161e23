// The CachingEvaluator's memo: hits allocate nothing, and growth keeps
// every entry.
//
// Global operator new and delete are replaced by counting versions (both,
// so that a sanitizer sees matched malloc/free pairs); the count is per
// thread, so idle pool workers cannot disturb it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "core/backend.hpp"
#include "core/compiled_space.hpp"
#include "core/evaluator.hpp"
#include "kernels/all_kernels.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

}  // namespace

// Not inlined: inlined into a caller, the free() would meet the
// operator new result there and trip -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bat::core {
namespace {

TEST(CachingEvaluatorMemo, HitsOnAWarmedEvaluatorAllocateNothing) {
  const auto bench = kernels::make("pnpoly");
  common::Rng rng(3);
  std::vector<ConfigIndex> batch;
  for (std::size_t i = 0; i < 20; ++i) {
    batch.push_back(bench->space().compiled().random_valid_index(rng));
  }
  LiveBackend live(*bench, 0);
  CachingEvaluator eval(live, 100);
  (void)eval.evaluate_batch(batch);  // every index traced, buffers sized
  const std::size_t traced = eval.evaluations();

  double sum = 0.0;
  std::size_t before = t_allocations;
  for (std::size_t i = 0; i < 10'000; ++i) {
    sum += eval.evaluate_index(batch[i % batch.size()]);
  }
  const std::size_t index_allocations = t_allocations - before;

  before = t_allocations;
  for (std::size_t i = 0; i < 1'000; ++i) {
    sum += eval.evaluate_batch(batch)[i % batch.size()];
  }
  const std::size_t batch_allocations = t_allocations - before;

  EXPECT_EQ(index_allocations, 0u);
  EXPECT_EQ(batch_allocations, 0u);
  EXPECT_EQ(eval.evaluations(), traced);
  EXPECT_GT(sum, 0.0);
}

TEST(CachingEvaluatorMemo, GrowthKeepsEveryHitExact) {
  // A budget above 2^16 starts the memo at 2^17 slots; 150,000 distinct
  // evaluations grow it twice. Live expdist has 518,400 valid
  // configurations to draw them from. Each call also re-asks earlier
  // indices and repeats one of its own, and every result must equal
  // what the backend itself measures for that index.
  const auto bench = kernels::make("expdist");
  auto valid = bench->space().compiled().enumerate_valid();
  ASSERT_EQ(valid.size(), 518'400u);
  common::Rng rng(5);
  rng.shuffle(valid);
  constexpr std::size_t kDistinct = 150'000;
  constexpr std::size_t kFresh = 1'000;  // new indices per call

  LiveBackend live(*bench, 0);
  LiveBackend reference(*bench, 0);
  CachingEvaluator eval(live, 200'000);
  std::vector<ConfigIndex> batch;
  std::size_t mismatches = 0;
  for (std::size_t lo = 0; lo < kDistinct; lo += kFresh) {
    batch.assign(valid.begin() + static_cast<std::ptrdiff_t>(lo),
                 valid.begin() + static_cast<std::ptrdiff_t>(lo + kFresh));
    for (std::size_t k = 0; k < 24 && k < lo; ++k) {
      batch.push_back(valid[rng.next_below(lo)]);
    }
    batch.push_back(batch.front());
    const auto results = eval.evaluate_batch(batch);
    const auto expected = reference.evaluate_batch(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(results[i]) !=
          std::bit_cast<std::uint64_t>(expected[i].objective())) {
        ++mismatches;
      }
    }
    ASSERT_EQ(eval.evaluations(), lo + kFresh);
  }
  EXPECT_EQ(mismatches, 0u);

  // Every traced index is now a hit that returns its traced objective.
  const std::vector<TraceEntry> trace = eval.trace();
  ASSERT_EQ(trace.size(), kDistinct);
  std::size_t misplaced = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(eval.evaluate_index(trace[i].index)) !=
        std::bit_cast<std::uint64_t>(trace[i].objective)) {
      ++mismatches;
    }
    if (trace[i].index != valid[i]) ++misplaced;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(misplaced, 0u);
  EXPECT_EQ(eval.evaluations(), kDistinct);
}

}  // namespace
}  // namespace bat::core
