#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

namespace bat::common {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> counts(1000);
  parallel_for(0, counts.size(), [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunksAreContiguousAndCoverRange) {
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunked(10, 250,
                       [&](std::size_t lo, std::size_t hi, std::size_t) {
                         std::lock_guard lock(m);
                         chunks.emplace_back(lo, hi);
                       });
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks.front().first, 10u);
  EXPECT_EQ(chunks.back().second, 250u);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
  }
}

TEST(ThreadPool, WorkerExceptionsPropagate) {
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t i) {
                              if (i == 57) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, ReentrantUseFromResultsIsSafeSequentially) {
  // Two back-to-back parallel loops must both run to completion.
  std::atomic<int> first{0}, second{0};
  parallel_for(0, 100, [&](std::size_t) { first++; });
  parallel_for(0, 200, [&](std::size_t) { second++; });
  EXPECT_EQ(first.load(), 100);
  EXPECT_EQ(second.load(), 200);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // Every task of the outer loop starts a nested loop on the same pool.
  // Nested calls must degrade to inline execution on the calling worker;
  // with queue re-entry this deadlocks as soon as all workers block.
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 16, [&](std::size_t) { inner_total++; });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, NestedCallOnGlobalPoolFromWorkerIsInline) {
  // Same property through the free functions (the global pool), the path
  // composed code (tuner run -> GBDT fit -> parallel_for) actually takes.
  std::atomic<int> total{0};
  parallel_for(0, 4, [&](std::size_t) {
    parallel_for(0, 32, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 4 * 32);
}

TEST(ThreadPool, SingleElementRange) {
  int count = 0;
  parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace bat::common
