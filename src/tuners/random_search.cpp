#include "tuners/random_search.hpp"

#include <algorithm>

namespace bat::tuners {

namespace {

constexpr std::size_t kBatch = 64;  // samples proposed per generation

}  // namespace

void RandomSearch::optimize(core::CachingEvaluator& evaluator,
                            common::Rng& rng) {
  const auto& compiled = evaluator.space().compiled();
  std::vector<core::ConfigIndex> batch;
  std::size_t stalled = 0;
  while (true) {
    const std::size_t remaining = evaluator.budget() - evaluator.evaluations();
    const std::size_t n = std::max<std::size_t>(1, std::min(kBatch, remaining));
    batch.clear();
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(compiled.random_valid_index(rng));
    }
    (void)evaluate_generation(evaluator, batch, stalled);
  }
}

}  // namespace bat::tuners
