#include "tuners/random_search.hpp"

#include <algorithm>

namespace bat::tuners {

namespace {

constexpr std::size_t kBatch = 64;  // samples proposed per ask()

}  // namespace

void RandomSearch::start(const core::SearchSpace& space, common::Rng&) {
  compiled_ = &space.compiled();
}

std::vector<core::ConfigIndex> RandomSearch::ask(std::size_t remaining,
                                                 common::Rng& rng) {
  const std::size_t n = std::max<std::size_t>(1, std::min(kBatch, remaining));
  std::vector<core::ConfigIndex> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(compiled_->random_valid_index(rng));
  }
  return batch;
}

}  // namespace bat::tuners
