#include "tuners/genetic.hpp"

#include <algorithm>

namespace bat::tuners {

namespace {

constexpr std::size_t kPopulation = 24;
constexpr double kCrossoverRate = 0.9;
constexpr double kMutationRate = 0.1;  // per parameter
constexpr std::size_t kTournament = 3;
constexpr std::size_t kElites = 2;

}  // namespace

void GeneticAlgorithm::start(const core::SearchSpace& space, common::Rng&) {
  compiled_ = &space.compiled();
  population_.clear();
  elites_.clear();
}

std::vector<core::ConfigIndex> GeneticAlgorithm::ask(std::size_t,
                                                     common::Rng& rng) {
  const auto& compiled = *compiled_;
  std::vector<core::ConfigIndex> batch;

  if (population_.empty()) {  // initial generation
    batch.reserve(kPopulation);
    for (std::size_t i = 0; i < kPopulation; ++i) {
      batch.push_back(compiled.random_valid_index(rng));
    }
    return batch;
  }

  std::sort(population_.begin(), population_.end(),
            [](const Individual& a, const Individual& b) {
              return a.objective < b.objective;
            });
  elites_.assign(population_.begin(),
                 population_.begin() +
                     static_cast<std::ptrdiff_t>(
                         std::min(kElites, population_.size())));

  const auto tournament = [&]() -> const Individual& {
    const Individual* best = nullptr;
    for (std::size_t i = 0; i < kTournament; ++i) {
      const auto& contender =
          population_[static_cast<std::size_t>(
              rng.next_below(population_.size()))];
      if (best == nullptr || contender.objective < best->objective) {
        best = &contender;
      }
    }
    return *best;
  };

  batch.reserve(kPopulation - elites_.size());
  std::vector<std::uint32_t> genome, mate;  // digit buffers, reused
  while (batch.size() + elites_.size() < kPopulation) {
    const Individual& a = tournament();
    const Individual& b = tournament();
    compiled.decode_digits(a.index, genome);
    if (rng.uniform() < kCrossoverRate) {
      compiled.decode_digits(b.index, mate);
      for (std::size_t p = 0; p < genome.size(); ++p) {
        if (rng.bernoulli(0.5)) genome[p] = mate[p];
      }
    }
    for (std::size_t p = 0; p < genome.size(); ++p) {
      if (rng.uniform() < kMutationRate) {
        genome[p] =
            static_cast<std::uint32_t>(rng.next_below(compiled.radix(p)));
      }
    }
    core::ConfigIndex child = compiled.index_of_digits(genome);
    if (!compiled.is_valid_index(child)) {
      // Repair by resampling a fresh valid configuration: simple and
      // unbiased, mirroring Kernel Tuner's GA handling of constraints.
      child = compiled.random_valid_index(rng);
    }
    batch.push_back(child);
  }
  return batch;
}

void GeneticAlgorithm::tell(const std::vector<core::ConfigIndex>& batch,
                            const std::vector<double>& objectives,
                            common::Rng&) {
  std::vector<Individual> next = std::move(elites_);
  elites_.clear();
  next.reserve(next.size() + batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    next.push_back(Individual{batch[i], objectives[i]});
  }
  population_ = std::move(next);
}

}  // namespace bat::tuners
