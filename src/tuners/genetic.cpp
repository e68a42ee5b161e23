#include "tuners/genetic.hpp"

#include <algorithm>

namespace bat::tuners {

namespace {

constexpr std::size_t kPopulation = 24;
constexpr double kCrossoverRate = 0.9;
constexpr double kMutationRate = 0.1;  // per parameter
constexpr std::size_t kTournament = 3;
constexpr std::size_t kElites = 2;

struct Individual {
  core::ConfigIndex index = 0;
  double objective = 0.0;
};

}  // namespace

void GeneticAlgorithm::optimize(core::CachingEvaluator& evaluator,
                                common::Rng& rng) {
  const auto& compiled = evaluator.space().compiled();
  std::vector<core::ConfigIndex> batch;  // the generation to evaluate
  batch.reserve(kPopulation);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    batch.push_back(compiled.random_valid_index(rng));
  }

  std::vector<Individual> population;  // elites, then evaluated children
  const auto tournament = [&]() -> const Individual& {
    const Individual* best = nullptr;
    for (std::size_t i = 0; i < kTournament; ++i) {
      const auto& contender = population[static_cast<std::size_t>(
          rng.next_below(population.size()))];
      if (best == nullptr || contender.objective < best->objective) {
        best = &contender;
      }
    }
    return *best;
  };

  std::vector<std::uint32_t> genome, mate;  // digit buffers, reused
  std::size_t stalled = 0;
  while (true) {
    const auto objectives = evaluate_generation(evaluator, batch, stalled);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      population.push_back(Individual{batch[i], objectives[i]});
    }
    std::sort(population.begin(), population.end(),
              [](const Individual& a, const Individual& b) {
                return a.objective < b.objective;
              });

    const std::size_t elites = std::min(kElites, population.size());
    batch.clear();
    while (batch.size() + elites < kPopulation) {
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
    population.resize(elites);  // carried over, objective known
  }
}

}  // namespace bat::tuners
