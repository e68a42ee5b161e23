#include "tuners/de.hpp"

#include <algorithm>
#include <limits>
#include <span>

namespace bat::tuners {

namespace {

constexpr std::size_t kPopulation = 20;
static_assert(kPopulation >= 4, "each member needs three distinct partners");
constexpr double kWeight = 0.6;         // F
constexpr double kCrossoverRate = 0.8;  // CR
constexpr std::size_t kInvalidSlot = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void DifferentialEvolution::optimize(core::CachingEvaluator& evaluator,
                                     common::Rng& rng) {
  const auto& compiled = evaluator.space().compiled();
  const std::size_t dims = compiled.num_params();
  constexpr std::size_t n = kPopulation;

  std::vector<std::vector<double>> population(n, std::vector<double>(dims));
  std::vector<double> objective(n, kInf);
  std::vector<std::uint32_t> digits;
  for (auto& member : population) {
    compiled.decode_digits(compiled.random_valid_index(rng), digits);
    std::copy(digits.begin(), digits.end(), member.begin());
  }

  // One generation: trials[i] competes with population[i]; batch holds
  // the constraint-valid trials to evaluate and slots maps each member to
  // its trial's batch slot (kInvalidSlot for a constraint violation).
  // Every generation overwrites every trial coordinate, so the trials
  // are allocated once, as copies of the first generation.
  std::vector<std::vector<double>> trials = population;
  std::vector<core::ConfigIndex> batch;
  std::vector<std::size_t> slots;

  const auto breed = [&] {
    batch.clear();
    slots.assign(n, kInvalidSlot);
    for (std::size_t i = 0; i < n; ++i) {
      // Pick three distinct partners != i.
      std::size_t a, b, c;
      do { a = rng.next_below(n); } while (a == i);
      do { b = rng.next_below(n); } while (b == i || b == a);
      do { c = rng.next_below(n); } while (c == i || c == a || c == b);

      auto& trial = trials[i];
      const std::size_t forced = rng.next_below(dims);
      for (std::size_t p = 0; p < dims; ++p) {
        if (p == forced || rng.uniform() < kCrossoverRate) {
          trial[p] = population[a][p] +
                     kWeight * (population[b][p] - population[c][p]);
        } else {
          trial[p] = population[i][p];
        }
      }
      const core::ConfigIndex index = snap(compiled, trial);
      if (compiled.is_valid_index(index)) {
        slots[i] = batch.size();
        batch.push_back(index);
      }
    }
  };

  // Keeps each trial that scores no worse than its member.
  const auto select = [&](std::span<const double> objectives) {
    for (std::size_t i = 0; i < n; ++i) {
      const double obj =
          slots[i] == kInvalidSlot ? kInf : objectives[slots[i]];
      if (obj <= objective[i]) {
        population[i] = trials[i];
        objective[i] = obj;
      }
    }
  };

  // The first generation is the initial population itself (valid by
  // construction); selection keeps every member (obj <= +inf).
  for (std::size_t i = 0; i < n; ++i) {
    slots.push_back(batch.size());
    batch.push_back(snap(compiled, population[i]));
  }
  std::size_t stalled = 0;
  while (true) {
    select(evaluate_generation(evaluator, batch, stalled));
    breed();
    // An all-invalid generation evaluates nothing: apply the (+inf)
    // trial selection directly and breed again (bounded — a population
    // frozen in an invalid region will never recover; end the run).
    for (int attempts = 0; batch.empty() && attempts < 1000; ++attempts) {
      select({});
      breed();
    }
    if (batch.empty()) return;
  }
}

}  // namespace bat::tuners
