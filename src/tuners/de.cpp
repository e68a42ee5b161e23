#include "tuners/de.hpp"

#include <algorithm>
#include <limits>

namespace bat::tuners {

namespace {

constexpr std::size_t kPopulation = 20;
static_assert(kPopulation >= 4, "each member needs three distinct partners");
constexpr double kWeight = 0.6;         // F
constexpr double kCrossoverRate = 0.8;  // CR

}  // namespace

void DifferentialEvolution::start(const core::SearchSpace& space,
                                  common::Rng& rng) {
  compiled_ = &space.compiled();
  const std::size_t dims = compiled_->num_params();

  population_.assign(kPopulation, std::vector<double>(dims));
  objective_.assign(kPopulation, std::numeric_limits<double>::infinity());
  trials_.clear();
  slots_.clear();
  seeded_ = false;

  std::vector<std::uint32_t> digits;
  for (auto& member : population_) {
    compiled_->decode_digits(compiled_->random_valid_index(rng), digits);
    std::copy(digits.begin(), digits.end(), member.begin());
  }
}

std::vector<core::ConfigIndex> DifferentialEvolution::breed(common::Rng& rng) {
  const std::size_t dims = compiled_->num_params();
  const std::size_t n = population_.size();

  std::vector<core::ConfigIndex> batch;
  trials_.assign(n, std::vector<double>(dims));
  slots_.assign(n, kInvalidSlot);

  for (std::size_t i = 0; i < n; ++i) {
    // Pick three distinct partners != i.
    std::size_t a, b, c;
    do { a = rng.next_below(n); } while (a == i);
    do { b = rng.next_below(n); } while (b == i || b == a);
    do { c = rng.next_below(n); } while (c == i || c == a || c == b);

    auto& trial = trials_[i];
    const std::size_t forced = rng.next_below(dims);
    for (std::size_t p = 0; p < dims; ++p) {
      if (p == forced || rng.uniform() < kCrossoverRate) {
        trial[p] = population_[a][p] +
                   kWeight * (population_[b][p] - population_[c][p]);
      } else {
        trial[p] = population_[i][p];
      }
    }
    const core::ConfigIndex index = snap(*compiled_, trial);
    if (compiled_->is_valid_index(index)) {
      slots_[i] = batch.size();
      batch.push_back(index);
    }
  }
  return batch;
}

void DifferentialEvolution::select(const std::vector<double>& objectives) {
  for (std::size_t i = 0; i < population_.size(); ++i) {
    const double obj = slots_[i] == kInvalidSlot
                           ? std::numeric_limits<double>::infinity()
                           : objectives[slots_[i]];
    if (obj <= objective_[i]) {
      population_[i] = trials_[i];
      objective_[i] = obj;
    }
  }
}

std::vector<core::ConfigIndex> DifferentialEvolution::ask(std::size_t,
                                                          common::Rng& rng) {
  if (!seeded_) {
    // Evaluate the initial population (valid by construction).
    seeded_ = true;
    std::vector<core::ConfigIndex> batch;
    batch.reserve(population_.size());
    slots_.assign(population_.size(), kInvalidSlot);
    for (std::size_t i = 0; i < population_.size(); ++i) {
      slots_[i] = batch.size();
      batch.push_back(snap(*compiled_, population_[i]));
    }
    trials_ = population_;  // selection keeps them (obj <= +inf)
    return batch;
  }

  auto batch = breed(rng);
  // An all-invalid generation evaluates nothing: apply the (+inf) trial
  // selection directly and breed again (bounded — a population frozen in
  // an invalid region will never recover; an empty batch ends the run).
  for (int attempts = 0; batch.empty() && attempts < 1000; ++attempts) {
    select({});
    batch = breed(rng);
  }
  return batch;
}

void DifferentialEvolution::tell(const std::vector<core::ConfigIndex>&,
                                 const std::vector<double>& objectives,
                                 common::Rng&) {
  select(objectives);
}

}  // namespace bat::tuners
