#include "tuners/ils.hpp"

#include <algorithm>

#include "tuners/local_search.hpp"

namespace bat::tuners {

namespace {

constexpr std::size_t kPerturbationStrength = 2;  // parameters re-randomized
constexpr std::size_t kMaxNoImprove = 4;  // perturbations before restart

}  // namespace

void IteratedLocalSearch::optimize(core::CachingEvaluator& evaluator,
                                   common::Rng& rng) {
  const auto& space = evaluator.space();
  const auto& compiled = space.compiled();
  DescentScratch scratch;
  std::vector<std::uint32_t> digits;

  while (true) {  // restart loop
    const core::ConfigIndex start = space.random_valid_index(rng);
    auto [incumbent, incumbent_obj] = descend(
        evaluator, rng, scratch, start, evaluator.evaluate_index(start));

    std::size_t no_improve = 0;
    while (no_improve < kMaxNoImprove) {
      // Perturb: re-randomize a few digits of the incumbent.
      compiled.decode_digits(incumbent, digits);
      const std::size_t k = std::min(kPerturbationStrength, digits.size());
      const auto picks = rng.sample_indices(digits.size(), k);
      for (const auto p : picks) {
        digits[p] =
            static_cast<std::uint32_t>(rng.next_below(compiled.radix(p)));
      }
      const core::ConfigIndex perturbed = compiled.index_of_digits(digits);
      if (!compiled.is_valid_index(perturbed)) continue;

      auto [candidate, candidate_obj] =
          descend(evaluator, rng, scratch, perturbed,
                  evaluator.evaluate_index(perturbed));
      if (candidate_obj < incumbent_obj) {
        incumbent = candidate;
        incumbent_obj = candidate_obj;
        no_improve = 0;
      } else {
        ++no_improve;
      }
    }
  }
}

}  // namespace bat::tuners
