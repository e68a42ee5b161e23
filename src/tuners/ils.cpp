#include "tuners/ils.hpp"

#include <algorithm>

#include "core/compiled_space.hpp"

namespace bat::tuners {

namespace {

constexpr std::size_t kPerturbationStrength = 2;  // parameters re-randomized
constexpr std::size_t kMaxNoImprove = 4;  // perturbations before restart

/// Shared per-run buffers so descents allocate nothing per step.
struct IlsScratch {
  core::NeighborScratch neighbor;
  std::vector<core::ConfigIndex> neighbors;
  std::vector<std::uint32_t> digits;
};

/// Greedy first-improvement descent from `start`; returns the local
/// minimum and its objective. Index-native: candidates stay ConfigIndex.
std::pair<core::ConfigIndex, double> descend(core::CachingEvaluator& evaluator,
                                             const core::CompiledSpace& compiled,
                                             common::Rng& rng,
                                             IlsScratch& scratch,
                                             core::ConfigIndex start,
                                             double start_obj) {
  core::ConfigIndex current = start;
  double current_obj = start_obj;
  bool improved = true;
  while (improved) {
    improved = false;
    scratch.neighbors.clear();
    compiled.for_each_valid_neighbor_index(
        current, scratch.neighbor,
        [&](core::ConfigIndex n) { scratch.neighbors.push_back(n); });
    rng.shuffle(scratch.neighbors);
    for (const auto candidate : scratch.neighbors) {
      const double obj = evaluator.evaluate_index(candidate);
      if (obj < current_obj) {
        current = candidate;
        current_obj = obj;
        improved = true;
        break;
      }
    }
  }
  return {current, current_obj};
}

}  // namespace

void IteratedLocalSearch::optimize(core::CachingEvaluator& evaluator,
                                   common::Rng& rng) {
  const auto& space = evaluator.space();
  const auto& compiled = space.compiled();
  IlsScratch scratch;

  while (true) {  // restart loop
    const core::ConfigIndex start = space.random_valid_index(rng);
    auto [incumbent, incumbent_obj] = descend(
        evaluator, compiled, rng, scratch, start,
        evaluator.evaluate_index(start));

    std::size_t no_improve = 0;
    while (no_improve < kMaxNoImprove) {
      // Perturb: re-randomize a few digits of the incumbent.
      compiled.decode_digits(incumbent, scratch.digits);
      const std::size_t k =
          std::min(kPerturbationStrength, scratch.digits.size());
      const auto picks = rng.sample_indices(scratch.digits.size(), k);
      for (const auto p : picks) {
        scratch.digits[p] =
            static_cast<std::uint32_t>(rng.next_below(compiled.radix(p)));
      }
      const core::ConfigIndex perturbed =
          compiled.index_of_digits(scratch.digits);
      if (!compiled.is_valid_index(perturbed)) continue;

      auto [candidate, candidate_obj] = descend(
          evaluator, compiled, rng, scratch, perturbed,
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
