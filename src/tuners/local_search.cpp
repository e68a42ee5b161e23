#include "tuners/local_search.hpp"

namespace bat::tuners {

std::pair<core::ConfigIndex, double> descend(core::CachingEvaluator& evaluator,
                                             common::Rng& rng,
                                             DescentScratch& scratch,
                                             core::ConfigIndex start,
                                             double start_obj) {
  const auto& compiled = evaluator.space().compiled();
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
      if (obj < current_obj) {  // first improvement
        current = candidate;
        current_obj = obj;
        improved = true;
        break;
      }
    }
  }
  return {current, current_obj};
}

void LocalSearch::optimize(core::CachingEvaluator& evaluator,
                           common::Rng& rng) {
  DescentScratch scratch;
  while (true) {  // restart loop; budget exhaustion exits via exception
    const core::ConfigIndex start = evaluator.space().random_valid_index(rng);
    descend(evaluator, rng, scratch, start, evaluator.evaluate_index(start));
  }
}

}  // namespace bat::tuners
