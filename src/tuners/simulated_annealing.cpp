#include "tuners/simulated_annealing.hpp"

#include <cmath>

#include "core/compiled_space.hpp"

namespace bat::tuners {

namespace {

constexpr double kInitialTemperature = 1.0;  // relative to objective spread
constexpr double kCooling = 0.98;            // per-step multiplier
constexpr double kRestartTemperature = 1e-4;

}  // namespace

void SimulatedAnnealing::optimize(core::CachingEvaluator& evaluator,
                                  common::Rng& rng) {
  const auto& space = evaluator.space();
  const auto& compiled = space.compiled();
  core::NeighborScratch scratch;
  std::vector<core::ConfigIndex> neighbors;  // reused across steps
  while (true) {  // reheat loop
    core::ConfigIndex current = space.random_valid_index(rng);
    double current_obj = evaluator.evaluate_index(current);
    // Normalize temperature by the first observed objective so the same
    // schedule works across benchmarks with very different time scales.
    double scale = std::isfinite(current_obj) && current_obj > 0.0
                       ? current_obj
                       : 1.0;
    double temperature = kInitialTemperature;

    while (temperature > kRestartTemperature) {
      neighbors.clear();
      compiled.for_each_valid_neighbor_index(
          current, scratch,
          [&](core::ConfigIndex n) { neighbors.push_back(n); });
      if (neighbors.empty()) break;
      const auto candidate =
          neighbors[static_cast<std::size_t>(rng.next_below(neighbors.size()))];
      const double obj = evaluator.evaluate_index(candidate);
      const double delta = (obj - current_obj) / scale;
      if (delta <= 0.0 ||
          rng.uniform() < std::exp(-delta / temperature)) {
        current = candidate;
        current_obj = obj;
        if (std::isfinite(obj) && obj > 0.0) scale = obj;
      }
      temperature *= kCooling;
    }
  }
}

}  // namespace bat::tuners
