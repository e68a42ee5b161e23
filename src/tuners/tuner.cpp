#include "tuners/tuner.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"
#include "tuners/de.hpp"
#include "tuners/genetic.hpp"
#include "tuners/ils.hpp"
#include "tuners/local_search.hpp"
#include "tuners/pso.hpp"
#include "tuners/random_search.hpp"
#include "tuners/simulated_annealing.hpp"
#include "tuners/surrogate.hpp"

namespace bat::tuners {

void Tuner::run(core::CachingEvaluator& evaluator, common::Rng& rng) {
  try {
    optimize(evaluator, rng);
  } catch (const core::BudgetExhausted&) {
    // Normal termination: the evaluator refused the next measurement.
  }
}

std::span<const double> evaluate_generation(
    core::CachingEvaluator& evaluator, std::span<const core::ConfigIndex> batch,
    std::size_t& stalled) {
  constexpr std::size_t kMaxStallRounds = 128;
  if (evaluator.exhausted() || stalled >= kMaxStallRounds) {
    throw core::BudgetExhausted();
  }
  const std::size_t before = evaluator.evaluations();
  const auto objectives = evaluator.evaluate_batch(batch);
  stalled = evaluator.evaluations() == before ? stalled + 1 : 0;
  return objectives;
}

core::ConfigIndex snap(const core::CompiledSpace& compiled,
                       const std::vector<double>& position) {
  BAT_EXPECTS(position.size() == compiled.num_params());
  core::ConfigIndex index = 0;
  for (std::size_t p = 0; p < position.size(); ++p) {
    const auto hi = static_cast<double>(compiled.radix(p) - 1);
    // Clamped into [0, hi] (a NaN to 0, so the cast below is defined),
    // then rounded as std::llround rounds there, without the libm call:
    // the fraction of a double is exact, and ties round up.
    const double clamped = position[p] > 0.0 ? std::min(position[p], hi) : 0.0;
    const auto whole = static_cast<core::ConfigIndex>(clamped);
    const core::ConfigIndex digit =
        whole + (clamped - static_cast<double>(whole) >= 0.5 ? 1 : 0);
    index += digit * compiled.stride(p);
  }
  return index;
}

TuningRun run_tuner(Tuner& tuner, core::EvaluationBackend& backend,
                    std::size_t budget, std::uint64_t seed,
                    const core::EvaluationHooks& hooks) {
  core::CachingEvaluator evaluator(backend, budget, hooks);
  common::Rng rng(seed);
  tuner.run(evaluator, rng);
  TuningRun result;
  result.tuner = tuner.name();
  result.trace = evaluator.trace();
  result.best = evaluator.best();
  result.best_so_far = evaluator.best_so_far();
  result.cancelled = evaluator.cancelled();
  return result;
}

TuningRun run_tuner(Tuner& tuner, const core::Benchmark& bench,
                    core::DeviceIndex device, std::size_t budget,
                    std::uint64_t seed) {
  core::LiveBackend backend(bench, device);
  return run_tuner(tuner, backend, budget, seed);
}

std::unique_ptr<Tuner> make_tuner(const std::string& name) {
  if (name == "random") return std::make_unique<RandomSearch>();
  if (name == "local" || name == "basic") return std::make_unique<LocalSearch>();
  if (name == "annealing") return std::make_unique<SimulatedAnnealing>();
  if (name == "genetic") return std::make_unique<GeneticAlgorithm>();
  if (name == "ils") return std::make_unique<IteratedLocalSearch>();
  if (name == "pso") return std::make_unique<ParticleSwarm>();
  if (name == "de") return std::make_unique<DifferentialEvolution>();
  if (name == "surrogate") return std::make_unique<SurrogateTuner>();
  throw std::out_of_range("unknown tuner: " + name);
}

std::vector<std::string> tuner_names() {
  return {"random", "local",     "annealing", "genetic",
          "ils",    "pso",       "de",        "surrogate"};
}

}  // namespace bat::tuners
