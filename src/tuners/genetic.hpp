// Generational genetic algorithm: tournament selection, uniform
// crossover, per-parameter mutation, elitism. Genomes are the compiled
// space's mixed-radix digits: crossover swaps digits, mutation redraws
// one. Batched: every ask() breeds a full generation of children whose
// genomes depend only on the previous (already-evaluated) population,
// so the whole generation is evaluated through the backend in one
// parallel batch.
//
// Single-run mutable state: one instance per session, driven by one
// thread (see the ownership notes in tuners/tuner.hpp).
#pragma once

#include "tuners/tuner.hpp"

namespace bat::tuners {

class GeneticAlgorithm final : public Tuner {
 public:
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "genetic";
    return kName;
  }

  [[nodiscard]] bool batched() const override { return true; }

 protected:
  void start(const core::SearchSpace& space, common::Rng& rng) override;
  std::vector<core::ConfigIndex> ask(std::size_t remaining,
                                     common::Rng& rng) override;
  void tell(const std::vector<core::ConfigIndex>& batch,
            const std::vector<double>& objectives, common::Rng& rng) override;

 private:
  struct Individual {
    core::ConfigIndex index = 0;
    double objective = 0.0;
  };

  const core::CompiledSpace* compiled_ = nullptr;
  std::vector<Individual> population_;  // previous generation, evaluated
  std::vector<Individual> elites_;     // carried over, objective known
};

}  // namespace bat::tuners
