// Generational genetic algorithm: tournament selection, uniform
// crossover, per-parameter mutation, elitism. Genomes are the compiled
// space's mixed-radix digits: crossover swaps digits, mutation redraws
// one. Every generation of children depends only on the previous
// (already-evaluated) population, so it is evaluated in one evaluator
// call.
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

 protected:
  void optimize(core::CachingEvaluator& evaluator, common::Rng& rng) override;
};

}  // namespace bat::tuners
