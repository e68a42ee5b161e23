// Differential evolution (DE/rand/1/bin) on the value-index embedding:
// vectors live in the continuous per-parameter digit space and snap to
// the nearest configuration for evaluation (tuners::snap).
// Synchronous DE: each generation builds one trial per population
// member from the previous generation's vectors, the whole trial set is
// evaluated in one evaluator call, and selection follows.
//
// Single-run mutable state: one instance per session, driven by one
// thread (see the ownership notes in tuners/tuner.hpp).
#pragma once

#include "tuners/tuner.hpp"

namespace bat::tuners {

class DifferentialEvolution final : public Tuner {
 public:
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "de";
    return kName;
  }

 protected:
  void optimize(core::CachingEvaluator& evaluator, common::Rng& rng) override;
};

}  // namespace bat::tuners
