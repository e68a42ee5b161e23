// Particle swarm optimization on the value-index embedding: particles
// move in the continuous per-parameter digit space and snap to the
// nearest configuration for evaluation (tuners::snap). Synchronous PSO:
// each generation moves the whole swarm and is evaluated in one
// evaluator call, then personal/global bests update.
//
// Single-run mutable state: one instance per session, driven by one
// thread (see the ownership notes in tuners/tuner.hpp).
#pragma once

#include "tuners/tuner.hpp"

namespace bat::tuners {

class ParticleSwarm final : public Tuner {
 public:
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "pso";
    return kName;
  }

 protected:
  void optimize(core::CachingEvaluator& evaluator, common::Rng& rng) override;
};

}  // namespace bat::tuners
