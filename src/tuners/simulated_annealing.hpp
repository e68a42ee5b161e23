// Simulated annealing over the Hamming-1 neighborhood with geometric
// cooling (a standard optimizer in Kernel Tuner and KTT).
//
// Single-run mutable state: one instance per session, driven by one
// thread (see the ownership notes in tuners/tuner.hpp).
#pragma once

#include "tuners/tuner.hpp"

namespace bat::tuners {

class SimulatedAnnealing final : public Tuner {
 public:
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "annealing";
    return kName;
  }

 protected:
  void optimize(core::CachingEvaluator& evaluator, common::Rng& rng) override;
};

}  // namespace bat::tuners
