// Greedy iterated local search (ILS): hill-climb to a local minimum,
// perturb a few parameters of the incumbent, climb again; accept the new
// local minimum if it improves. Matches the GreedyILS family evaluated by
// Schoonhoven et al.
//
// Single-run mutable state: one instance per session, driven by one
// thread (see the ownership notes in tuners/tuner.hpp).
#pragma once

#include "tuners/tuner.hpp"

namespace bat::tuners {

class IteratedLocalSearch final : public Tuner {
 public:
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "ils";
    return kName;
  }

 protected:
  void optimize(core::CachingEvaluator& evaluator, common::Rng& rng) override;
};

}  // namespace bat::tuners
