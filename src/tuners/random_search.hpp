// Pure random search over valid configurations — the paper's convergence
// baseline (Fig 2). Proposals are independent, so each generation is a
// block of samples evaluated in one evaluator call. The trace is
// identical to sampling one configuration at a time (same rng stream,
// first-occurrence charging).
//
// Single-run mutable state: one instance per session, driven by one
// thread (see the ownership notes in tuners/tuner.hpp).
#pragma once

#include "tuners/tuner.hpp"

namespace bat::tuners {

class RandomSearch final : public Tuner {
 public:
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "random";
    return kName;
  }

 protected:
  void optimize(core::CachingEvaluator& evaluator, common::Rng& rng) override;
};

}  // namespace bat::tuners
