// Sequential model-based search (SMAC-style): fit a GBDT surrogate on the
// evaluations so far, screen a pool of random candidates through it, and
// spend real evaluations only on the most promising ones (with
// epsilon-greedy exploration).
//
// Single-run mutable state: one instance per session, driven by one
// thread (see the ownership notes in tuners/tuner.hpp).
#pragma once

#include "tuners/tuner.hpp"

namespace bat::tuners {

class SurrogateTuner final : public Tuner {
 public:
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "surrogate";
    return kName;
  }

 protected:
  void optimize(core::CachingEvaluator& evaluator, common::Rng& rng) override;
};

}  // namespace bat::tuners
