// Pure random search over valid configurations — the paper's convergence
// baseline (Fig 2). Batched: proposals are independent, so whole blocks
// of samples are evaluated through the backend in parallel. The trace is
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

  [[nodiscard]] bool batched() const override { return true; }

 protected:
  void start(const core::SearchSpace& space, common::Rng& rng) override;
  std::vector<core::ConfigIndex> ask(std::size_t remaining,
                                     common::Rng& rng) override;

 private:
  const core::CompiledSpace* compiled_ = nullptr;
};

}  // namespace bat::tuners
