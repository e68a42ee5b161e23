// Randomized first-improvement local search with random restarts.
//
// This is the algorithm whose dynamics the fitness-flow graph models
// (paper §II-B2): from a random valid start, visit Hamming-1 neighbors in
// random order and move to the first strictly better one; restart when a
// local minimum is reached. Also serves as BAT's "basic reference tuner".
//
// Single-run mutable state: one instance per session, driven by one
// thread (see the ownership notes in tuners/tuner.hpp).
#pragma once

#include <utility>
#include <vector>

#include "tuners/tuner.hpp"

namespace bat::tuners {

/// Reusable buffers for descend(), so a descent allocates nothing per
/// step.
struct DescentScratch {
  core::NeighborScratch neighbor;
  std::vector<core::ConfigIndex> neighbors;
};

/// Greedy first-improvement descent from `start`, whose objective is
/// `start_obj`: visits the valid Hamming-1 neighbors in random order,
/// moves to the first strictly better one and repeats until none is.
/// Returns the local minimum and its objective. LocalSearch restarts it
/// from random configurations, IteratedLocalSearch from perturbations.
std::pair<core::ConfigIndex, double> descend(
    core::CachingEvaluator& evaluator, common::Rng& rng,
    DescentScratch& scratch, core::ConfigIndex start, double start_obj);

class LocalSearch final : public Tuner {
 public:
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "local";
    return kName;
  }

 protected:
  void optimize(core::CachingEvaluator& evaluator, common::Rng& rng) override;
};

}  // namespace bat::tuners
