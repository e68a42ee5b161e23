// Particle swarm optimization on the value-index embedding: particles
// move in the continuous per-parameter digit space and snap to the
// nearest configuration for evaluation (tuners::snap). Batched
// (synchronous PSO): every ask() moves the whole swarm and the
// generation is evaluated through the backend in one parallel batch;
// personal/global bests update in tell().
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

  [[nodiscard]] bool batched() const override { return true; }

 protected:
  void start(const core::SearchSpace& space, common::Rng& rng) override;
  std::vector<core::ConfigIndex> ask(std::size_t remaining,
                                     common::Rng& rng) override;
  void tell(const std::vector<core::ConfigIndex>& batch,
            const std::vector<double>& objectives, common::Rng& rng) override;

 private:
  struct Particle {
    std::vector<double> position;
    std::vector<double> velocity;
    std::vector<double> best_position;
    double best_objective;
  };

  static constexpr std::size_t kInvalidSlot = static_cast<std::size_t>(-1);

  void move_swarm(common::Rng& rng);
  /// Snaps every particle, fills slots_ (kInvalidSlot for constraint
  /// violations) and returns the valid configurations to evaluate.
  std::vector<core::ConfigIndex> snap_swarm();

  const core::CompiledSpace* compiled_ = nullptr;
  std::vector<Particle> swarm_;
  std::vector<double> global_best_position_;
  double global_best_ = 0.0;
  std::vector<std::size_t> slots_;  // particle -> batch slot
  bool seeded_ = false;             // first ask() evaluates init positions
};

}  // namespace bat::tuners
