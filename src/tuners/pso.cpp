#include "tuners/pso.hpp"

#include <limits>

namespace bat::tuners {

namespace {

constexpr std::size_t kParticles = 16;
constexpr double kInertia = 0.7;
constexpr double kCognitive = 1.5;
constexpr double kSocial = 1.5;
constexpr std::size_t kInvalidSlot = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Particle {
  std::vector<double> position;
  std::vector<double> velocity;
  std::vector<double> best_position;
  double best_objective = kInf;
};

}  // namespace

void ParticleSwarm::optimize(core::CachingEvaluator& evaluator,
                             common::Rng& rng) {
  const auto& compiled = evaluator.space().compiled();
  const std::size_t dims = compiled.num_params();

  std::vector<Particle> swarm(kParticles);
  std::vector<double> global_best_position(dims, 0.0);
  double global_best = kInf;
  std::vector<std::uint32_t> digits;
  for (auto& particle : swarm) {
    particle.position.resize(dims);
    particle.velocity.resize(dims);
    compiled.decode_digits(compiled.random_valid_index(rng), digits);
    for (std::size_t p = 0; p < dims; ++p) {
      particle.position[p] = static_cast<double>(digits[p]);
      const auto span = static_cast<double>(compiled.radix(p));
      particle.velocity[p] = rng.uniform(-span * 0.25, span * 0.25);
    }
    particle.best_position = particle.position;
  }

  const auto move_swarm = [&] {
    for (auto& particle : swarm) {
      for (std::size_t p = 0; p < dims; ++p) {
        const double r1 = rng.uniform();
        const double r2 = rng.uniform();
        particle.velocity[p] =
            kInertia * particle.velocity[p] +
            kCognitive * r1 *
                (particle.best_position[p] - particle.position[p]) +
            kSocial * r2 * (global_best_position[p] - particle.position[p]);
        particle.position[p] += particle.velocity[p];
      }
    }
  };

  // Snaps every particle: batch holds the valid configurations to
  // evaluate, slots maps each particle to its batch slot (kInvalidSlot
  // for a constraint violation).
  std::vector<core::ConfigIndex> batch;
  std::vector<std::size_t> slots;
  const auto snap_swarm = [&] {
    batch.clear();
    slots.assign(swarm.size(), kInvalidSlot);
    for (std::size_t i = 0; i < swarm.size(); ++i) {
      const core::ConfigIndex index = snap(compiled, swarm[i].position);
      if (compiled.is_valid_index(index)) {
        slots[i] = batch.size();
        batch.push_back(index);
      }
    }
  };

  snap_swarm();  // the first generation: the freshly seeded, valid positions
  std::size_t stalled = 0;
  while (true) {
    const auto objectives = evaluate_generation(evaluator, batch, stalled);
    for (std::size_t i = 0; i < swarm.size(); ++i) {
      auto& particle = swarm[i];
      const double obj =
          slots[i] == kInvalidSlot ? kInf : objectives[slots[i]];
      if (obj < particle.best_objective) {
        particle.best_objective = obj;
        particle.best_position = particle.position;
      }
      if (obj < global_best) {
        global_best = obj;
        global_best_position = particle.position;
      }
    }

    move_swarm();
    snap_swarm();
    // An all-invalid swarm means nothing to evaluate this round (invalid
    // positions score +inf, which never improves a best); keep moving
    // until a particle lands on a valid configuration. A swarm frozen in
    // an invalid region will never recover — give up and end the run.
    for (int attempts = 0; batch.empty() && attempts < 1000; ++attempts) {
      move_swarm();
      snap_swarm();
    }
    if (batch.empty()) return;
  }
}

}  // namespace bat::tuners
