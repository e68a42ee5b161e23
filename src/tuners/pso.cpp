#include "tuners/pso.hpp"

#include <limits>

namespace bat::tuners {

namespace {

constexpr std::size_t kParticles = 16;
constexpr double kInertia = 0.7;
constexpr double kCognitive = 1.5;
constexpr double kSocial = 1.5;

}  // namespace

void ParticleSwarm::start(const core::SearchSpace& space, common::Rng& rng) {
  compiled_ = &space.compiled();
  const std::size_t dims = compiled_->num_params();

  swarm_.assign(kParticles, Particle{});
  global_best_position_.assign(dims, 0.0);
  global_best_ = std::numeric_limits<double>::infinity();
  slots_.clear();
  seeded_ = false;

  std::vector<std::uint32_t> digits;
  for (auto& particle : swarm_) {
    particle.position.resize(dims);
    particle.velocity.resize(dims);
    particle.best_objective = std::numeric_limits<double>::infinity();
    compiled_->decode_digits(compiled_->random_valid_index(rng), digits);
    for (std::size_t p = 0; p < dims; ++p) {
      particle.position[p] = static_cast<double>(digits[p]);
      const auto span = static_cast<double>(compiled_->radix(p));
      particle.velocity[p] = rng.uniform(-span * 0.25, span * 0.25);
    }
    particle.best_position = particle.position;
  }
}

void ParticleSwarm::move_swarm(common::Rng& rng) {
  const std::size_t dims = compiled_->num_params();
  for (auto& particle : swarm_) {
    for (std::size_t p = 0; p < dims; ++p) {
      const double r1 = rng.uniform();
      const double r2 = rng.uniform();
      particle.velocity[p] =
          kInertia * particle.velocity[p] +
          kCognitive * r1 * (particle.best_position[p] - particle.position[p]) +
          kSocial * r2 * (global_best_position_[p] - particle.position[p]);
      particle.position[p] += particle.velocity[p];
    }
  }
}

std::vector<core::ConfigIndex> ParticleSwarm::snap_swarm() {
  std::vector<core::ConfigIndex> batch;
  slots_.assign(swarm_.size(), kInvalidSlot);
  for (std::size_t i = 0; i < swarm_.size(); ++i) {
    const core::ConfigIndex index = snap(*compiled_, swarm_[i].position);
    if (compiled_->is_valid_index(index)) {
      slots_[i] = batch.size();
      batch.push_back(index);
    }
  }
  return batch;
}

std::vector<core::ConfigIndex> ParticleSwarm::ask(std::size_t,
                                                  common::Rng& rng) {
  if (seeded_) {
    move_swarm(rng);
  } else {
    seeded_ = true;  // evaluate the freshly-seeded (valid) positions first
  }
  auto batch = snap_swarm();
  // An all-invalid swarm means nothing to evaluate this round (invalid
  // positions score +inf, which never improves a best); keep moving
  // until a particle lands on a valid configuration. A swarm frozen in
  // an invalid region will never recover — give up and end the run.
  for (int attempts = 0; batch.empty() && attempts < 1000; ++attempts) {
    move_swarm(rng);
    batch = snap_swarm();
  }
  return batch;
}

void ParticleSwarm::tell(const std::vector<core::ConfigIndex>&,
                         const std::vector<double>& objectives,
                         common::Rng&) {
  for (std::size_t i = 0; i < swarm_.size(); ++i) {
    auto& particle = swarm_[i];
    const double obj = slots_[i] == kInvalidSlot
                           ? std::numeric_limits<double>::infinity()
                           : objectives[slots_[i]];
    if (obj < particle.best_objective) {
      particle.best_objective = obj;
      particle.best_position = particle.position;
    }
    if (obj < global_best_) {
      global_best_ = obj;
      global_best_position_ = particle.position;
    }
  }
}

}  // namespace bat::tuners
