// Differential evolution (DE/rand/1/bin) on the value-index embedding:
// vectors live in the continuous per-parameter digit space and snap to
// the nearest configuration for evaluation (tuners::snap).
// Batched (synchronous DE): every ask() builds one trial per population
// member from the previous generation's vectors, the whole trial set is
// evaluated through the backend in one parallel batch, and selection
// happens in tell().
//
// Single-run mutable state: one instance per session, driven by one
// thread (see the ownership notes in tuners/tuner.hpp).
#pragma once

#include "tuners/tuner.hpp"

namespace bat::tuners {

class DifferentialEvolution final : public Tuner {
 public:
  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "de";
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
  static constexpr std::size_t kInvalidSlot = static_cast<std::size_t>(-1);

  /// Breeds one generation of trial vectors; fills trials_/slots_ and
  /// returns the constraint-valid configurations to evaluate.
  std::vector<core::ConfigIndex> breed(common::Rng& rng);
  void select(const std::vector<double>& objectives);

  const core::CompiledSpace* compiled_ = nullptr;
  std::vector<std::vector<double>> population_;
  std::vector<double> objective_;
  std::vector<std::vector<double>> trials_;
  std::vector<std::size_t> slots_;  // population member -> batch slot
  bool seeded_ = false;
};

}  // namespace bat::tuners
