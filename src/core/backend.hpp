// Pluggable evaluation backends: where measurements come from.
//
// EvaluationBackend is the seam between "what to evaluate" (tuners,
// runners, analyses — all speak ConfigIndex batches) and "how it is
// evaluated". Two implementations cover the paper's modes:
//
//   * LiveBackend    — calls Benchmark::evaluate for each configuration
//                      of a batch, in order, on the calling thread
//                      (core::Runner fans its sweeps out over several).
//   * ReplayBackend  — serves a swept core::Dataset from one hash table:
//                      the paper's tabular-benchmark mode, making tuner
//                      comparisons free after one Runner sweep.
//
// The tuner-side bookkeeping (budget, memo, trace) is not a backend:
// it is the per-session CachingEvaluator (core/evaluator.hpp) that
// drives one.
//
// All backends are deterministic: identical index batches always yield
// identical measurements, so live and replay paths are interchangeable.
//
// Ownership / thread-safety: backends borrow the Benchmark / SearchSpace
// they are built over (the caller keeps those alive); ReplayBackend
// copies its rows and keeps no reference to the row source. Both are
// stateless under evaluate_batch and may be shared by concurrent
// sessions.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/benchmark.hpp"
#include "core/measurement.hpp"
#include "core/search_space.hpp"

namespace bat::core {

class Dataset;

/// Diagnostic for ReplayBackend's foreign-row warning: distinguishes a
/// *stale schema* — the dataset's parameter names/order disagree with the
/// space it is replayed against, so its config indices decode
/// differently — from a genuinely foreign dataset (rows outside the
/// valid set with a matching schema). Returns "" when the schemas agree,
/// otherwise a human-readable hint naming the first disagreement.
[[nodiscard]] std::string replay_schema_hint(
    const std::vector<std::string>& space_params,
    const std::vector<std::string>& dataset_params);

class EvaluationBackend {
 public:
  virtual ~EvaluationBackend() = default;

  /// Human-readable identifier ("live:gemm@RTX_3090", "replay:...").
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// The search space configurations are drawn from (tuners use it for
  /// sampling, neighborhoods and index<->config mapping).
  [[nodiscard]] virtual const SearchSpace& space() const = 0;

  /// Evaluates a batch of configurations identified by ConfigIndex.
  /// Results align with `indices` (result[i] belongs to indices[i]).
  /// Implementations must be deterministic.
  [[nodiscard]] virtual std::vector<Measurement> evaluate_batch(
      std::span<const ConfigIndex> indices) = 0;

  /// Single-evaluation convenience on top of evaluate_batch.
  [[nodiscard]] Measurement evaluate(ConfigIndex index);
};

/// Live evaluation through a (benchmark, device) pair: one serial loop
/// on the calling thread. A single evaluation costs far less than a
/// pool handoff, and a session's batches are small; core::Runner's
/// sweeps split their large batches over the pool themselves.
class LiveBackend final : public EvaluationBackend {
 public:
  LiveBackend(const Benchmark& benchmark, DeviceIndex device);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const SearchSpace& space() const override {
    return benchmark_->space();
  }
  [[nodiscard]] std::vector<Measurement> evaluate_batch(
      std::span<const ConfigIndex> indices) override;

 private:
  const Benchmark* benchmark_;
  DeviceIndex device_;
  std::string name_;
};

/// Tabular replay of a swept dataset. Requesting an index the dataset
/// does not cover throws std::out_of_range — replay is only sound when
/// the dataset covers every configuration a client may ask for (e.g. an
/// exhaustive Runner sweep).
class ReplayBackend final : public EvaluationBackend {
 public:
  /// `space` must be the search space the dataset was swept from (and
  /// must outlive this backend); rows are keyed by their ConfigIndex
  /// within that space, and on a duplicate index the first row wins.
  /// Construction copies one Measurement per covered configuration and
  /// keeps no reference to `dataset`. When the space has a materialized
  /// valid set, the first row outside it logs one warning: the dataset
  /// comes from another space, constraint set or parameter schema.
  ReplayBackend(const SearchSpace& space, const Dataset& dataset);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const SearchSpace& space() const override { return *space_; }
  [[nodiscard]] std::vector<Measurement> evaluate_batch(
      std::span<const ConfigIndex> indices) override;

  [[nodiscard]] bool contains(ConfigIndex index) const noexcept {
    return table_.contains(index);
  }
  /// Number of configurations covered (distinct row indices).
  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }

 private:
  const SearchSpace* space_;
  std::unordered_map<ConfigIndex, Measurement> table_;
  std::string name_;
};

}  // namespace bat::core
