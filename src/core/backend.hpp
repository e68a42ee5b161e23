// Pluggable evaluation backends: where measurements come from.
//
// EvaluationBackend is the seam between "what to evaluate" (tuners,
// runners, analyses — all speak ConfigIndex batches) and "how it is
// evaluated". Two implementations cover the paper's modes:
//
//   * LiveBackend    — calls Benchmark::evaluate, fanning batches out over
//                      the shared ThreadPool (many independent simulated
//                      kernel launches per batch).
//   * ReplayBackend  — serves a swept dataset (an in-memory core::Dataset
//                      or a mmap'ed io::DatasetView): the paper's tabular-
//                      benchmark mode, making tuner comparisons free after
//                      one Runner sweep.
//
// The tuner-side bookkeeping (budget, memo, trace, cross-session
// sharing) is not a backend: it is the per-session CachingEvaluator
// (core/evaluator.hpp) that drives one.
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

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/benchmark.hpp"
#include "core/compiled_space.hpp"
#include "core/measurement.hpp"
#include "core/search_space.hpp"

namespace bat::core {

/// Diagnostic for replay backends falling out of valid-ordinal mode:
/// distinguishes a *stale schema* — the dataset's parameter names/order
/// disagree with the space it is replayed against, so its config indices
/// decode differently and ranks collide or miss — from a genuinely
/// foreign dataset (rows outside the valid set with a matching schema).
/// Returns "" when the schemas agree, otherwise a human-readable hint
/// naming the first disagreement.
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
  /// Implementations may evaluate in parallel but must be deterministic.
  [[nodiscard]] virtual std::vector<Measurement> evaluate_batch(
      std::span<const ConfigIndex> indices) = 0;

  /// Single-evaluation convenience on top of evaluate_batch.
  [[nodiscard]] Measurement evaluate(ConfigIndex index);
};

/// Live evaluation through a (benchmark, device) pair. Batches of at
/// least kParallelThreshold configs fan out over ThreadPool::global();
/// smaller batches stay on the calling thread (a single evaluation is
/// far cheaper than a pool handoff).
class LiveBackend final : public EvaluationBackend {
 public:
  static constexpr std::size_t kParallelThreshold = 8;

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
///
/// Storage is batched by valid-ordinal when the compiled space has a
/// materialized valid set: a lookup is one rank probe plus an array
/// index instead of a hash probe. Datasets over streamed (huge) spaces,
/// or containing rows outside the valid set, fall back to a hash table.
class ReplayBackend final : public EvaluationBackend {
 public:
  /// `space` must be the search space the dataset was swept from (and
  /// must outlive this backend); rows are keyed by their ConfigIndex
  /// within that space. `dataset` is any row source with Dataset's row
  /// API (size, config_index, time_ms, status, source, param_names,
  /// benchmark_name, device_name): an in-memory core::Dataset, or an
  /// io::DatasetView reading an archive's mmap'ed columns. Construction
  /// copies one Measurement per covered configuration and keeps no
  /// reference to `dataset`.
  template <class Rows>
  ReplayBackend(const SearchSpace& space, const Rows& dataset);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const SearchSpace& space() const override { return *space_; }
  [[nodiscard]] std::vector<Measurement> evaluate_batch(
      std::span<const ConfigIndex> indices) override;

  [[nodiscard]] bool contains(ConfigIndex index) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  /// The one-time fallback warning (kept out of line so this header
  /// needs no logging include).
  void warn_outside_valid_set(
      const std::string& source, std::size_t row, ConfigIndex index,
      const std::vector<std::string>& dataset_params) const;

  const SearchSpace* space_;
  std::shared_ptr<const CompiledSpace> compiled_;  // kept alive with us
  bool ordinal_mode_ = false;
  std::vector<Measurement> by_ordinal_;     // valid-ordinal -> measurement
  std::vector<unsigned char> covered_;      // valid-ordinal covered by ds
  std::unordered_map<ConfigIndex, Measurement> table_;  // fallback
  std::size_t size_ = 0;
  std::string name_;
};

template <class Rows>
ReplayBackend::ReplayBackend(const SearchSpace& space, const Rows& dataset)
    : space_(&space),
      compiled_(space.compiled_shared()),
      size_(dataset.size()),
      name_("replay:" + dataset.benchmark_name() + "@" +
            dataset.device_name()) {
  if (compiled_->has_valid_set()) {
    // Ordinal mode: measurements live in a flat array indexed by
    // valid-ordinal. Bail out to the hash table if any row falls outside
    // the valid set (a foreign or corrupted dataset).
    by_ordinal_.assign(static_cast<std::size_t>(compiled_->num_valid()),
                       Measurement{});
    covered_.assign(by_ordinal_.size(), 0);
    ordinal_mode_ = true;
    for (std::size_t row = 0; row < dataset.size(); ++row) {
      const auto ordinal = compiled_->rank(dataset.config_index(row));
      if (!ordinal) {
        // One-time (per construction) warning: foreign datasets whose
        // rows fall outside this space's valid set silently lose the
        // O(1) rank lookup, so tell the user where the rows came from
        // and why replay just got slower.
        warn_outside_valid_set(dataset.source(), row,
                               dataset.config_index(row),
                               dataset.param_names());
        ordinal_mode_ = false;
        by_ordinal_.clear();
        covered_.clear();
        break;
      }
      // First row wins on duplicate indices, matching the hash-mode
      // emplace semantics (lookups must not depend on storage mode).
      if (covered_[static_cast<std::size_t>(*ordinal)] != 0) continue;
      by_ordinal_[static_cast<std::size_t>(*ordinal)] =
          Measurement{dataset.time_ms(row), dataset.status(row)};
      covered_[static_cast<std::size_t>(*ordinal)] = 1;
    }
    if (ordinal_mode_) return;
  }
  table_.reserve(dataset.size());
  for (std::size_t row = 0; row < dataset.size(); ++row) {
    table_.emplace(dataset.config_index(row),
                   Measurement{dataset.time_ms(row), dataset.status(row)});
  }
}

}  // namespace bat::core
