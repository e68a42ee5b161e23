// Pluggable evaluation backends: where measurements come from.
//
// EvaluationBackend is the seam between "what to evaluate" (tuners,
// runners, analyses — all speak ConfigIndex batches) and "how it is
// evaluated". Three implementations cover the paper's modes:
//
//   * LiveBackend    — calls Benchmark::evaluate, fanning batches out over
//                      the shared ThreadPool (many independent simulated
//                      kernel launches per batch).
//   * ReplayBackend  — serves a precomputed Dataset: the paper's tabular-
//                      benchmark mode, making tuner comparisons free after
//                      one Runner sweep.
//   * CountingBackend— decorator adding the tuner-side bookkeeping: a
//                      distinct-evaluation budget, a memoization cache and
//                      the chronological trace (cache hits are free).
//
// All backends are deterministic: identical index batches always yield
// identical measurements, so live and replay paths are interchangeable.
//
// Ownership / thread-safety: backends borrow the Benchmark / SearchSpace
// / Dataset they are built over (the caller keeps those alive).
// LiveBackend and ReplayBackend are stateless under evaluate_batch and
// may be shared by concurrent sessions; CountingBackend is per-session
// state (budget, cache, trace) and must only be driven by one thread at
// a time. Cross-session sharing and cancellation are opt-in via
// EvaluationHooks (core/shared_cache.hpp), threaded in by the service
// layer.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/benchmark.hpp"
#include "core/compiled_space.hpp"
#include "core/dataset.hpp"
#include "core/measurement.hpp"
#include "core/search_space.hpp"
#include "core/shared_cache.hpp"
#include "core/trace.hpp"
#include "obs/trace.hpp"

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
/// least `parallel_threshold` fan out over ThreadPool::global(); smaller
/// batches stay on the calling thread (a single evaluation is far cheaper
/// than a pool handoff).
class LiveBackend final : public EvaluationBackend {
 public:
  LiveBackend(const Benchmark& benchmark, DeviceIndex device,
              std::size_t parallel_threshold = 8);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const SearchSpace& space() const override {
    return benchmark_->space();
  }
  [[nodiscard]] std::vector<Measurement> evaluate_batch(
      std::span<const ConfigIndex> indices) override;

  [[nodiscard]] const Benchmark& benchmark() const noexcept {
    return *benchmark_;
  }
  [[nodiscard]] DeviceIndex device() const noexcept { return device_; }

 private:
  const Benchmark* benchmark_;
  DeviceIndex device_;
  std::size_t parallel_threshold_;
  std::string name_;
};

/// Tabular replay of a precomputed Dataset. Requesting an index the
/// dataset does not cover throws std::out_of_range — replay is only
/// sound when the dataset covers every configuration a client may ask
/// for (e.g. an exhaustive Runner sweep).
///
/// Storage is batched by valid-ordinal when the compiled space has a
/// materialized valid set: a lookup is one rank probe plus an array
/// index instead of a hash probe. Datasets over streamed (huge) spaces,
/// or containing rows outside the valid set, fall back to a hash table.
class ReplayBackend final : public EvaluationBackend {
 public:
  /// `space` must be the search space the dataset was built from (and
  /// must outlive this backend); the dataset rows are keyed by their
  /// ConfigIndex within that space.
  ReplayBackend(const SearchSpace& space, const Dataset& dataset);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const SearchSpace& space() const override { return *space_; }
  [[nodiscard]] std::vector<Measurement> evaluate_batch(
      std::span<const ConfigIndex> indices) override;

  [[nodiscard]] bool contains(ConfigIndex index) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  const SearchSpace* space_;
  std::shared_ptr<const CompiledSpace> compiled_;  // kept alive with us
  bool ordinal_mode_ = false;
  std::vector<Measurement> by_ordinal_;     // valid-ordinal -> measurement
  std::vector<unsigned char> covered_;      // valid-ordinal covered by ds
  std::unordered_map<ConfigIndex, Measurement> table_;  // fallback
  std::size_t size_ = 0;
  std::string name_;
};

/// Decorator adding budget + cache + trace on top of any backend.
///
/// The budget counts *distinct* configurations (cache hits are free,
/// matching how tuners are usually charged). A batch whose cache misses
/// would overflow the remaining budget is truncated: the misses that
/// still fit are evaluated and recorded, then BudgetExhausted is thrown —
/// so the trace always ends exactly at the budget boundary, identical to
/// charging one evaluation at a time.
///
/// With EvaluationHooks: a set cancellation token makes every
/// evaluate_batch throw EvaluationCancelled up front, and a shared
/// cross-session cache is consulted for each budget-charged miss before
/// falling through to the inner backend (exactly-once evaluation across
/// sessions; this session's budget/trace accounting is unchanged).
class CountingBackend final : public EvaluationBackend {
 public:
  CountingBackend(EvaluationBackend& inner, std::size_t budget,
                  EvaluationHooks hooks = {});

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const SearchSpace& space() const override {
    return inner_->space();
  }
  [[nodiscard]] std::vector<Measurement> evaluate_batch(
      std::span<const ConfigIndex> indices) override;

  [[nodiscard]] std::size_t evaluations() const noexcept {
    return trace_.size();
  }
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }
  [[nodiscard]] bool exhausted() const noexcept {
    return trace_.size() >= budget_;
  }
  /// True once a set cancellation hook aborted an evaluate_batch (i.e.
  /// EvaluationCancelled was thrown): the run stopped *because* of the
  /// token, as opposed to ending naturally below budget.
  [[nodiscard]] bool cancelled() const noexcept { return cancelled_; }

  /// Chronological distinct-evaluation trace.
  [[nodiscard]] const std::vector<TraceEntry>& trace() const noexcept {
    return trace_;
  }

  [[nodiscard]] EvaluationBackend& inner() noexcept { return *inner_; }

 private:
  /// Resolves `misses` through the shared cross-session cache: claims
  /// every miss first (non-blocking), evaluates + publishes the claimed
  /// ones through the inner backend, then waits for the pending ones.
  /// Results align with `misses`.
  [[nodiscard]] std::vector<Measurement> resolve_through_shared_cache(
      const std::vector<ConfigIndex>& misses);

  EvaluationBackend* inner_;
  std::size_t budget_;
  EvaluationHooks hooks_;
  bool cancelled_ = false;
  std::unordered_map<ConfigIndex, Measurement> cache_;
  std::vector<TraceEntry> trace_;
  std::string name_;
  /// A sequential tuner's consecutive one-config batches, traced as one
  /// span; a larger batch, or the end of the session, closes it.
  obs::SpanRun one_config_run_{"backend.batch", "configs=1 batches="};
};

}  // namespace bat::core
