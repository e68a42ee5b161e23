// CachingEvaluator: what a tuner actually sees.
//
// The per-session evaluation state over an EvaluationBackend: it
// memoizes evaluations by ConfigIndex, enforces a distinct-evaluation
// budget (cache hits are free) and records the full evaluation trace —
// the paper's convergence plots (Fig 2) are "best objective so far vs
// number of *distinct* function evaluations".
//
// Tuners drive it by ConfigIndex until it throws BudgetExhausted:
//   * evaluate_index(index), one evaluation at a time (the single-point
//     tuners);
//   * evaluate_batch(indices), a whole population generation in one
//     call. A batch crossing the budget boundary is truncated so the
//     trace ends exactly at the budget, byte-identical to charging one
//     evaluation at a time.
// evaluate_index is a one-element evaluate_batch, and each call sends
// the backend one evaluate_batch at most: the call's first-occurrence
// misses. In a service session that is the whole stack: tuner, this
// memo, then the workload's stateless backend. (With a shared cache
// hooked in, which only benchmark/ still does, the batch holds the
// misses this session claimed, and a claim another session abandons is
// then taken over one config at a time; see core/shared_cache.hpp.)
//
// Swapping the backend (live vs replay) never changes what a tuner
// observes, only where the measurements come from.
//
// On a materialized space (CompiledSpace::has_valid_set) the evaluator
// also counts the valid configurations not yet in the trace. Once every
// one of them is traced, nothing valid is left to measure, so every
// call throws BudgetExhausted: a session whose budget exceeds the valid
// set ends when it has seen the whole set instead of running for ever.
//
// Ownership / thread-safety: a CachingEvaluator is per-session state
// (budget, memo, trace) driven by exactly one thread at a time; it
// borrows the backend and anything the optional EvaluationHooks point at
// (shared cache, cancellation token), all of which must outlive it.
// Concurrency across sessions lives behind those hooks, not here.
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/backend.hpp"
#include "core/shared_cache.hpp"
#include "core/trace.hpp"
#include "obs/trace.hpp"

namespace bat::core {

class CachingEvaluator {
 public:
  /// budget = maximum number of *distinct* configurations evaluated.
  /// The backend must outlive the evaluator, as must anything the hooks
  /// point at (shared cross-session cache, cancellation token — see
  /// core/shared_cache.hpp; default hooks mean standalone behavior).
  CachingEvaluator(EvaluationBackend& backend, std::size_t budget,
                   EvaluationHooks hooks = {});

  /// Evaluates (or recalls) one configuration. Throws BudgetExhausted
  /// when a cache miss would exceed the budget, or when the trace holds
  /// every valid configuration of a materialized space.
  double evaluate_index(ConfigIndex index);

  /// Evaluates a batch of configurations; results align with `indices`.
  /// Distinct cache misses are evaluated through one backend batch and
  /// charged in first-occurrence order;
  /// hits and within-batch duplicates are free. Throws BudgetExhausted
  /// after recording as many misses as still fit the budget.
  std::vector<double> evaluate_batch(std::span<const ConfigIndex> indices);

  [[nodiscard]] const SearchSpace& space() const noexcept {
    return backend_->space();
  }

  [[nodiscard]] std::size_t evaluations() const noexcept {
    return trace_.size();
  }
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }
  /// True once a set cancellation hook aborted an evaluation (i.e.
  /// EvaluationCancelled was thrown): the run stopped *because* of the
  /// token, as opposed to ending naturally below budget.
  [[nodiscard]] bool cancelled() const noexcept { return cancelled_; }
  /// True once the budget is spent or, on a materialized space, the
  /// trace holds every valid configuration.
  [[nodiscard]] bool exhausted() const noexcept {
    return trace_.size() >= budget_ || unseen_valid_ == 0;
  }

  /// Chronological distinct-evaluation trace.
  [[nodiscard]] const std::vector<TraceEntry>& trace() const noexcept {
    return trace_;
  }

  /// Best (lowest-objective) evaluation so far, if any finite one exists.
  [[nodiscard]] std::optional<TraceEntry> best() const {
    return trace_best(trace_);
  }

  /// best-so-far objective after each distinct evaluation (length ==
  /// evaluations()); used directly by convergence analysis.
  [[nodiscard]] std::vector<double> best_so_far() const {
    return trace_best_so_far(trace_);
  }

 private:
  /// Resolves `misses` through the shared cross-session cache: claims
  /// every miss first (non-blocking), evaluates + publishes the claimed
  /// ones through the backend, then waits for the pending ones.
  /// Results align with `misses`.
  [[nodiscard]] std::vector<Measurement> resolve_through_shared_cache(
      const std::vector<ConfigIndex>& misses);

  EvaluationBackend* backend_;
  std::size_t budget_;
  /// The space's valid set when it is materialized, else null; each
  /// recorded miss costs one rank probe to keep unseen_valid_ exact.
  const CompiledSpace* valid_set_ = nullptr;
  /// Valid configurations not yet in the trace (never 0 when streamed).
  std::uint64_t unseen_valid_ = std::numeric_limits<std::uint64_t>::max();
  EvaluationHooks hooks_;
  bool cancelled_ = false;
  std::unordered_map<ConfigIndex, double> memo_;  // index -> objective
  std::vector<TraceEntry> trace_;
  /// A sequential tuner's consecutive one-config batches, traced as one
  /// span; a larger batch, or the end of the session, closes it.
  obs::SpanRun one_config_run_{"backend.batch", "configs=1 batches="};
};

}  // namespace bat::core
