// CachingEvaluator: what a tuner actually sees.
//
// The per-session evaluation state over an EvaluationBackend: it
// memoizes evaluations by ConfigIndex, enforces a distinct-evaluation
// budget (cache hits are free) and records the full evaluation trace —
// the paper's convergence plots (Fig 2) are "best objective so far vs
// number of *distinct* function evaluations".
//
// The memo is the trace's index: an open-addressed table from
// ConfigIndex to the entry's position in the trace, which already holds
// the objective. It is sized from the budget and doubles past half
// load, so a hit costs one probe and allocates nothing.
//
// Tuners drive it by ConfigIndex until it throws BudgetExhausted:
//   * evaluate_index(index), one evaluation at a time (the single-point
//     tuners);
//   * evaluate_batch(indices), a whole population generation in one
//     call. A batch crossing the budget boundary is truncated so the
//     trace ends exactly at the budget, byte-identical to charging one
//     evaluation at a time. Its results are a view of a buffer the
//     evaluator owns, valid until the next evaluate_* call: read them
//     before calling again.
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
// The evaluator also counts the valid configurations not yet in the
// trace. Once every one of them is traced, nothing valid is left to
// measure, so every call throws BudgetExhausted: a session whose budget
// exceeds the valid set ends when it has seen the whole set instead of
// running for ever. A materialized space (CompiledSpace::has_valid_set)
// is counted at construction. A streamed one is counted only after
// 2^16 consecutive calls that traced nothing, since walking its product
// costs seconds on the largest spaces and a session that still finds
// new configurations never needs the count.
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
  /// when a cache miss would exceed the budget, or when the trace is
  /// known to hold every valid configuration (see above).
  double evaluate_index(ConfigIndex index);

  /// Evaluates a batch of configurations; results align with `indices`
  /// and stay valid until the next evaluate_* call on this evaluator.
  /// Distinct cache misses are evaluated through one backend batch and
  /// charged in first-occurrence order;
  /// hits and within-batch duplicates are free. Throws BudgetExhausted
  /// after recording as many misses as still fit the budget; a throwing
  /// backend leaves memo and trace as they were.
  std::span<const double> evaluate_batch(std::span<const ConfigIndex> indices);

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
  /// True once the budget is spent or the trace is known to hold every
  /// valid configuration.
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
  /// One memo slot: a traced index and its position in trace_.
  struct MemoSlot {
    ConfigIndex index;
    std::size_t position;
  };
  /// Marks an empty slot. No index reaches it: an index lies below the
  /// space's cardinality, itself a ConfigIndex.
  static constexpr ConfigIndex kEmptySlot = ~ConfigIndex{0};

  /// The slot holding `index`, or the empty slot where it would go.
  [[nodiscard]] MemoSlot& probe(ConfigIndex index) noexcept;
  /// Grows the memo until `entries` fit at half load, re-entering the
  /// trace.
  void reserve_memo(std::size_t entries);

  /// Resolves `misses` through the shared cross-session cache: claims
  /// every miss first (non-blocking), evaluates + publishes the claimed
  /// ones through the backend, then waits for the pending ones.
  /// Results align with `misses`.
  [[nodiscard]] std::vector<Measurement> resolve_through_shared_cache(
      const std::vector<ConfigIndex>& misses);

  static constexpr std::uint64_t kUncounted =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr std::size_t kIdleCallsBeforeCount = std::size_t{1} << 16;

  EvaluationBackend* backend_;
  std::size_t budget_;
  /// Valid configurations not yet in the trace, or kUncounted; once
  /// counted, each recorded miss costs one validity probe (a rank probe
  /// when materialized) to keep it exact.
  std::uint64_t unseen_valid_ = kUncounted;
  std::size_t idle_calls_ = 0;  // consecutive calls that traced nothing
  EvaluationHooks hooks_;
  bool cancelled_ = false;
  std::vector<MemoSlot> memo_;  // power-of-two size, linear probing
  int memo_shift_ = 64;         // 64 - log2(memo_.size())
  std::vector<TraceEntry> trace_;
  // Per-call buffers, reused so that a call allocates only for misses.
  std::vector<ConfigIndex> misses_;
  std::vector<std::size_t> positions_;  // trace position per batch slot
  std::vector<double> results_;
  /// A sequential tuner's consecutive one-config batches, traced as one
  /// span; a larger batch, or the end of the session, closes it.
  obs::SpanRun one_config_run_{"backend.batch", "configs=1 batches="};
};

}  // namespace bat::core
