// Evaluation traces and the statistics every consumer derives from them.
//
// A trace is the chronological list of *distinct* evaluations a tuner
// paid for; the paper's convergence plots (Fig 2) are "best objective so
// far vs number of distinct function evaluations". trace_best /
// trace_best_so_far are the single source of those statistics, shared by
// CachingEvaluator, run_tuner and analysis/convergence.
//
// Traces are plain values owned by the session that produced them; the
// exception types below are the cross-layer stop signals (tuners treat
// both as "the run is over").
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/types.hpp"

namespace bat::core {

/// One evaluation in the trace.
struct TraceEntry {
  ConfigIndex index;
  double objective;
};

/// Thrown when a cache miss would exceed the evaluation budget; tuners
/// treat it as their stop signal.
class BudgetExhausted : public std::runtime_error {
 public:
  BudgetExhausted() : std::runtime_error("evaluation budget exhausted") {}

 protected:
  explicit BudgetExhausted(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown at a batch boundary when the session's cancellation token is
/// set (service shutdown). Derives from BudgetExhausted so every tuner
/// treats it as a normal stop signal and ends with its partial trace;
/// the service layer distinguishes the two via its own token.
class EvaluationCancelled : public BudgetExhausted {
 public:
  EvaluationCancelled() : BudgetExhausted("evaluation cancelled") {}
};

/// Best (lowest-objective) entry, if any finite one exists.
[[nodiscard]] std::optional<TraceEntry> trace_best(
    std::span<const TraceEntry> trace);

/// Best-so-far objective after each evaluation (length == trace.size()).
[[nodiscard]] std::vector<double> trace_best_so_far(
    std::span<const TraceEntry> trace);

}  // namespace bat::core
