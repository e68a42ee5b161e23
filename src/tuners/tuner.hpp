// The tuner-side of the shared problem interface.
//
// A Tuner sees only a CachingEvaluator (objective + budget + trace) and
// the search space behind it — exactly the contract the paper defines so
// that Optuna/SMAC3/Kernel Tuner/KTT-style optimizers can drive any BAT
// benchmark. Tuners speak ConfigIndex: they draw, step and recombine in
// the compiled index space (core/compiled_space.hpp) and decode values
// only where they need them (the surrogate's feature rows).
//
// Every tuner is one optimize() loop that drives the evaluator until it
// throws BudgetExhausted, which run() treats as the stop signal.
// Single-point tuners call evaluator.evaluate_index(index); population
// tuners (random, genetic, pso, de) evaluate each generation through
// evaluate_generation(), which also ends a run whose generations have
// stopped adding to the trace. Its results are a view of the
// evaluator's buffer, so a generation's objectives are consumed before
// the next one is evaluated; a hit allocates nothing on the way.
//
// Runs stop exactly at the evaluation budget, and no tuner knows (or
// cares) whether measurements are computed live or replayed from a
// dataset — that is the EvaluationBackend's business.
//
// Ownership / thread-safety: a Tuner instance is single-run mutable
// state — make one per run (tuners::make_tuner) and never share it
// across threads. run_tuner itself is safe to call concurrently with
// distinct tuner instances over a shared stateless backend; that is
// exactly how service::TuningService executes sessions in parallel,
// threading per-session EvaluationHooks (shared measurement cache,
// cancellation token) through run_tuner's `hooks` argument.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/backend.hpp"
#include "core/compiled_space.hpp"
#include "core/evaluator.hpp"

namespace bat::tuners {

class Tuner {
 public:
  virtual ~Tuner() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Optimizes until the evaluator throws BudgetExhausted (the budget is
  /// spent, the valid set is seen, or a population stalled).
  void run(core::CachingEvaluator& evaluator, common::Rng& rng);

 protected:
  /// The algorithm body: drives the evaluator and may simply let
  /// BudgetExhausted propagate.
  virtual void optimize(core::CachingEvaluator& evaluator,
                        common::Rng& rng) = 0;
};

/// Evaluates one generation of a population tuner; results align with
/// `batch` and are the evaluator's own buffer, valid until its next
/// evaluate_* call: read them before evaluating again. `stalled`
/// counts the caller's consecutive generations that added nothing to
/// the trace (start it at 0). Throws BudgetExhausted instead of
/// evaluating once the evaluator is exhausted or after 128 such
/// generations: a converged population can keep proposing cached
/// configurations for ever without spending budget.
[[nodiscard]] std::span<const double> evaluate_generation(
    core::CachingEvaluator& evaluator, std::span<const core::ConfigIndex> batch,
    std::size_t& stalled);

/// The configuration nearest a continuous per-parameter digit position
/// (each coordinate clamped into [0, radix - 1] and rounded): how the
/// continuous-space tuners (pso, de) turn a position into a candidate.
[[nodiscard]] core::ConfigIndex snap(const core::CompiledSpace& compiled,
                                     const std::vector<double>& position);

/// Result of a full tuning run.
struct TuningRun {
  std::string tuner;
  std::vector<core::TraceEntry> trace;
  std::optional<core::TraceEntry> best;
  std::vector<double> best_so_far;
  /// True when a cancellation hook cut the run short (the trace is the
  /// partial prefix), false for natural termination — budget exhausted
  /// *or* converged below budget.
  bool cancelled = false;
};

/// Runs the tuner against an arbitrary evaluation backend (live, replay,
/// ...) with an explicit seed and returns the collected run. `hooks`
/// adds cooperative cancellation (what service::TuningService threads
/// in) and, unused by the program, cross-session measurement sharing;
/// they never change the produced trace, only where measurements come
/// from and whether the run may stop early at a batch boundary.
[[nodiscard]] TuningRun run_tuner(Tuner& tuner,
                                  core::EvaluationBackend& backend,
                                  std::size_t budget, std::uint64_t seed,
                                  const core::EvaluationHooks& hooks = {});

/// Convenience: live evaluation over (benchmark, device).
[[nodiscard]] TuningRun run_tuner(Tuner& tuner, const core::Benchmark& bench,
                                  core::DeviceIndex device, std::size_t budget,
                                  std::uint64_t seed);

/// Factory for all built-in tuners:
///   "random", "local", "annealing", "genetic", "ils", "pso", "de",
///   "surrogate", "basic" (alias of "local": the paper's reference tuner).
[[nodiscard]] std::unique_ptr<Tuner> make_tuner(const std::string& name);

/// Names of all built-in tuners (canonical order used by the examples).
[[nodiscard]] std::vector<std::string> tuner_names();

}  // namespace bat::tuners
