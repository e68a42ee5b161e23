// The tuner-side of the shared problem interface.
//
// A Tuner sees only a CachingEvaluator (objective + budget + trace) and
// the search space behind it — exactly the contract the paper defines so
// that Optuna/SMAC3/Kernel Tuner/KTT-style optimizers can drive any BAT
// benchmark. Tuners speak ConfigIndex: they draw, step and recombine in
// the compiled index/digit space (core/compiled_space.hpp) and decode
// values only where they need them (the surrogate's feature rows). Two
// driving styles coexist:
//
//   * exception-driven (default): override optimize() and call
//     evaluator.evaluate_index(index) until it throws BudgetExhausted,
//     which run() treats as the stop signal.
//   * batched ask/tell: override batched() to return true plus
//     start()/ask()/tell(). The framework then loops
//         batch = ask(remaining, rng)            // vector<ConfigIndex>
//         objectives = evaluator.evaluate_batch(batch)
//         tell(batch, objectives, rng)
//     so population tuners (random, genetic, pso, de) evaluate whole
//     generations through the backend in one parallel batch.
//
// Both styles stop exactly at the evaluation budget, and neither knows
// (or cares) whether measurements are computed live or replayed from a
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

  /// True if this tuner implements the batched ask/tell protocol.
  [[nodiscard]] virtual bool batched() const { return false; }

  /// Optimizes until the budget is exhausted. Implementations must treat
  /// core::BudgetExhausted as a normal termination signal.
  void run(core::CachingEvaluator& evaluator, common::Rng& rng);

 protected:
  /// Exception-driven algorithm body; may simply let BudgetExhausted
  /// propagate. The default drives the ask/tell protocol (only valid for
  /// batched tuners).
  virtual void optimize(core::CachingEvaluator& evaluator, common::Rng& rng);

  // --- batched ask/tell protocol (batched() == true) ---

  /// Resets internal state for a fresh run over `space`.
  virtual void start(const core::SearchSpace& space, common::Rng& rng);

  /// Proposes the next batch of configurations to evaluate. `remaining`
  /// is the number of distinct evaluations left in the budget (a hint:
  /// proposing more is allowed, the evaluator truncates at the
  /// boundary). An empty batch ends the run.
  virtual std::vector<core::ConfigIndex> ask(std::size_t remaining,
                                             common::Rng& rng);

  /// Receives the objectives for the batch returned by the previous
  /// ask() (objectives[i] belongs to batch[i]).
  virtual void tell(const std::vector<core::ConfigIndex>& batch,
                    const std::vector<double>& objectives, common::Rng& rng);
};

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
/// adds cross-session measurement sharing and cooperative cancellation
/// (what service::TuningService threads in); they never change the
/// produced trace, only where measurements come from and whether the
/// run may stop early at a batch boundary.
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
