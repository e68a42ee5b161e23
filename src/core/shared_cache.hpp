// Cross-session measurement sharing: the seam the service layer plugs
// into the per-session evaluation stack.
//
// SharedMeasurementCache is an abstract exactly-once memoization
// protocol over ConfigIndex. Many concurrent tuning sessions on the same
// (space, device) pair tend to probe overlapping configurations (local
// minima attract every neighbor-driven tuner); the cache lets the first
// session to reach a configuration evaluate it and every later session
// reuse the measurement. The protocol is claim-based so that *exactly
// one* session evaluates each distinct configuration, with no global
// lock around the (potentially slow) evaluation itself:
//
//   claim(i)  -> kHit      the measurement is ready, use it;
//             -> kClaimed  the caller now owns the evaluation of i and
//                          MUST publish(i, m) or abandon(i);
//             -> kPending  another session owns i; call wait(i) later.
//   wait(i)   -> blocks until i is published (returns the measurement)
//                or abandoned (returns nullopt: re-claim and retry).
//
// Deadlock-freedom contract for callers evaluating a batch: first claim
// every miss without blocking, then evaluate and publish all owned
// claims, and only then wait() for the pending ones. A claim owner never
// blocks on another session while holding claims, so every pending entry
// resolves in finite time. CachingEvaluator implements this dance; see
// CachingEvaluator::resolve_through_shared_cache.
//
// Ownership / thread-safety: implementations must be fully thread-safe
// (every method may be called from any thread concurrently); the cache
// does not own the backend that produces measurements, and callers must
// keep the cache alive for as long as any session holds a pointer to it.
// The concrete sharded implementation lives in
// service/sharded_cache.hpp.
#pragma once

#include <atomic>
#include <optional>

#include "core/measurement.hpp"
#include "core/types.hpp"

namespace bat::core {

class SharedMeasurementCache {
 public:
  virtual ~SharedMeasurementCache() = default;

  enum class ClaimState {
    kHit,      // measurement was ready; Claim::measurement is filled
    kClaimed,  // caller owns evaluating this index: publish() or abandon()
    kPending,  // another caller is evaluating it: wait() for the result
  };

  struct Claim {
    ClaimState state = ClaimState::kClaimed;
    Measurement measurement;  // meaningful only when state == kHit
  };

  /// Non-blocking claim of `index` (see the protocol above).
  [[nodiscard]] virtual Claim claim(ConfigIndex index) = 0;

  /// Fulfills a claim previously returned as kClaimed. Wakes waiters.
  virtual void publish(ConfigIndex index, const Measurement& m) = 0;

  /// Releases a kClaimed entry without a measurement (the evaluation
  /// threw); waiters wake and re-claim.
  virtual void abandon(ConfigIndex index) = 0;

  /// Blocks until `index` is published (returns the measurement) or its
  /// claim is abandoned (returns nullopt — re-claim and retry). Calling
  /// wait() on an index nobody claimed returns nullopt immediately.
  [[nodiscard]] virtual std::optional<Measurement> wait(ConfigIndex index) = 0;
};

/// Optional per-session hooks threaded from the service layer through
/// run_tuner into the session's CachingEvaluator. Both pointers are
/// borrowed: the service owning the session must keep them alive for
/// the whole run. Defaults reproduce the standalone behavior exactly —
/// no sharing, no cancellation.
struct EvaluationHooks {
  /// Cross-session cache; measurements are published to and recalled
  /// from it, but budget/trace accounting is unchanged (a shared hit is
  /// still charged to this session's budget, so traces are identical
  /// with and without the cache — backends are deterministic).
  SharedMeasurementCache* shared_cache = nullptr;

  /// Cooperative cancellation flag, checked at every evaluator call;
  /// when set, the next evaluation throws EvaluationCancelled
  /// (a BudgetExhausted subclass, so tuners stop gracefully with the
  /// partial trace they have).
  const std::atomic<bool>* cancel = nullptr;
};

}  // namespace bat::core
