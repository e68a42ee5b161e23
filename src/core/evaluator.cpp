#include "core/evaluator.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "core/compiled_space.hpp"

namespace bat::core {

CachingEvaluator::CachingEvaluator(EvaluationBackend& backend,
                                   std::size_t budget, EvaluationHooks hooks)
    : backend_(&backend), budget_(budget), hooks_(hooks) {
  BAT_EXPECTS(budget > 0);
  memo_.reserve(std::min<std::size_t>(budget, 1 << 16));
  const auto& compiled = backend.space().compiled();
  if (compiled.has_valid_set()) unseen_valid_ = compiled.num_valid();
}

double CachingEvaluator::evaluate_index(ConfigIndex index) {
  const ConfigIndex indices[1] = {index};
  return evaluate_batch(indices).front();
}

std::vector<double> CachingEvaluator::evaluate_batch(
    std::span<const ConfigIndex> indices) {
  // Every tuner measurement funnels through here, so these spans give a
  // traced session its evaluate-phase timeline. A larger batch (a
  // population, a runner fan-out) gets a span of its own; one-config
  // batches, about 1us each, coalesce into one span per run, since a
  // span each added about 36% to a traced pnpoly/local session. Both
  // are free (one TLS read) when the calling thread is untraced.
  std::optional<obs::ScopedSpan> span;
  if (indices.size() == 1) {
    one_config_run_.add();
  } else {
    one_config_run_.close();
    span.emplace("backend.batch");
    if (span->active()) {
      span->set_detail("configs=" + std::to_string(indices.size()));
    }
  }
  // A trace that holds every valid configuration has nothing left to
  // measure: end the run. Checked before the token, so such a session
  // reports completed rather than cancelled.
  if (unseen_valid_ == 0) throw BudgetExhausted();
  // Batch-boundary cancellation point: every tuner measurement funnels
  // through here, so a set token stops the session before it spends
  // anything else.
  if (hooks_.cancel && hooks_.cancel->load(std::memory_order_relaxed)) {
    cancelled_ = true;
    throw EvaluationCancelled();
  }

  // First-occurrence misses, in batch order, truncated to the remaining
  // budget. `truncated` means at least one miss was refused.
  std::vector<ConfigIndex> misses;
  bool truncated = false;
  {
    std::size_t remaining = budget_ - trace_.size();
    for (const ConfigIndex index : indices) {
      if (memo_.find(index) != memo_.end()) continue;
      if (std::find(misses.begin(), misses.end(), index) != misses.end()) {
        continue;  // duplicate within this batch: charged once
      }
      if (misses.size() >= remaining) {
        truncated = true;
        break;
      }
      misses.push_back(index);
    }
  }

  const auto& compiled = space().compiled();
  if (!misses.empty()) {
    idle_calls_ = 0;
    const auto measured = hooks_.shared_cache
                              ? resolve_through_shared_cache(misses)
                              : backend_->evaluate_batch(misses);
    for (std::size_t i = 0; i < misses.size(); ++i) {
      memo_.emplace(misses[i], measured[i].objective());
      trace_.push_back(TraceEntry{misses[i], measured[i].objective()});
      if (unseen_valid_ != kUncounted && compiled.is_valid_index(misses[i])) {
        --unseen_valid_;
      }
    }
  } else if (++idle_calls_ == kIdleCallsBeforeCount &&
             unseen_valid_ == kUncounted) {
    // A long run of calls that find nothing new: count the streamed
    // space's valid set once, less what the trace already holds.
    unseen_valid_ = compiled.count_valid();
    for (const TraceEntry& entry : trace_) {
      if (compiled.is_valid_index(entry.index)) --unseen_valid_;
    }
  }
  if (truncated) throw BudgetExhausted();

  std::vector<double> results;
  results.reserve(indices.size());
  for (const ConfigIndex index : indices) {
    results.push_back(memo_.at(index));
  }
  return results;
}

std::vector<Measurement> CachingEvaluator::resolve_through_shared_cache(
    const std::vector<ConfigIndex>& misses) {
  // Deadlock-free three-phase dance (see core/shared_cache.hpp): claim
  // everything without blocking, evaluate + publish what we own, wait
  // for what others own. A claim owner never blocks on another session,
  // so every pending entry resolves in finite time.
  auto& shared = *hooks_.shared_cache;
  std::vector<Measurement> measured(misses.size());
  std::vector<std::size_t> owned;    // positions we must evaluate
  std::vector<std::size_t> pending;  // positions another session owns
  for (std::size_t i = 0; i < misses.size(); ++i) {
    const auto claim = shared.claim(misses[i]);
    switch (claim.state) {
      case SharedMeasurementCache::ClaimState::kHit:
        measured[i] = claim.measurement;
        break;
      case SharedMeasurementCache::ClaimState::kClaimed:
        owned.push_back(i);
        break;
      case SharedMeasurementCache::ClaimState::kPending:
        pending.push_back(i);
        break;
    }
  }

  if (!owned.empty()) {
    std::vector<ConfigIndex> batch;
    batch.reserve(owned.size());
    for (const auto i : owned) batch.push_back(misses[i]);
    std::vector<Measurement> results;
    try {
      results = backend_->evaluate_batch(batch);
    } catch (...) {
      // Release the claims so waiters in other sessions re-claim instead
      // of blocking on a measurement that will never arrive.
      for (const auto i : owned) shared.abandon(misses[i]);
      throw;
    }
    for (std::size_t k = 0; k < owned.size(); ++k) {
      shared.publish(batch[k], results[k]);
      measured[owned[k]] = results[k];
    }
  }

  for (const auto i : pending) {
    for (;;) {
      if (const auto m = shared.wait(misses[i])) {
        measured[i] = *m;
        break;
      }
      // The owner abandoned (its evaluation threw): try to take over.
      const auto claim = shared.claim(misses[i]);
      if (claim.state == SharedMeasurementCache::ClaimState::kHit) {
        measured[i] = claim.measurement;
        break;
      }
      if (claim.state == SharedMeasurementCache::ClaimState::kPending) {
        continue;  // someone else took over; wait again
      }
      const ConfigIndex one[1] = {misses[i]};
      std::vector<Measurement> result;
      try {
        result = backend_->evaluate_batch(one);
      } catch (...) {
        shared.abandon(misses[i]);
        throw;
      }
      shared.publish(misses[i], result.front());
      measured[i] = result.front();
      break;
    }
  }
  return measured;
}

}  // namespace bat::core
