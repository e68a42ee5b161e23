#include "core/evaluator.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"
#include "core/compiled_space.hpp"

namespace bat::core {

CachingEvaluator::CachingEvaluator(EvaluationBackend& backend,
                                   std::size_t budget, EvaluationHooks hooks)
    : backend_(&backend), budget_(budget), hooks_(hooks) {
  BAT_EXPECTS(budget > 0);
  reserve_memo(std::min<std::size_t>(budget, 1 << 16));
  const auto& compiled = backend.space().compiled();
  if (compiled.has_valid_set()) unseen_valid_ = compiled.num_valid();
}

double CachingEvaluator::evaluate_index(ConfigIndex index) {
  const ConfigIndex indices[1] = {index};
  return evaluate_batch(indices).front();
}

std::span<const double> CachingEvaluator::evaluate_batch(
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

  // One probe per index. A first-occurrence miss is entered at the
  // trace position it will take, so a duplicate later in the batch
  // finds it and is charged once. Misses are cut at the remaining
  // budget; `truncated` means at least one was refused. The memo is
  // grown first, so no entry moves while the batch holds its slots.
  const std::size_t traced = trace_.size();
  reserve_memo(traced + std::min(indices.size(), budget_ - traced));
  misses_.clear();
  positions_.resize(indices.size());
  bool truncated = false;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    MemoSlot& slot = probe(indices[i]);
    if (slot.index == kEmptySlot) {
      if (traced + misses_.size() >= budget_) {
        truncated = true;
        break;
      }
      slot = MemoSlot{indices[i], traced + misses_.size()};
      misses_.push_back(indices[i]);
    }
    positions_[i] = slot.position;
  }

  const auto& compiled = space().compiled();
  if (!misses_.empty()) {
    idle_calls_ = 0;
    std::vector<Measurement> measured;
    try {
      measured = hooks_.shared_cache ? resolve_through_shared_cache(misses_)
                                     : backend_->evaluate_batch(misses_);
      trace_.resize(traced + misses_.size());
    } catch (...) {
      // Withdraw this batch's entries, last first: each is then the
      // newest entry, so emptying its slot restores the memo exactly.
      for (std::size_t k = misses_.size(); k-- > 0;) {
        probe(misses_[k]) = MemoSlot{kEmptySlot, 0};
      }
      throw;
    }
    for (std::size_t k = 0; k < misses_.size(); ++k) {
      trace_[traced + k] = TraceEntry{misses_[k], measured[k].objective()};
      if (unseen_valid_ != kUncounted && compiled.is_valid_index(misses_[k])) {
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

  results_.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    results_[i] = trace_[positions_[i]].objective;
  }
  return results_;
}

CachingEvaluator::MemoSlot& CachingEvaluator::probe(
    ConfigIndex index) noexcept {
  // Fibonacci hashing: the product's top bits pick the home slot.
  const std::size_t mask = memo_.size() - 1;
  auto slot = static_cast<std::size_t>((index * 0x9e3779b97f4a7c15ULL) >>
                                       memo_shift_);
  while (memo_[slot].index != kEmptySlot && memo_[slot].index != index) {
    slot = (slot + 1) & mask;
  }
  return memo_[slot];
}

void CachingEvaluator::reserve_memo(std::size_t entries) {
  if (2 * entries <= memo_.size()) return;
  const std::size_t capacity = std::bit_ceil(2 * entries);
  memo_.assign(capacity, MemoSlot{kEmptySlot, 0});
  memo_shift_ = 64 - std::countr_zero(capacity);
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    probe(trace_[i].index) = MemoSlot{trace_[i].index, i};
  }
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
