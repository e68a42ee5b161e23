#include "core/backend.hpp"

#include <algorithm>
#include <optional>

#include "common/contracts.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace bat::core {

std::string replay_schema_hint(const std::vector<std::string>& space_params,
                               const std::vector<std::string>& dataset_params) {
  if (space_params == dataset_params) return "";
  if (dataset_params.empty()) return "";  // schema unknown: no verdict
  std::string hint =
      "; the dataset's parameter schema is stale for this space (";
  if (space_params.size() != dataset_params.size()) {
    hint += "it has " + std::to_string(dataset_params.size()) +
            " parameters, the space has " +
            std::to_string(space_params.size());
  } else {
    for (std::size_t p = 0; p < space_params.size(); ++p) {
      if (space_params[p] == dataset_params[p]) continue;
      hint += "parameter " + std::to_string(p) + " is '" + dataset_params[p] +
              "' in the dataset but '" + space_params[p] +
              "' in the space - a param-name order mismatch makes every "
              "stored config index decode differently";
      break;
    }
  }
  hint += ")";
  return hint;
}

Measurement EvaluationBackend::evaluate(ConfigIndex index) {
  const ConfigIndex indices[1] = {index};
  return evaluate_batch(indices).front();
}

// ------------------------------------------------------------ LiveBackend --

LiveBackend::LiveBackend(const Benchmark& benchmark, DeviceIndex device,
                         std::size_t parallel_threshold)
    : benchmark_(&benchmark),
      device_(device),
      parallel_threshold_(std::max<std::size_t>(parallel_threshold, 2)),
      name_("live:" + benchmark.name() + "@" + benchmark.device_name(device)) {}

std::vector<Measurement> LiveBackend::evaluate_batch(
    std::span<const ConfigIndex> indices) {
  // Decoding goes through the compiled value tables: the same mixed-radix
  // arithmetic as ParamSpace but without touching Parameter objects.
  const auto& compiled = benchmark_->space().compiled();
  std::vector<Measurement> results(indices.size());
  if (indices.size() < parallel_threshold_) {
    Config scratch;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      compiled.decode_into(indices[i], scratch);
      results[i] = benchmark_->evaluate(scratch, device_);
    }
    return results;
  }
  common::parallel_for_chunked(
      0, indices.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
        Config scratch;
        for (std::size_t i = lo; i < hi; ++i) {
          compiled.decode_into(indices[i], scratch);
          results[i] = benchmark_->evaluate(scratch, device_);
        }
      });
  return results;
}

// ---------------------------------------------------------- ReplayBackend --

ReplayBackend::ReplayBackend(const SearchSpace& space, const Dataset& dataset)
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
        // and why replay just got slower. When the dataset's parameter
        // schema disagrees with the space, say so explicitly — a stale
        // (reordered/renamed) schema is the common cause of ordinal
        // misses and looks exactly like a foreign path otherwise.
        common::log_warn(
            name_, ": dataset",
            dataset.source().empty() ? "" : " '" + dataset.source() + "'",
            " row ", row, " (config index ", dataset.config_index(row),
            ") is outside this search space's valid set - falling back "
            "from O(1) valid-ordinal lookup to hashed lookup (is this "
            "dataset from a different space or constraint set?)",
            replay_schema_hint(space.params().param_names(),
                               dataset.param_names()));
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

bool ReplayBackend::contains(ConfigIndex index) const noexcept {
  if (ordinal_mode_) {
    const auto ordinal = compiled_->rank(index);
    return ordinal && covered_[static_cast<std::size_t>(*ordinal)] != 0;
  }
  return table_.find(index) != table_.end();
}

std::vector<Measurement> ReplayBackend::evaluate_batch(
    std::span<const ConfigIndex> indices) {
  std::vector<Measurement> results;
  results.reserve(indices.size());
  for (const ConfigIndex index : indices) {
    if (ordinal_mode_) {
      const auto ordinal = compiled_->rank(index);
      if (ordinal && covered_[static_cast<std::size_t>(*ordinal)] != 0) {
        results.push_back(by_ordinal_[static_cast<std::size_t>(*ordinal)]);
        continue;
      }
    } else {
      const auto it = table_.find(index);
      if (it != table_.end()) {
        results.push_back(it->second);
        continue;
      }
    }
    throw std::out_of_range(name_ + ": config index " +
                            std::to_string(index) +
                            " is not covered by the dataset");
  }
  return results;
}

// -------------------------------------------------------- CountingBackend --

CountingBackend::CountingBackend(EvaluationBackend& inner, std::size_t budget,
                                 EvaluationHooks hooks)
    : inner_(&inner),
      budget_(budget),
      hooks_(hooks),
      name_("counting:" + inner.name()) {
  BAT_EXPECTS(budget > 0);
  cache_.reserve(std::min<std::size_t>(budget, 1 << 16));
}

std::vector<Measurement> CountingBackend::evaluate_batch(
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
  // Batch-boundary cancellation point: both tuner driving styles funnel
  // every measurement through here, so a set token stops the session
  // before it spends anything else.
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
      if (cache_.find(index) != cache_.end()) continue;
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

  if (!misses.empty()) {
    const auto measured = hooks_.shared_cache
                              ? resolve_through_shared_cache(misses)
                              : inner_->evaluate_batch(misses);
    for (std::size_t i = 0; i < misses.size(); ++i) {
      cache_.emplace(misses[i], measured[i]);
      trace_.push_back(TraceEntry{misses[i], measured[i].objective()});
    }
  }
  if (truncated) throw BudgetExhausted();

  std::vector<Measurement> results;
  results.reserve(indices.size());
  for (const ConfigIndex index : indices) {
    results.push_back(cache_.at(index));
  }
  return results;
}

std::vector<Measurement> CountingBackend::resolve_through_shared_cache(
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
      results = inner_->evaluate_batch(batch);
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
        result = inner_->evaluate_batch(one);
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
