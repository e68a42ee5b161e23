// ShardedMeasurementCache: a cross-session measurement cache that the
// program no longer uses. TuningService sessions each evaluate on their
// own; routing them through this cache cost the grid more in claims
// than it saved in evaluations. It stays, with its unit tests, only
// because benchmark/src/tuning_workload.cpp still builds one for its
// composed round; ROADMAP item 7 deletes both after that change.
//
// Implements core::SharedMeasurementCache (the claim/publish/abandon/
// wait exactly-once protocol) with per-shard mutexes so that concurrent
// sessions on the same search space dedupe work lock-cheaply. Keys are
// *valid ordinals* from CompiledSpace::rank when the space is
// materialized: ordinals are dense and uniformly spread over shards by a
// cheap modulo, and two sessions probing the same configuration always
// collide on the same key regardless of how they produced the index.
// The built-in tuners evaluate only valid indices; an invalid one (from
// a custom tuner) keys as num_valid + raw index — disjoint from the
// ordinal range because materialized spaces have cardinality <= 2^20.
// Streamed (huge) spaces key by raw ConfigIndex directly.
//
// Concurrency: each shard owns one mutex, one condition variable and one
// hash map; claim/publish/abandon touch exactly one shard, so 16+ shards
// keep concurrent sessions mostly uncontended where a single global
// mutex would serialize every probe (shards = 1 *is* the single-mutex
// baseline). wait() blocks on the shard's condition variable until the
// claim owner publishes or abandons.
//
// Ownership: the cache shares ownership of the CompiledSpace (so it
// stays valid independently of the SearchSpace it came from); sessions
// borrow it through core::EvaluationHooks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/compiled_space.hpp"
#include "core/shared_cache.hpp"

namespace bat::service {

class ShardedMeasurementCache final : public core::SharedMeasurementCache {
 public:
  /// Aggregated counters (summed over shards at call time). A claim
  /// that found a ready measurement is a `hit`; one resolved by another
  /// session while we waited is `waited` — both mean this session got a
  /// measurement it never paid to evaluate, so
  /// cross_session_hits() = hits + waited.
  struct Stats {
    std::uint64_t lookups = 0;      // claim() calls
    std::uint64_t hits = 0;         // claim() returned kHit
    std::uint64_t waited = 0;       // wait() resolved with a measurement
    std::uint64_t evaluations = 0;  // publish() calls (distinct evals)
    std::uint64_t abandoned = 0;    // abandon() calls
    [[nodiscard]] std::uint64_t cross_session_hits() const noexcept {
      return hits + waited;
    }
  };

  /// `compiled` may be null (raw ConfigIndex keys; used by unit tests).
  /// `shards` is rounded up to a power of two; 1 = single-mutex baseline.
  explicit ShardedMeasurementCache(
      std::shared_ptr<const core::CompiledSpace> compiled,
      std::size_t shards = 16);

  [[nodiscard]] Claim claim(core::ConfigIndex index) override;
  void publish(core::ConfigIndex index, const core::Measurement& m) override;
  void abandon(core::ConfigIndex index) override;
  [[nodiscard]] std::optional<core::Measurement> wait(
      core::ConfigIndex index) override;

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  /// Number of ready (published) measurements.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    core::Measurement measurement;
    bool ready = false;  // false while the claim owner is evaluating
  };
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Entry> map;
    // Counters live under the shard mutex: incrementing them costs
    // nothing extra and a global atomic would reintroduce the very
    // cross-shard contention the sharding removes.
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t waited = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t abandoned = 0;
  };

  [[nodiscard]] std::uint64_t key_of(core::ConfigIndex index) const;
  [[nodiscard]] Shard& shard_of(std::uint64_t key) {
    return shards_[static_cast<std::size_t>(key) & mask_];
  }

  std::shared_ptr<const core::CompiledSpace> compiled_;
  bool by_ordinal_ = false;
  std::uint64_t invalid_offset_ = 0;  // num_valid when keying by ordinal
  std::vector<Shard> shards_;
  std::size_t mask_ = 0;
};

}  // namespace bat::service
