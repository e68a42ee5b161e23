// CompiledSpace: a SearchSpace compiled once into index-space form.
//
// The hot paths of every layer above core (tuners stepping through
// Hamming-1 neighborhoods, FFG construction, constrained sampling) used
// to decode mixed-radix indices into Config value vectors and re-run
// the full constraint set per candidate. CompiledSpace folds
// the space into three structures that make those paths index-native:
//
//  (a) per-parameter value tables + mixed-radix strides, so a Hamming-1
//      move is pure index arithmetic: base + (d' - d) * stride[p];
//  (b) a constraint evaluation plan binding each constraint to the
//      minimal parameter subset it reads (Constraint::reads), so the
//      validity of a move on parameter p re-checks only the constraints
//      touching p — the rest keep their truth value from the base;
//  (c) for enumerable spaces (cardinality <= Options::materialize_limit),
//      a sorted CSR-bucketed valid-index set with O(1) rank/select:
//      select(ordinal) is an array load, rank(index) probes one small
//      bucket. The valid-ordinal domain is what FFG enumerates.
//
// Every pass that decodes indices and runs the full constraint set on
// each is one walk, for_each_valid(): building the valid set,
// count_valid() and enumerate_valid() (Table VIII's Constrained and
// Reduce-Constrained counts, SearchSpace's count and enumeration), the
// exhaustive Runner sweep, and the single-index checks behind
// is_valid_index() and rejection sampling. It decodes into one
// reusable per-thread Config, so none of them allocates per index.
//
// A CompiledSpace is immutable and self-contained: it copies the value
// tables and the constraint set, so it stays valid independently of the
// SearchSpace it was compiled from.
//
// Ownership / thread-safety — the sharing rule: never construct a
// CompiledSpace directly; go through SearchSpace::compiled() (borrowed
// reference) or compiled_shared() (shared ownership, e.g. the service's
// ShardedMeasurementCache), which return the one instance the
// SearchSpace compiled in its constructor and shares with its copies.
// Compilation of a materialized space enumerates the whole valid set —
// wasting that by compiling private copies is the trap. Once built, every query is const and safe
// to call from any number of threads; the one exception is
// NeighborScratch, which is mutable per-call state — own one scratch
// per thread, never share it. count_valid() and enumerate_valid() on a
// streamed space split the product over common::ThreadPool::global().
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/constraint.hpp"
#include "core/param_space.hpp"

namespace bat::core {

/// Reusable buffers for allocation-free neighbor iteration. A caller
/// (tuner, FFG builder) owns one scratch per thread and passes it to
/// every for_each_*_neighbor_index call.
struct NeighborScratch {
  std::vector<std::uint32_t> digits;
  Config values;
  std::vector<unsigned char> constraint_ok;
};

class CompiledSpace {
 public:
  struct Options {
    /// Spaces whose full cardinality is at or below this limit get a
    /// materialized valid-index set (rank/select, density-aware
    /// sampling). Larger spaces stay streamed: validity is evaluated
    /// through the constraint plan and sampling falls back to bounded
    /// rejection. The default covers the paper's exhaustive benchmarks
    /// (<= 82 944 configs) with generous headroom while keeping the
    /// 1e7..1e8 spaces (Expdist, Hotspot, Dedispersion) streamed.
    ConfigIndex materialize_limit = 1ULL << 20;
  };

  CompiledSpace(const ParamSpace& params, const ConstraintSet& constraints);
  CompiledSpace(const ParamSpace& params, const ConstraintSet& constraints,
                Options options);

  // ----------------------------------------------------- value tables --
  [[nodiscard]] std::size_t num_params() const noexcept {
    return values_.size();
  }
  [[nodiscard]] ConfigIndex cardinality() const noexcept {
    return cardinality_;
  }
  [[nodiscard]] std::size_t radix(std::size_t p) const {
    BAT_EXPECTS(p < values_.size());
    return values_[p].size();
  }
  [[nodiscard]] ConfigIndex stride(std::size_t p) const {
    BAT_EXPECTS(p < strides_.size());
    return strides_[p];
  }
  [[nodiscard]] const std::vector<Value>& values(std::size_t p) const {
    BAT_EXPECTS(p < values_.size());
    return values_[p];
  }

  /// Mixed-radix digits of `index` (digits[p] = value ordinal of
  /// parameter p); `digits` is resized to num_params().
  void decode_digits(ConfigIndex index,
                     std::vector<std::uint32_t>& digits) const;

  /// Inverse of decode_digits.
  [[nodiscard]] ConfigIndex index_of_digits(
      const std::vector<std::uint32_t>& digits) const;

  /// Decodes into a value vector via the compiled tables (equivalent to
  /// ParamSpace::decode_into).
  void decode_into(ConfigIndex index, Config& out) const;

  // --------------------------------------------------- constraint plan --
  /// Full constraint check over a decoded value vector.
  [[nodiscard]] bool satisfied(const Config& values) const;

  /// Validity of an index: O(1) rank probe when the valid set is
  /// materialized, a one-index walk otherwise.
  [[nodiscard]] bool is_valid_index(ConfigIndex index) const;

  // --------------------------------------------------------------- walk --
  /// The one constrained walk: calls fn(index) for every valid index in
  /// [lo, hi), ascending, on the calling thread. A materialized space
  /// walks its valid set; a streamed one decodes each index into the
  /// thread's reusable scratch and runs the constraint set. fn runs
  /// after its index is checked, so it may query this space itself.
  template <typename Fn>
  void for_each_valid(ConfigIndex lo, ConfigIndex hi, Fn&& fn) const {
    BAT_EXPECTS(lo <= hi && hi <= cardinality_);
    if (materialized_) {
      auto it = std::lower_bound(valid_.begin(), valid_.end(), lo);
      for (; it != valid_.end() && *it < hi; ++it) fn(*it);
      return;
    }
    Config& values = walk_scratch();
    for (ConfigIndex index = lo; index < hi; ++index) {
      decode_into(index, values);
      if (satisfied(values)) fn(index);
    }
  }

  /// Number of valid configurations: the valid set's size when
  /// materialized, a parallel walk of the product otherwise.
  [[nodiscard]] std::uint64_t count_valid() const;

  /// The valid indices in [lo, hi), ascending: a slice of the valid set
  /// when materialized, a parallel walk of the range otherwise.
  [[nodiscard]] std::vector<ConfigIndex> enumerate_valid(ConfigIndex lo,
                                                         ConfigIndex hi) const;
  /// All valid indices, ascending.
  [[nodiscard]] std::vector<ConfigIndex> enumerate_valid() const {
    return enumerate_valid(0, cardinality_);
  }

  // --------------------------------------------------------- valid set --
  [[nodiscard]] bool has_valid_set() const noexcept { return materialized_; }
  /// Size of the materialized valid set (requires has_valid_set()).
  [[nodiscard]] std::uint64_t num_valid() const {
    BAT_EXPECTS(materialized_);
    return valid_.size();
  }
  [[nodiscard]] const std::vector<ConfigIndex>& valid_indices() const {
    BAT_EXPECTS(materialized_);
    return valid_;
  }
  /// valid-ordinal -> ConfigIndex (O(1) array load).
  [[nodiscard]] ConfigIndex select(std::uint64_t ordinal) const {
    BAT_EXPECTS(materialized_ && ordinal < valid_.size());
    return valid_[static_cast<std::size_t>(ordinal)];
  }
  /// ConfigIndex -> valid-ordinal, or nullopt if the index is invalid.
  /// One CSR bucket probe (buckets hold ~2 entries on average).
  [[nodiscard]] std::optional<std::uint64_t> rank(ConfigIndex index) const;

  // ---------------------------------------------------------- neighbors --
  /// Calls fn(neighbor_index) for every Hamming-1 neighbor in the full
  /// product (no validity filter). Pure index arithmetic.
  template <typename Fn>
  void for_each_neighbor_index(ConfigIndex base, NeighborScratch& scratch,
                               Fn&& fn) const {
    decode_digits(base, scratch.digits);
    for (std::size_t p = 0; p < values_.size(); ++p) {
      const ConfigIndex stride = strides_[p];
      const ConfigIndex floor = base - scratch.digits[p] * stride;
      const std::size_t r = values_[p].size();
      for (std::size_t d = 0; d < r; ++d) {
        if (d == scratch.digits[p]) continue;
        fn(floor + static_cast<ConfigIndex>(d) * stride);
      }
    }
  }

  /// Calls fn(neighbor_index) for every *valid* Hamming-1 neighbor.
  /// With a materialized valid set each neighbor costs one rank probe;
  /// otherwise the constraint plan evaluates only the constraints
  /// touching the moved parameter (the rest keep their truth value from
  /// the base configuration, which is evaluated once). Exact for valid
  /// and invalid base configurations alike.
  template <typename Fn>
  void for_each_valid_neighbor_index(ConfigIndex base,
                                     NeighborScratch& scratch,
                                     Fn&& fn) const {
    if (materialized_) {
      for_each_neighbor_index(base, scratch, [&](ConfigIndex n) {
        if (rank(n)) fn(n);
      });
      return;
    }
    decode_digits(base, scratch.digits);
    decode_values(scratch.digits, scratch.values);

    // Truth of every constraint on the base configuration; a move on p
    // leaves constraints not touching p unchanged.
    scratch.constraint_ok.resize(constraints_.size());
    std::size_t failing = 0;
    for (std::size_t c = 0; c < constraints_.size(); ++c) {
      scratch.constraint_ok[c] = constraints_[c].check(scratch.values) ? 1 : 0;
      failing += scratch.constraint_ok[c] ? 0 : 1;
    }

    for (std::size_t p = 0; p < values_.size(); ++p) {
      const auto& touching = touching_[p];
      // All constraints *not* touching p must already hold on the base;
      // otherwise every p-neighbor inherits the violation.
      std::size_t failing_touching = 0;
      for (const auto c : touching) {
        failing_touching += scratch.constraint_ok[c] ? 0 : 1;
      }
      if (failing != failing_touching) continue;

      const ConfigIndex stride = strides_[p];
      const ConfigIndex floor = base - scratch.digits[p] * stride;
      const Value original = scratch.values[p];
      const auto& table = values_[p];
      for (std::size_t d = 0; d < table.size(); ++d) {
        if (d == scratch.digits[p]) continue;
        scratch.values[p] = table[d];
        bool ok = true;
        for (const auto c : touching) {
          if (!constraints_[c].check(scratch.values)) {
            ok = false;
            break;
          }
        }
        if (ok) fn(floor + static_cast<ConfigIndex>(d) * stride);
      }
      scratch.values[p] = original;
    }
  }

  // ----------------------------------------------------------- sampling --
  /// One uniformly random valid index: a single rank-select draw when
  /// the valid set is materialized (throws std::runtime_error if it is
  /// empty), bounded rejection otherwise.
  [[nodiscard]] ConfigIndex random_valid_index(common::Rng& rng) const;

  /// n distinct valid indices, ascending. Density-aware: a rank-select
  /// draw over valid ordinals when materialized (returns all of them if
  /// fewer than n exist — including none), bounded rejection for the
  /// huge streamed spaces.
  [[nodiscard]] std::vector<ConfigIndex> sample_valid(std::size_t n,
                                                      common::Rng& rng) const;

 private:
  /// The walk's decode buffer: one per thread, shared by every walk and
  /// single-index check on that thread.
  static Config& walk_scratch();
  void decode_values(const std::vector<std::uint32_t>& digits,
                     Config& out) const;
  void materialize();

  std::vector<std::string> names_;         // parameter names, in order
  std::vector<std::vector<Value>> values_;  // per-parameter value tables
  std::vector<ConfigIndex> strides_;
  ConfigIndex cardinality_ = 1;

  std::vector<Constraint> constraints_;
  std::vector<std::vector<std::uint16_t>> touching_;  // param -> constraints

  // CSR valid set: valid_ is sorted ascending; bucket b covers indices
  // [b << bucket_shift_, (b+1) << bucket_shift_) and owns the slice
  // valid_[bucket_offsets_[b] .. bucket_offsets_[b+1]).
  bool materialized_ = false;
  std::vector<ConfigIndex> valid_;
  std::vector<std::uint64_t> bucket_offsets_;
  std::uint32_t bucket_shift_ = 0;
};

}  // namespace bat::core
