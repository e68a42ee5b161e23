// SearchSpace = ParamSpace + static constraints.
//
// Provides the three operations the experiments need at scale:
//  * count_constrained(): Table VIII's "Constrained" count (up to 1.2e8
//    configurations)
//  * enumerate_constrained(): materialize all valid indices (used for the
//    exhaustively-searched benchmarks: Pnpoly, Nbody, GEMM, Convolution)
//  * sample_constrained(): n distinct valid configs — a density-aware
//    rank/select draw when the compiled valid set is materialized,
//    bounded rejection with an enumeration fallback otherwise
//    (the 10 000-random-configuration datasets of Hotspot/Dedisp/Expdist)
//
// compiled() exposes the index-space core (core/compiled_space.hpp): the
// space compiled once into value tables + strides, a per-parameter
// constraint plan and (for enumerable spaces) the CSR valid-index set.
// Counting and enumeration forward to its one constrained walk.
//
// Ownership / thread-safety: SearchSpace is a copyable value, but all
// copies share one lazily-compiled CompiledSpace — compiled() /
// compiled_shared() are thread-safe and compile exactly once; always
// obtain the compiled core through them (see the sharing rule in
// core/compiled_space.hpp). The space itself is immutable after
// construction and safe for concurrent reads.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "core/constraint.hpp"
#include "core/param_space.hpp"

namespace bat::core {

class CompiledSpace;

class SearchSpace {
 public:
  SearchSpace() = default;
  SearchSpace(ParamSpace space, ConstraintSet constraints)
      : space_(std::move(space)), constraints_(std::move(constraints)) {}

  // The compiled cache is immutable and self-contained, so copies can
  // share it; the mutex member just isn't copyable by default.
  SearchSpace(const SearchSpace& other)
      : space_(other.space_),
        constraints_(other.constraints_),
        compiled_(other.compiled_snapshot()) {}
  SearchSpace(SearchSpace&& other) noexcept
      : space_(std::move(other.space_)),
        constraints_(std::move(other.constraints_)),
        compiled_(other.compiled_snapshot()) {}
  SearchSpace& operator=(const SearchSpace& other) {
    if (this != &other) {
      space_ = other.space_;
      constraints_ = other.constraints_;
      set_compiled(other.compiled_snapshot());
    }
    return *this;
  }
  SearchSpace& operator=(SearchSpace&& other) noexcept {
    if (this != &other) {
      space_ = std::move(other.space_);
      constraints_ = std::move(other.constraints_);
      set_compiled(other.compiled_snapshot());
    }
    return *this;
  }

  [[nodiscard]] const ParamSpace& params() const noexcept { return space_; }
  [[nodiscard]] const ConstraintSet& constraints() const noexcept {
    return constraints_;
  }

  [[nodiscard]] ConfigIndex cardinality() const noexcept {
    return space_.cardinality();
  }

  /// The index-space core, compiled on first use (thread-safe) and
  /// shared by every copy of this SearchSpace. Stays valid even if this
  /// SearchSpace is destroyed (callers may keep the reference only while
  /// either the SearchSpace or another owner of the shared compilation
  /// is alive; backends cache the pointer under that contract).
  [[nodiscard]] const CompiledSpace& compiled() const;

  /// Shared-ownership form of compiled(): holders (e.g. ReplayBackend)
  /// keep the compilation alive independently of this SearchSpace's
  /// lifetime or later reassignment.
  [[nodiscard]] std::shared_ptr<const CompiledSpace> compiled_shared() const;

  [[nodiscard]] bool is_valid(const Config& config) const {
    return space_.contains(config) && constraints_.satisfied(config);
  }

  /// Count of constraint-satisfying configurations: the cardinality when
  /// there are no constraints, CompiledSpace::count_valid() otherwise.
  [[nodiscard]] std::uint64_t count_constrained() const;

  /// All valid ConfigIndex values, ascending (CompiledSpace::
  /// enumerate_valid()). Only call on spaces small enough to materialize
  /// (the paper's exhaustive benchmarks are <= 82 944 configurations
  /// before constraints); a streamed space of more than 2e8
  /// configurations throws std::length_error.
  [[nodiscard]] std::vector<ConfigIndex> enumerate_constrained() const;

  /// n distinct valid configurations (deterministic given `rng`). If
  /// fewer than n valid configs exist, returns all of them — including
  /// an empty vector when the constraints are contradictory; this never
  /// spins on near-empty valid sets.
  [[nodiscard]] std::vector<ConfigIndex> sample_constrained(
      std::size_t n, common::Rng& rng) const;

  /// One uniformly random valid index. A single rank-select draw on
  /// enumerable spaces; bounded rejection on streamed ones. Throws
  /// std::runtime_error when no valid configuration exists (or rejection
  /// exhausts its attempt bound).
  [[nodiscard]] ConfigIndex random_valid_index(common::Rng& rng) const;

 private:
  [[nodiscard]] std::shared_ptr<const CompiledSpace> compiled_snapshot() const {
    std::lock_guard<std::mutex> lock(compiled_mutex_);
    return compiled_;
  }
  void set_compiled(std::shared_ptr<const CompiledSpace> compiled) {
    std::lock_guard<std::mutex> lock(compiled_mutex_);
    compiled_ = std::move(compiled);
  }

  ParamSpace space_;
  ConstraintSet constraints_;
  mutable std::shared_ptr<const CompiledSpace> compiled_;
  mutable std::mutex compiled_mutex_;
};

}  // namespace bat::core
