#include "core/search_space.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/compiled_space.hpp"

namespace bat::core {

const CompiledSpace& SearchSpace::compiled() const {
  return *compiled_shared();
}

std::shared_ptr<const CompiledSpace> SearchSpace::compiled_shared() const {
  std::lock_guard<std::mutex> lock(compiled_mutex_);
  if (!compiled_) {
    compiled_ = std::make_shared<const CompiledSpace>(space_, constraints_);
  }
  return compiled_;
}

std::uint64_t SearchSpace::count_constrained() const {
  if (constraints_.empty()) return space_.cardinality();
  return compiled().count_valid();
}

std::vector<ConfigIndex> SearchSpace::enumerate_constrained() const {
  const auto& cs = compiled();
  constexpr ConfigIndex kEnumerationLimit = 200'000'000;
  if (!cs.has_valid_set() && cs.cardinality() > kEnumerationLimit) {
    throw std::length_error(
        "search space too large to enumerate; use sample_constrained()");
  }
  return cs.enumerate_valid();
}

std::vector<ConfigIndex> SearchSpace::sample_constrained(
    std::size_t n, common::Rng& rng) const {
  const auto& cs = compiled();
  auto out = cs.sample_valid(n, rng);
  if (out.size() < n && !cs.has_valid_set()) {
    // Streamed space whose rejection pass came up short: enumerate and
    // subsample deterministically (the valid set is too sparse for
    // rejection, so it is small enough to materialize once).
    const auto all = enumerate_constrained();
    if (all.size() <= n) return all;
    const auto picks = rng.sample_indices(all.size(), n);
    out.clear();
    for (const auto p : picks) out.push_back(all[p]);
    std::sort(out.begin(), out.end());
  }
  return out;
}

ConfigIndex SearchSpace::random_valid_index(common::Rng& rng) const {
  return compiled().random_valid_index(rng);
}

}  // namespace bat::core
