#include "core/search_space.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
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
  const auto& cs = compiled();
  if (cs.has_valid_set()) return cs.num_valid();

  const ConfigIndex n = space_.cardinality();
  auto& pool = common::ThreadPool::global();
  std::vector<std::uint64_t> partial(pool.size(), 0);
  pool.parallel_for_chunked(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        Config scratch;
        std::uint64_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          space_.decode_into(static_cast<ConfigIndex>(i), scratch);
          if (constraints_.satisfied(scratch)) ++count;
        }
        partial[worker] = count;
      });
  std::uint64_t total = 0;
  for (const auto c : partial) total += c;
  return total;
}

std::vector<ConfigIndex> SearchSpace::enumerate_constrained() const {
  const auto& cs = compiled();
  if (cs.has_valid_set()) return cs.valid_indices();

  const ConfigIndex n = space_.cardinality();
  constexpr ConfigIndex kEnumerationLimit = 200'000'000;
  if (n > kEnumerationLimit) {
    throw std::length_error(
        "search space too large to enumerate; use sample_constrained()");
  }
  auto& pool = common::ThreadPool::global();
  std::vector<std::vector<ConfigIndex>> partial(pool.size());
  pool.parallel_for_chunked(
      0, static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        Config scratch;
        auto& out = partial[worker];
        for (std::size_t i = lo; i < hi; ++i) {
          space_.decode_into(static_cast<ConfigIndex>(i), scratch);
          if (constraints_.satisfied(scratch)) {
            out.push_back(static_cast<ConfigIndex>(i));
          }
        }
      });
  std::vector<ConfigIndex> all;
  std::size_t total = 0;
  for (const auto& p : partial) total += p.size();
  all.reserve(total);
  // Chunks are contiguous ascending ranges, so concatenation stays sorted.
  for (const auto& p : partial) all.insert(all.end(), p.begin(), p.end());
  return all;
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
