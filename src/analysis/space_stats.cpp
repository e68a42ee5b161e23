#include "analysis/space_stats.hpp"

#include <algorithm>
#include <set>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "core/runner.hpp"

namespace bat::analysis {

namespace {

/// A parameter is "important" at or above this PFI on some device.
constexpr double kPfiThreshold = 0.05;

/// Counts configurations of the projected space (reduced params free,
/// others pinned to `pinned`) that satisfy the constraints.
std::uint64_t count_reduce_constrained(const core::SearchSpace& space,
                                       const std::vector<std::size_t>& kept,
                                       const core::Config& pinned) {
  const auto& params = space.params();
  // Mixed-radix enumeration over the kept parameters only.
  std::uint64_t total = 1;
  for (const auto p : kept) total *= params.param(p).cardinality();

  const auto decode = [&](std::uint64_t index, core::Config& config) {
    config = pinned;
    for (std::size_t i = kept.size(); i-- > 0;) {
      const auto& values = params.param(kept[i]).values();
      config[kept[i]] = values[index % values.size()];
      index /= values.size();
    }
  };

  auto& pool = common::ThreadPool::global();
  std::vector<std::uint64_t> partial(pool.size(), 0);
  pool.parallel_for_chunked(
      0, static_cast<std::size_t>(total),
      [&](std::size_t lo, std::size_t hi, std::size_t worker) {
        core::Config config;
        std::uint64_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          decode(i, config);
          if (space.constraints().satisfied(config)) ++count;
        }
        partial[worker] = count;
      });
  std::uint64_t count = 0;
  for (const auto c : partial) count += c;
  return count;
}

}  // namespace

SpaceStats space_stats(const core::Benchmark& benchmark,
                       const std::vector<ImportanceReport>& reports) {
  BAT_EXPECTS(reports.size() == benchmark.device_count());
  const auto& space = benchmark.space();
  const auto& params = space.params();

  SpaceStats stats;
  stats.benchmark = benchmark.name();
  stats.cardinality = space.cardinality();
  stats.constrained = space.count_constrained();

  // Valid (per-device) only for exhaustively enumerable spaces.
  if (stats.cardinality <= core::kExhaustiveLimit) {
    std::uint64_t vmin = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t vmax = 0;
    for (core::DeviceIndex d = 0; d < benchmark.device_count(); ++d) {
      const auto ds = core::Runner::run_exhaustive(benchmark, d);
      const std::uint64_t valid = ds.num_valid();
      vmin = std::min(vmin, valid);
      vmax = std::max(vmax, valid);
    }
    stats.valid_min = vmin;
    stats.valid_max = vmax;
  }

  // Reduced: parameters important (PFI >= threshold) on ANY device.
  std::set<std::size_t> important;
  core::Config pinned;  // best config of device 0 pins dropped params
  for (const auto& report : reports) {
    BAT_EXPECTS(report.importance.size() == params.num_params());
    for (std::size_t p = 0; p < report.importance.size(); ++p) {
      if (report.importance[p] >= kPfiThreshold) important.insert(p);
    }
  }
  std::vector<std::size_t> kept(important.begin(), important.end());
  stats.reduced = 1;
  for (const auto p : kept) {
    stats.reduced *= params.param(p).cardinality();
    stats.reduced_params.push_back(params.param(p).name());
  }

  // Reduce-Constrained: constraints re-applied on the projected subspace,
  // with the non-reduced parameters pinned to the best-known values.
  {
    const auto ds = core::Runner::run_default(benchmark, 0);
    pinned = ds.config(ds.best_row());
  }
  stats.reduce_constrained =
      kept.empty() ? (space.constraints().satisfied(pinned) ? 1 : 0)
                   : count_reduce_constrained(space, kept, pinned);
  return stats;
}

}  // namespace bat::analysis
