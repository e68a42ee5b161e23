// Table VIII: search-space sizes of the benchmarks.
//
//   Cardinality        |product of value-set sizes|
//   Constrained        configurations passing static constraints
//   Valid              per-device range of launchable configurations
//                      (spaces within core::kExhaustiveLimit only;
//                      "N/A" otherwise, matching the paper)
//   Reduced            cardinality restricted to parameters whose PFI is
//                      >= 0.05 on at least one device
//   Reduce-Constrained Reduced with constraints re-applied (counted on
//                      the projected subspace; non-reduced parameters are
//                      pinned to their overall-best value)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/importance.hpp"
#include "core/benchmark.hpp"

namespace bat::analysis {

struct SpaceStats {
  std::string benchmark;
  std::uint64_t cardinality = 0;
  std::uint64_t constrained = 0;
  std::optional<std::uint64_t> valid_min;  // per-device min/max of Valid
  std::optional<std::uint64_t> valid_max;
  std::uint64_t reduced = 0;
  std::uint64_t reduce_constrained = 0;
  std::vector<std::string> reduced_params;  // the kept parameters
};

/// Computes the full Table VIII row for one benchmark; `reports[d]` must
/// hold the Fig 6 importance result per device (so the expensive PFI
/// work is shared with the Fig 6 harness).
[[nodiscard]] SpaceStats space_stats(
    const core::Benchmark& benchmark,
    const std::vector<ImportanceReport>& reports);

}  // namespace bat::analysis
