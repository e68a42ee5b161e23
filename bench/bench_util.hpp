// Shared helpers for the figure/table harnesses.
//
// Each harness regenerates one table or figure of the paper: it runs the
// paper's experimental design (§V: exhaustive for Pnpoly/Nbody/GEMM/
// Convolution, 10 000 random configurations for Hotspot/Dedisp/Expdist;
// see core/runner.hpp) and prints the same rows/series the paper reports.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "io/dataset_repository.hpp"
#include "kernels/all_kernels.hpp"

namespace bat::bench {

/// Figure harnesses resolve every dataset through the process-wide
/// io::DatasetRepository — one sweep (or one archive parse) per
/// (benchmark, device), shared across harness sections; exporting
/// BAT_DATASET_DIR caches the sweeps on disk as binary archives so
/// re-running a harness opens them in microseconds instead of
/// re-simulating. The local map only skips repeated kernel registry
/// lookups on the hit path.
inline const core::Dataset& dataset(const std::string& benchmark,
                                    core::DeviceIndex device) {
  static std::map<std::pair<std::string, core::DeviceIndex>,
                  std::shared_ptr<const core::Dataset>>
      cache;
  const auto key = std::make_pair(benchmark, device);
  const auto it = cache.find(key);
  if (it != cache.end()) return *it->second;
  const auto bench = kernels::make(benchmark);
  auto ds = io::DatasetRepository::global().get(*bench, device);
  return *cache.emplace(key, std::move(ds)).first->second;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace bat::bench
