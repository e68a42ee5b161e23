// DatasetRepository: one place every layer resolves (benchmark, device)
// datasets through — one parse/sweep per key, shared everywhere.
//
// Resolution order for get():
//   1. in-memory entries (loaded via load_file() or previously resolved);
//   2. the disk cache directory: <benchmark>_<device>.bin, then .csv;
//   3. a Runner sweep under the paper's §V policy (core::Runner::
//      run_default: exhaustive for small spaces, sampled otherwise),
//      persisted back to the cache dir as a binary archive when one is
//      configured.
//
// find() stops after (2) — callers with their own sweep policy (the
// TuningService refuses to sweep non-enumerable spaces for replay) use
// it to decide before paying for (3).
//
// Ownership / thread-safety: all methods are thread-safe (one mutex;
// sweeps run outside it, first insert wins — backends are
// deterministic, so a duplicate sweep is wasted work, never a wrong
// answer). Returned shared_ptrs stay valid independently of the
// repository's lifetime.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/benchmark.hpp"
#include "core/dataset.hpp"

namespace bat::io {

class DatasetRepository {
 public:
  /// `cache_dir` is scanned for <benchmark>_<device>.{bin,csv} archives
  /// and receives persisted sweeps; "" (the default) disables disk
  /// entirely.
  explicit DatasetRepository(std::string cache_dir = {});

  /// Process-wide repository: cache_dir comes from the BAT_DATASET_DIR
  /// environment variable (unset/empty = memory-only). The figure
  /// harnesses resolve through this instance.
  [[nodiscard]] static DatasetRepository& global();

  /// Memory or disk only — never computes. nullptr when absent.
  [[nodiscard]] std::shared_ptr<const core::Dataset> find(
      const std::string& benchmark, const std::string& device);

  /// find(), falling back to a Runner sweep of `bench` on `device`
  /// under the paper's §V policy.
  [[nodiscard]] std::shared_ptr<const core::Dataset> get(
      const core::Benchmark& bench, core::DeviceIndex device);

  /// Loads `path` (either format) and registers it under its own
  /// (benchmark, device) identity, overriding disk and future sweeps for
  /// that key; returns the shared entry.
  std::shared_ptr<const core::Dataset> load_file(const std::string& path);

 private:
  using Key = std::pair<std::string, std::string>;

  [[nodiscard]] std::string archive_path(const Key& key,
                                         const char* extension) const;
  [[nodiscard]] std::shared_ptr<const core::Dataset> find_locked(
      const Key& key, std::unique_lock<std::mutex>& lock);

  std::string cache_dir_;
  std::mutex mutex_;
  std::map<Key, std::shared_ptr<const core::Dataset>> datasets_;
};

}  // namespace bat::io
