#include "io/dataset_repository.hpp"

#include <atomic>
#include <cstdlib>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#else
namespace {
int getpid() { return 0; }  // serial suffix alone disambiguates in-process
}  // namespace
#endif

#include "common/log.hpp"
#include "core/runner.hpp"
#include "io/dataset_file.hpp"
#include "io/dataset_writer.hpp"
#include "io/fsync.hpp"

namespace bat::io {

DatasetRepository::DatasetRepository(std::string cache_dir)
    : cache_dir_(std::move(cache_dir)) {}

DatasetRepository& DatasetRepository::global() {
  static DatasetRepository repository = [] {
    const char* dir = std::getenv("BAT_DATASET_DIR");
    return DatasetRepository(dir != nullptr ? dir : "");
  }();
  return repository;
}

std::string DatasetRepository::archive_path(const Key& key,
                                            const char* extension) const {
  return cache_dir_ + "/" + key.first + "_" + key.second + extension;
}

std::shared_ptr<const core::Dataset> DatasetRepository::find_locked(
    const Key& key, std::unique_lock<std::mutex>& lock) {
  const auto it = datasets_.find(key);
  if (it != datasets_.end()) return it->second;
  if (cache_dir_.empty()) return nullptr;

  // Disk probes and parsing run unlocked; first insert wins. A
  // malformed archive (e.g. a sweep killed before finalize under an
  // old layout, or plain corruption) must degrade to the next source,
  // not poison the cache dir: warn and fall through.
  lock.unlock();
  std::shared_ptr<const core::Dataset> loaded;
  for (const char* ext : {".bin", ".csv"}) {
    const auto path = archive_path(key, ext);
    if (!std::filesystem::exists(path)) continue;
    try {
      loaded = std::make_shared<const core::Dataset>(load_dataset(path));
    } catch (const std::exception& e) {
      common::log_warn("dataset repository: ignoring unreadable archive ",
                       path, " (", e.what(), ")");
      continue;
    }
    common::log_debug("dataset repository: ", key.first, "@", key.second,
                      " resolved from ", path);
    break;
  }
  lock.lock();
  if (!loaded) return nullptr;
  return datasets_.emplace(key, std::move(loaded)).first->second;
}

std::shared_ptr<const core::Dataset> DatasetRepository::find(
    const std::string& benchmark, const std::string& device) {
  std::unique_lock lock(mutex_);
  return find_locked(Key{benchmark, device}, lock);
}

std::shared_ptr<const core::Dataset> DatasetRepository::get(
    const core::Benchmark& bench, core::DeviceIndex device) {
  const Key key{bench.name(), bench.device_name(device)};
  {
    std::unique_lock lock(mutex_);
    if (auto found = find_locked(key, lock)) return found;
  }

  // Sweep outside the lock (slow); persist, then publish first-wins.
  auto swept =
      std::make_shared<core::Dataset>(core::Runner::run_default(bench, device));
  if (!cache_dir_.empty()) {
    const auto path = archive_path(key, ".bin");
    try {
      std::filesystem::create_directories(cache_dir_);
      // The journal's tmp + fsync + rename discipline: a killed process
      // never leaves a partial archive under the final name, concurrent
      // sweeps of the same key (both deterministic, so either result is
      // right) don't interleave writes into one file, and a crash right
      // after the rename can tear neither the bytes (file fsynced
      // before rename) nor the directory entry (directory fsynced
      // after).
      static std::atomic<unsigned> temp_serial{0};
      const auto temp = path + ".tmp" +
                        std::to_string(temp_serial.fetch_add(1)) + "-" +
                        std::to_string(::getpid());
      save_dataset(temp, *swept, DatasetFormat::kBinary);
      fsync_file(temp);
      std::filesystem::rename(temp, path);
      fsync_parent_dir(path);
      swept->set_source(path);
      common::log_info("dataset repository: persisted ", key.first, "@",
                       key.second, " to ", path, " (", swept->size(),
                       " rows)");
    } catch (const std::exception& e) {
      common::log_warn("dataset repository: could not persist ", path, ": ",
                       e.what());
    }
  }
  std::unique_lock lock(mutex_);
  return datasets_.emplace(key, std::move(swept)).first->second;
}

std::shared_ptr<const core::Dataset> DatasetRepository::load_file(
    const std::string& path) {
  auto loaded = std::make_shared<const core::Dataset>(load_dataset(path));
  const Key key{loaded->benchmark_name(), loaded->device_name()};
  std::lock_guard lock(mutex_);
  return datasets_.insert_or_assign(key, std::move(loaded)).first->second;
}

}  // namespace bat::io
