// The shared problem interface of BAT (paper §I, §IV).
//
// A Benchmark bundles a tunable kernel: its search space (parameters +
// constraints, Tables I-VII) and an evaluation function producing a
// Measurement per (configuration, device). Devices are exposed as an
// ordered list of names so the analysis layer can iterate architectures
// without depending on the simulator types.
//
// Ownership / thread-safety: kernels::make returns a uniquely-owned
// Benchmark; implementations are immutable after construction and
// evaluate() is const and deterministic, so one instance may serve
// concurrent callers (core::Runner's sweeps split a batch over the
// thread pool, and service::TuningService shares one Benchmark per
// workload across sessions). space() returns a reference the Benchmark
// owns — keep the Benchmark alive as long as anything holds its space
// or a backend over it.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/measurement.hpp"
#include "core/search_space.hpp"
#include "core/types.hpp"

namespace bat::core {

using DeviceIndex = std::size_t;

class Benchmark {
 public:
  virtual ~Benchmark() = default;

  /// Short identifier ("gemm", "hotspot", ...).
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Parameters + static constraints.
  [[nodiscard]] virtual const SearchSpace& space() const = 0;

  /// Devices this benchmark can run on (the paper's four GPUs).
  [[nodiscard]] virtual std::size_t device_count() const = 0;
  [[nodiscard]] virtual const std::string& device_name(DeviceIndex d) const = 0;

  /// Evaluates one configuration on one device. Must be deterministic:
  /// identical (config, device) always yields the identical Measurement.
  [[nodiscard]] virtual Measurement evaluate(const Config& config,
                                             DeviceIndex device) const = 0;

  /// Index of a device by name; throws std::out_of_range if unknown.
  [[nodiscard]] DeviceIndex device_index(const std::string& name) const;
};

/// Registry mapping benchmark names to factories; the kernels module
/// registers all seven paper benchmarks at static-init time via
/// RegisterBenchmark, and harnesses look them up by name.
class BenchmarkRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Benchmark>()>;

  static BenchmarkRegistry& instance();

  void register_factory(const std::string& name, Factory factory);
  [[nodiscard]] std::unique_ptr<Benchmark> create(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] bool contains(const std::string& name) const;

 private:
  std::map<std::string, Factory> factories_;
};

struct RegisterBenchmark {
  RegisterBenchmark(const std::string& name, BenchmarkRegistry::Factory f) {
    BenchmarkRegistry::instance().register_factory(name, std::move(f));
  }
};

}  // namespace bat::core
