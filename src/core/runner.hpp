// Parallel dataset builders reproducing the paper's experimental design
// (§V): exhaustive search for Pnpoly/Nbody/GEMM/Convolution, 10 000 random
// configurations for Hotspot/Dedisp/Expdist (kSweepSeed, kSweepSamples
// and kExhaustiveLimit below).
//
// Two shapes: the run_* builders materialize a Dataset value; the
// stream_* builders push rows through a RowSink in evaluation batches,
// never holding more than one batch of measurements in memory — the
// out-of-core path io::DatasetWriter plugs into (a sweep's footprint is
// then one evaluation batch + one writer chunk, plus, for an exhaustive
// sweep, the valid indices of one 2^16-index block of the product:
// independent of the space size).
//
// Ownership / thread-safety: stateless static builders. Runner owns the
// program's one evaluation fan-out: each batch splits over the global
// common::ThreadPool, every chunk evaluated by a serial LiveBackend.
// Called from inside a pool task (e.g. a service worker building a
// replay workload) the chunks run inline per the pool's nesting rule —
// correct, just serial. The RowSink is invoked sequentially, in
// deterministic row order, from the calling thread.
#pragma once

#include <functional>
#include <span>

#include "core/benchmark.hpp"
#include "core/dataset.hpp"

namespace bat::core {

/// The paper's §V sweep policy, defined once for every layer: a space of
/// at most kExhaustiveLimit configurations (full cardinality, the cheap
/// upper bound) is swept exhaustively; a larger one by kSweepSamples
/// distinct valid configurations drawn with kSweepSeed.
inline constexpr std::uint64_t kSweepSeed = 0xBA7BA7ULL;
inline constexpr std::size_t kSweepSamples = 10'000;
inline constexpr ConfigIndex kExhaustiveLimit = 100'000;

class Runner {
 public:
  /// Receives one evaluated row at a time, in deterministic order.
  using RowSink =
      std::function<void(ConfigIndex, const Config&, const Measurement&)>;

  /// Rows per evaluation batch for the stream_* builders: each batch
  /// fans out over the thread pool, then drains into the sink.
  static constexpr std::size_t kStreamBatchRows = 4096;

  /// Evaluates every constraint-valid configuration on `device`.
  [[nodiscard]] static Dataset run_exhaustive(const Benchmark& benchmark,
                                              DeviceIndex device);

  /// Evaluates `samples` distinct valid configurations drawn with `seed`.
  /// The same seed draws the same configurations on every device, like
  /// the paper's shared random sample per architecture sweep.
  [[nodiscard]] static Dataset run_sampled(const Benchmark& benchmark,
                                           DeviceIndex device,
                                           std::size_t samples,
                                           std::uint64_t seed);

  /// Paper §V policy: exhaustive when the space has at most
  /// kExhaustiveLimit configurations, otherwise `samples` random ones.
  [[nodiscard]] static Dataset run_default(const Benchmark& benchmark,
                                           DeviceIndex device,
                                           std::uint64_t seed = kSweepSeed,
                                           std::size_t samples = kSweepSamples);

  /// Streaming forms of the builders above: identical rows in identical
  /// order, but pushed through `sink` batch by batch with bounded
  /// memory. stream_exhaustive never materializes the valid-index list
  /// for streamed (non-enumerable) spaces — it walks the full product in
  /// fixed blocks, each split over the pool by
  /// CompiledSpace::enumerate_valid(lo, hi).
  /// All three return the number of rows emitted.
  static std::size_t stream_exhaustive(const Benchmark& benchmark,
                                       DeviceIndex device, const RowSink& sink,
                                       std::size_t batch_rows =
                                           kStreamBatchRows);
  static std::size_t stream_sampled(const Benchmark& benchmark,
                                    DeviceIndex device, std::size_t samples,
                                    std::uint64_t seed, const RowSink& sink,
                                    std::size_t batch_rows = kStreamBatchRows);
  static std::size_t stream_default(const Benchmark& benchmark,
                                    DeviceIndex device, const RowSink& sink,
                                    std::uint64_t seed = kSweepSeed,
                                    std::size_t samples = kSweepSamples,
                                    std::size_t batch_rows = kStreamBatchRows);

 private:
  [[nodiscard]] static Dataset evaluate_indices(
      const Benchmark& benchmark, DeviceIndex device,
      std::span<const ConfigIndex> indices);
  static std::size_t stream_batch(const Benchmark& benchmark,
                                  DeviceIndex device,
                                  std::span<const ConfigIndex> indices,
                                  const RowSink& sink);
};

}  // namespace bat::core
