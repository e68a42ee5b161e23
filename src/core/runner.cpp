#include "core/runner.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/backend.hpp"
#include "core/compiled_space.hpp"

namespace bat::core {

namespace {

/// The one evaluation fan-out: splits `indices` over ThreadPool::global()
/// and evaluates each chunk through a serial LiveBackend. Results align
/// with `indices` whatever the split, so rows stay deterministic. From
/// inside a pool task the chunks run inline (the pool's nesting rule).
std::vector<Measurement> evaluate_fanned_out(
    const Benchmark& benchmark, DeviceIndex device,
    std::span<const ConfigIndex> indices) {
  LiveBackend backend(benchmark, device);
  std::vector<Measurement> results(indices.size());
  common::parallel_for_chunked(
      0, indices.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
        const auto chunk = backend.evaluate_batch(indices.subspan(lo, hi - lo));
        std::copy(chunk.begin(), chunk.end(),
                  results.begin() + static_cast<std::ptrdiff_t>(lo));
      });
  return results;
}

}  // namespace

Dataset Runner::evaluate_indices(const Benchmark& benchmark,
                                 DeviceIndex device,
                                 std::span<const ConfigIndex> indices) {
  Dataset ds(benchmark.name(), benchmark.device_name(device),
             benchmark.space().params().param_names());
  ds.reserve(indices.size());
  stream_batch(benchmark, device, indices,
               [&ds](ConfigIndex index, const Config& config,
                     const Measurement& m) { ds.add(index, config, m); });
  return ds;
}

Dataset Runner::run_exhaustive(const Benchmark& benchmark,
                               DeviceIndex device) {
  const auto indices = benchmark.space().enumerate_constrained();
  return evaluate_indices(benchmark, device, indices);
}

Dataset Runner::run_sampled(const Benchmark& benchmark, DeviceIndex device,
                            std::size_t samples, std::uint64_t seed) {
  common::Rng rng(seed);
  const auto indices = benchmark.space().sample_constrained(samples, rng);
  return evaluate_indices(benchmark, device, indices);
}

Dataset Runner::run_default(const Benchmark& benchmark, DeviceIndex device,
                            std::uint64_t seed, std::size_t samples) {
  // The cheap upper bound (cardinality) decides first; only when the full
  // product is small do we pay for an exact constrained count.
  if (benchmark.space().cardinality() <= kExhaustiveLimit) {
    return run_exhaustive(benchmark, device);
  }
  return run_sampled(benchmark, device, samples, seed);
}

// ------------------------------------------------------- streaming sweeps --

std::size_t Runner::stream_batch(const Benchmark& benchmark,
                                 DeviceIndex device,
                                 std::span<const ConfigIndex> indices,
                                 const RowSink& sink) {
  // The evaluations fan out; draining into the sink is sequential so the
  // sink (a DatasetWriter, typically) needs no locks.
  const auto results = evaluate_fanned_out(benchmark, device, indices);
  const auto& compiled = benchmark.space().compiled();
  Config scratch;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    compiled.decode_into(indices[i], scratch);
    sink(indices[i], scratch, results[i]);
  }
  return indices.size();
}

std::size_t Runner::stream_exhaustive(const Benchmark& benchmark,
                                      DeviceIndex device, const RowSink& sink,
                                      std::size_t batch_rows) {
  batch_rows = std::max<std::size_t>(1, batch_rows);
  const auto& compiled = benchmark.space().compiled();
  // One walk over the product: the valid set of a materialized space, a
  // constraint filter over a streamed one. Memory stays at one batch
  // regardless of cardinality — this is the out-of-core sweep path.
  std::size_t emitted = 0;
  std::vector<ConfigIndex> batch;
  batch.reserve(batch_rows);
  compiled.for_each_valid(0, compiled.cardinality(), [&](ConfigIndex index) {
    batch.push_back(index);
    if (batch.size() == batch_rows) {
      emitted += stream_batch(benchmark, device, batch, sink);
      batch.clear();
    }
  });
  if (!batch.empty()) emitted += stream_batch(benchmark, device, batch, sink);
  return emitted;
}

std::size_t Runner::stream_sampled(const Benchmark& benchmark,
                                   DeviceIndex device, std::size_t samples,
                                   std::uint64_t seed, const RowSink& sink,
                                   std::size_t batch_rows) {
  batch_rows = std::max<std::size_t>(1, batch_rows);
  common::Rng rng(seed);
  // Identical draw to run_sampled: same seed, same rows, same order.
  const auto indices = benchmark.space().sample_constrained(samples, rng);
  const std::span<const ConfigIndex> all(indices);
  std::size_t emitted = 0;
  for (std::size_t lo = 0; lo < all.size(); lo += batch_rows) {
    const std::size_t rows = std::min(batch_rows, all.size() - lo);
    emitted += stream_batch(benchmark, device, all.subspan(lo, rows), sink);
  }
  return emitted;
}

std::size_t Runner::stream_default(const Benchmark& benchmark,
                                   DeviceIndex device, const RowSink& sink,
                                   std::uint64_t seed, std::size_t samples,
                                   std::size_t batch_rows) {
  if (benchmark.space().cardinality() <= kExhaustiveLimit) {
    return stream_exhaustive(benchmark, device, sink, batch_rows);
  }
  return stream_sampled(benchmark, device, samples, seed, sink, batch_rows);
}

}  // namespace bat::core
