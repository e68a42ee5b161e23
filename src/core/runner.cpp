#include "core/runner.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "core/backend.hpp"
#include "core/compiled_space.hpp"

namespace bat::core {

Dataset Runner::evaluate_indices(const Benchmark& benchmark,
                                 DeviceIndex device,
                                 const std::vector<ConfigIndex>& indices) {
  const auto& space = benchmark.space().params();
  Dataset ds(benchmark.name(), benchmark.device_name(device),
             space.param_names());
  ds.reserve(indices.size());

  // One backend batch: LiveBackend fans the evaluations out over the
  // thread pool and returns results aligned with `indices`, so the
  // dataset layout stays deterministic.
  LiveBackend backend(benchmark, device);
  const auto results = backend.evaluate_batch(indices);

  Config scratch;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    space.decode_into(indices[i], scratch);
    ds.add(indices[i], scratch, results[i]);
  }
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
                                 const std::vector<ConfigIndex>& indices,
                                 const RowSink& sink) {
  // One backend batch fans out over the pool; draining into the sink is
  // sequential so the sink (a DatasetWriter, typically) needs no locks.
  LiveBackend backend(benchmark, device);
  const auto results = backend.evaluate_batch(indices);
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
  std::size_t emitted = 0;
  std::vector<ConfigIndex> batch;
  batch.reserve(batch_rows);
  if (compiled.has_valid_set()) {
    // Materialized spaces: walk the compiled valid-index array in
    // slices; no per-sweep index copy at all.
    const auto& valid = compiled.valid_indices();
    for (std::size_t lo = 0; lo < valid.size(); lo += batch_rows) {
      const std::size_t hi = std::min(valid.size(), lo + batch_rows);
      batch.assign(valid.begin() + static_cast<std::ptrdiff_t>(lo),
                   valid.begin() + static_cast<std::ptrdiff_t>(hi));
      emitted += stream_batch(benchmark, device, batch, sink);
    }
    return emitted;
  }
  // Streamed spaces: filter the full product through the constraint
  // plan block by block. Memory stays at one batch regardless of
  // cardinality — this is the out-of-core sweep path.
  for (ConfigIndex index = 0; index < compiled.cardinality(); ++index) {
    if (!compiled.is_valid_index(index)) continue;
    batch.push_back(index);
    if (batch.size() == batch_rows) {
      emitted += stream_batch(benchmark, device, batch, sink);
      batch.clear();
    }
  }
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
  std::size_t emitted = 0;
  std::vector<ConfigIndex> batch;
  for (std::size_t lo = 0; lo < indices.size(); lo += batch_rows) {
    const std::size_t hi = std::min(indices.size(), lo + batch_rows);
    batch.assign(indices.begin() + static_cast<std::ptrdiff_t>(lo),
                 indices.begin() + static_cast<std::ptrdiff_t>(hi));
    emitted += stream_batch(benchmark, device, batch, sink);
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
