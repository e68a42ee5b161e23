#include "core/backend.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace bat::core {

std::string replay_schema_hint(const std::vector<std::string>& space_params,
                               const std::vector<std::string>& dataset_params) {
  if (space_params == dataset_params) return "";
  if (dataset_params.empty()) return "";  // schema unknown: no verdict
  std::string hint =
      "; the dataset's parameter schema is stale for this space (";
  if (space_params.size() != dataset_params.size()) {
    hint += "it has " + std::to_string(dataset_params.size()) +
            " parameters, the space has " +
            std::to_string(space_params.size());
  } else {
    for (std::size_t p = 0; p < space_params.size(); ++p) {
      if (space_params[p] == dataset_params[p]) continue;
      hint += "parameter " + std::to_string(p) + " is '" + dataset_params[p] +
              "' in the dataset but '" + space_params[p] +
              "' in the space - a param-name order mismatch makes every "
              "stored config index decode differently";
      break;
    }
  }
  hint += ")";
  return hint;
}

Measurement EvaluationBackend::evaluate(ConfigIndex index) {
  const ConfigIndex indices[1] = {index};
  return evaluate_batch(indices).front();
}

// ------------------------------------------------------------ LiveBackend --

LiveBackend::LiveBackend(const Benchmark& benchmark, DeviceIndex device)
    : benchmark_(&benchmark),
      device_(device),
      name_("live:" + benchmark.name() + "@" + benchmark.device_name(device)) {}

std::vector<Measurement> LiveBackend::evaluate_batch(
    std::span<const ConfigIndex> indices) {
  // Decoding goes through the compiled value tables: the same mixed-radix
  // arithmetic as ParamSpace but without touching Parameter objects.
  const auto& compiled = benchmark_->space().compiled();
  std::vector<Measurement> results(indices.size());
  if (indices.size() < kParallelThreshold) {
    Config scratch;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      compiled.decode_into(indices[i], scratch);
      results[i] = benchmark_->evaluate(scratch, device_);
    }
    return results;
  }
  common::parallel_for_chunked(
      0, indices.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
        Config scratch;
        for (std::size_t i = lo; i < hi; ++i) {
          compiled.decode_into(indices[i], scratch);
          results[i] = benchmark_->evaluate(scratch, device_);
        }
      });
  return results;
}

// ---------------------------------------------------------- ReplayBackend --

void ReplayBackend::warn_outside_valid_set(
    const std::string& source, std::size_t row, ConfigIndex index,
    const std::vector<std::string>& dataset_params) const {
  // When the dataset's parameter schema disagrees with the space, say so
  // explicitly — a stale (reordered/renamed) schema is the common cause
  // of ordinal misses and looks exactly like a foreign path otherwise.
  common::log_warn(
      name_, ": dataset", source.empty() ? "" : " '" + source + "'", " row ",
      row, " (config index ", index,
      ") is outside this search space's valid set - falling back "
      "from O(1) valid-ordinal lookup to hashed lookup (is this "
      "dataset from a different space or constraint set?)",
      replay_schema_hint(space_->params().param_names(), dataset_params));
}

bool ReplayBackend::contains(ConfigIndex index) const noexcept {
  if (ordinal_mode_) {
    const auto ordinal = compiled_->rank(index);
    return ordinal && covered_[static_cast<std::size_t>(*ordinal)] != 0;
  }
  return table_.find(index) != table_.end();
}

std::vector<Measurement> ReplayBackend::evaluate_batch(
    std::span<const ConfigIndex> indices) {
  std::vector<Measurement> results;
  results.reserve(indices.size());
  for (const ConfigIndex index : indices) {
    if (ordinal_mode_) {
      const auto ordinal = compiled_->rank(index);
      if (ordinal && covered_[static_cast<std::size_t>(*ordinal)] != 0) {
        results.push_back(by_ordinal_[static_cast<std::size_t>(*ordinal)]);
        continue;
      }
    } else {
      const auto it = table_.find(index);
      if (it != table_.end()) {
        results.push_back(it->second);
        continue;
      }
    }
    throw std::out_of_range(name_ + ": config index " +
                            std::to_string(index) +
                            " is not covered by the dataset");
  }
  return results;
}

}  // namespace bat::core
