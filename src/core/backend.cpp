#include "core/backend.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "core/compiled_space.hpp"
#include "core/dataset.hpp"

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
  std::vector<Measurement> results;
  results.reserve(indices.size());
  Config scratch;
  for (const ConfigIndex index : indices) {
    compiled.decode_into(index, scratch);
    results.push_back(benchmark_->evaluate(scratch, device_));
  }
  return results;
}

// ---------------------------------------------------------- ReplayBackend --

ReplayBackend::ReplayBackend(const SearchSpace& space, const Dataset& dataset)
    : space_(&space),
      name_("replay:" + dataset.benchmark_name() + "@" +
            dataset.device_name()) {
  // Rows come from outside the program (an archive, a registered
  // dataset), so on a materialized space each is probed against the
  // valid set: the first foreign row warns once, naming the dataset and
  // — when its parameter schema disagrees with the space, the common
  // cause — the stale parameter.
  const auto& compiled = space.compiled();
  bool warned = !compiled.has_valid_set();
  table_.reserve(dataset.size());
  for (std::size_t row = 0; row < dataset.size(); ++row) {
    const ConfigIndex index = dataset.config_index(row);
    if (!warned && !compiled.rank(index)) {
      warned = true;
      common::log_warn(
          name_, ": dataset",
          dataset.source().empty() ? "" : " '" + dataset.source() + "'",
          " row ", row, " (config index ", index,
          ") is outside this search space's valid set (is this dataset "
          "from a different space or constraint set?)",
          replay_schema_hint(space.params().param_names(),
                             dataset.param_names()));
    }
    // emplace keeps the first row of a duplicate index.
    table_.emplace(index,
                   Measurement{dataset.time_ms(row), dataset.status(row)});
  }
}

std::vector<Measurement> ReplayBackend::evaluate_batch(
    std::span<const ConfigIndex> indices) {
  std::vector<Measurement> results;
  results.reserve(indices.size());
  for (const ConfigIndex index : indices) {
    const auto it = table_.find(index);
    if (it == table_.end()) {
      throw std::out_of_range(name_ + ": config index " +
                              std::to_string(index) +
                              " is not covered by the dataset");
    }
    results.push_back(it->second);
  }
  return results;
}

}  // namespace bat::core
