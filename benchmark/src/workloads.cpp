#include "workloads.hpp"

#include <algorithm>

#include "common/statistics.hpp"

namespace batbench {

void complete_metrics(RunResult& result, const std::vector<MetricSpec>& specs) {
  std::vector<Metric> ordered;
  for (const auto& spec : specs) {
    const auto it = std::find_if(
        result.metrics.begin(), result.metrics.end(),
        [&](const Metric& m) { return m.name == spec.name; });
    ordered.push_back(it != result.metrics.end()
                          ? *it
                          : Metric{spec.name, 0.0, spec.unit});
  }
  result.metrics = std::move(ordered);
}

std::vector<double> measure_setup(const std::function<void()>& setup,
                                  const std::function<void()>& teardown) {
  return repeat_setup(11, 2.0, 500, setup, teardown);
}

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : bat::common::median(values);
}

const bat::common::Json* seed_golden(const RunConfig& config,
                                     const std::string& key) {
  if (config.goldens == nullptr) return nullptr;
  const auto* seeds = config.goldens->find("seeds");
  const auto* entry =
      seeds != nullptr ? seeds->find(std::to_string(config.seed)) : nullptr;
  return entry != nullptr ? entry->find(key) : nullptr;
}

void write_run_trace(const RunConfig& config, const LayerRecorder& setup,
                     const LayerRecorder& rounds) {
  if (config.trace_path.empty()) return;
  auto spans = setup.first_spans();
  spans.insert(spans.end(), rounds.first_spans().begin(),
               rounds.first_spans().end());
  write_chrome_trace(config.trace_path, spans, 50'000);
}

}  // namespace batbench
