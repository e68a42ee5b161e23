// The four workloads of the BAT benchmark. Each runs in its own
// process: set-up (repeated, median reported), a timed phase of
// repeated identical rounds lasting about RunConfig::seconds, and the
// output checks. Untraced runs report the end-to-end metrics; traced
// runs (RunConfig::trace) report the per-layer ones. The metric names
// are listed in kEndToEnd / kPerLayer and every run reports all of its
// list, with 0 for layers a workload never enters.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace batbench {

[[nodiscard]] RunResult run_analysis(const RunConfig& config);
[[nodiscard]] RunResult run_grid(const RunConfig& config);
[[nodiscard]] RunResult run_surrogate(const RunConfig& config);
[[nodiscard]] RunResult run_http(const RunConfig& config);

/// Repeats a workload's set-up for at least 2 s and at least 11 times
/// (at most 500); setup_s is the median. Single set-ups take 5-60 ms,
/// too short for a steady median of a few.
[[nodiscard]] std::vector<double> measure_setup(
    const std::function<void()>& setup,
    const std::function<void()>& teardown = {});

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run.
inline const std::vector<MetricSpec> kEndToEnd{
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"p50_ms", "ms"},
    {"tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, reported by every traced run.
inline const std::vector<MetricSpec> kPerLayer{
    {"trace_overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"io.dataset_get_s", "s"},
    {"ml.gbdt_fit_s", "s"},
    {"ml.gbdt_fits", "count"},
    {"ml.gbdt_fit_share", "ratio"},
    {"ml.predict_s", "s"},
    {"ml.pfi_s", "s"},
    {"ml.prepare_s", "s"},
    {"analysis.ffg_build_s", "s"},
    {"analysis.centrality_s", "s"},
    {"analysis.other_s", "s"},
    {"core.workload_build_s", "s"},
    {"gpusim.evaluate_s", "s"},
    {"gpusim.evaluations", "count"},
    {"core.replay_s", "s"},
    {"core.replay_lookups", "count"},
    {"service.cache_claim_s", "s"},
    {"service.cache_wait_s", "s"},
    {"service.cache_lookups", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.worker_utilization", "ratio"},
    {"tuners.self_s", "s"},
    {"api.get_session_us", "us"},
    {"api.run_session_us", "us"},
    {"api.stats_us", "us"},
    {"api.metrics_us", "us"},
    {"service.result_to_json_us", "us"},
    {"net.parse_request_us", "us"},
    {"net.transport_us", "us"},
    {"http.capacity_rps", "1/s"},
    {"http.p50_ms.low", "ms"},
    {"http.p99_ms.low", "ms"},
    {"http.p50_ms.high", "ms"},
    {"http.p99_ms.high", "ms"},
    {"http.late_ms.low", "ms"},
    {"http.late_ms.high", "ms"},
    {"http.limit_rps", "1/s"},
    {"http.status_5xx", "count"},
    {"http.status_429", "count"},
};

/// Fills every name of `specs` that `result` has not reported with 0,
/// then orders the metrics like `specs`.
void complete_metrics(RunResult& result, const std::vector<MetricSpec>& specs);

/// Median of a non-empty sample; 0 for an empty one.
[[nodiscard]] double median_or_zero(const std::vector<double>& values);

/// goldens["seeds"][<seed>][key], or null when not recorded.
[[nodiscard]] const bat::common::Json* seed_golden(const RunConfig& config,
                                                   const std::string& key);

/// Writes the Chrome trace of a traced run: the set-up spans followed
/// by the first traced round.
void write_run_trace(const RunConfig& config, const LayerRecorder& setup,
                     const LayerRecorder& rounds);

}  // namespace batbench
