// analysis: the paper-reproduction path. Table VIII / Fig. 6 feature
// importance (GBDT at table8's 180 trees + PFI) on pnpoly, convolution
// and dedisp, Fig. 3 fitness-flow graphs and proportion of centrality
// on gemm, convolution and pnpoly, then Fig. 4 speedup and Fig. 5
// portability on the same datasets. Chosen because `ml` does nearly
// all of the work while tuners, service and net sit idle.
//
// A round is the analysis of one device; rounds cycle through the four
// devices, so a run of four or more rounds covers every
// (kernel, device) pair the paper reports.
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "analysis/centrality.hpp"
#include "analysis/ffg.hpp"
#include "analysis/importance.hpp"
#include "analysis/portability.hpp"
#include "analysis/speedup.hpp"
#include "common/statistics.hpp"
#include "io/dataset_repository.hpp"
#include "kernels/all_kernels.hpp"
#include "ml/gbdt.hpp"
#include "ml/matrix.hpp"
#include "ml/pfi.hpp"
#include "workloads.hpp"

namespace batbench {

using bat::common::Json;
using bat::common::JsonObject;

namespace {

const std::vector<std::string> kImportanceKernels{"pnpoly", "convolution",
                                                  "dedisp"};
const std::vector<std::string> kGraphKernels{"gemm", "convolution", "pnpoly"};
const std::vector<double> kProportions{0.0,  0.01, 0.02, 0.05,
                                       0.10, 0.20, 0.50, 1.00};
constexpr std::size_t kTrees = 180;
constexpr std::size_t kDevices = 4;
constexpr double kImportanceThreshold = 0.05;
constexpr double kR2Tolerance = 0.005;

/// Lower R^2 bounds, checked on every seed. pnpoly and convolution meet
/// the paper's bands (>= 0.992; convolution's starts at 0.9268). dedisp
/// does not: our fit on its 10k sampled rows reaches 0.62-0.94
/// depending on the split seed (60 fits measured), so its floor only
/// asserts the model explains most of the variance.
const std::map<std::string, double> kR2Floor{
    {"pnpoly", 0.992}, {"convolution", 0.9268}, {"dedisp", 0.5}};

struct State {
  std::map<std::string, std::unique_ptr<bat::core::Benchmark>> benchmarks;
  /// kernel -> one dataset per device.
  std::map<std::string, std::vector<std::shared_ptr<const bat::core::Dataset>>>
      datasets;
  /// kernel -> per-device copies, the shape portability_matrix takes.
  std::map<std::string, std::vector<bat::core::Dataset>> portability_input;
};

State set_up() {
  State state;
  bat::io::DatasetRepository repo;  // memory-only
  std::set<std::string> kernels(kImportanceKernels.begin(),
                                kImportanceKernels.end());
  kernels.insert(kGraphKernels.begin(), kGraphKernels.end());
  for (const auto& kernel : kernels) {
    auto bench = bat::kernels::make(kernel);
    for (std::size_t d = 0; d < kDevices; ++d) {
      Span span("io.dataset_get");
      state.datasets[kernel].push_back(repo.get(*bench, d));
    }
    state.benchmarks[kernel] = std::move(bench);
  }
  for (const auto& kernel : kGraphKernels) {
    for (const auto& ds : state.datasets[kernel]) {
      state.portability_input[kernel].push_back(*ds);
    }
  }
  return state;
}

bat::analysis::ImportanceOptions importance_options(std::uint64_t seed) {
  bat::analysis::ImportanceOptions options;
  options.gbdt.num_trees = kTrees;
  options.seed = mix_seed(seed, 1);
  options.gbdt.seed = mix_seed(seed, 2);
  options.pfi.seed = mix_seed(seed, 3);
  return options;
}

/// feature_importance() rebuilt from its public steps so each step can
/// carry its own span. The report must be bit-equal to the untraced
/// call's; the run checks it.
bat::analysis::ImportanceReport traced_importance(
    const bat::core::Dataset& ds,
    const bat::analysis::ImportanceOptions& options) {
  bat::analysis::ImportanceReport report;
  report.benchmark = ds.benchmark_name();
  report.device = ds.device_name();
  report.parameter_names = ds.param_names();
  bat::ml::TrainTestSplit split;
  {
    Span span("ml.prepare");
    const auto x = bat::ml::Matrix::from_rows(ds.feature_matrix());
    const auto y = ds.target_vector();
    split = bat::ml::train_test_split(x, y, options.test_fraction,
                                      options.seed);
  }
  bat::ml::GbdtRegressor model(options.gbdt);
  {
    Span span("ml.gbdt_fit");
    model.fit(split.x_train, split.y_train);
  }
  {
    Span span("ml.predict");
    const auto predictions = model.predict_all(split.x_test);
    report.r2 = bat::ml::r2_score(split.y_test, predictions);
  }
  {
    Span span("ml.pfi");
    const auto pfi = bat::ml::permutation_importance(
        model, split.x_test, split.y_test, options.pfi);
    report.importance = pfi.importance;
    report.importance_sum = pfi.total();
  }
  return report;
}

struct Graph {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t minima = 0;
  std::vector<double> centrality;
};

struct RoundOutput {
  std::vector<bat::analysis::ImportanceReport> reports;  // kImportanceKernels
  std::vector<double> report_seconds;
  std::vector<Graph> graphs;  // kGraphKernels
  std::vector<double> speedups;
  std::vector<bat::analysis::PortabilityMatrix> portability;
};

/// One device's analysis. `traced` swaps feature_importance() for its
/// spanned public steps; everything else is identical.
RoundOutput run_round(const State& state, std::size_t device,
                      const bat::analysis::ImportanceOptions& options,
                      bool traced) {
  RoundOutput out;
  for (const auto& kernel : kImportanceKernels) {
    const auto& ds = *state.datasets.at(kernel)[device];
    const auto start = now_ns();
    out.reports.push_back(traced ? traced_importance(ds, options)
                                 : bat::analysis::feature_importance(ds, options));
    out.report_seconds.push_back(seconds_since(start));
  }
  for (const auto& kernel : kGraphKernels) {
    const auto& space = state.benchmarks.at(kernel)->space();
    const auto& ds = *state.datasets.at(kernel)[device];
    std::unique_ptr<bat::analysis::FitnessFlowGraph> graph;
    {
      Span span("analysis.ffg_build");
      graph = std::make_unique<bat::analysis::FitnessFlowGraph>(space, ds);
    }
    Span span("analysis.centrality");
    const auto curve =
        bat::analysis::proportion_of_centrality(*graph, kProportions);
    out.graphs.push_back(Graph{graph->num_nodes(), graph->graph().num_edges(),
                               curve.num_minima, curve.centrality});
  }
  Span span("analysis.other");
  for (const auto& [kernel, per_device] : state.datasets) {
    out.speedups.push_back(
        bat::analysis::max_speedup_over_median(*per_device[device]).speedup);
  }
  for (const auto& kernel : kGraphKernels) {
    out.portability.push_back(bat::analysis::portability_matrix(
        *state.benchmarks.at(kernel), state.portability_input.at(kernel)));
  }
  return out;
}

bool same_reports(const RoundOutput& a, const RoundOutput& b) {
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    if (a.reports[i].r2 != b.reports[i].r2 ||
        a.reports[i].importance != b.reports[i].importance ||
        a.reports[i].importance_sum != b.reports[i].importance_sum) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> important_names(
    const bat::analysis::ImportanceReport& report) {
  std::vector<std::string> names;
  for (const auto p : report.important_params(kImportanceThreshold)) {
    names.push_back(report.parameter_names[p]);
  }
  return names;
}

/// Checks one device's outputs and records them as observed values.
void check_round(const RunConfig& config, const State& state,
                 std::size_t device, const RoundOutput& out,
                 RunResult& result, JsonObject& observed_fi,
                 JsonObject& observed_ffg) {
  const Json* golden_fi = seed_golden(config, "analysis");
  const Json* golden_ffg =
      config.goldens != nullptr ? config.goldens->find("ffg") : nullptr;
  for (std::size_t i = 0; i < kImportanceKernels.size(); ++i) {
    const auto& report = out.reports[i];
    const std::string key = report.benchmark + "/" + report.device;
    const auto names = important_names(report);
    JsonObject entry;
    entry.emplace("r2", report.r2);
    entry.emplace("important", Json::array(names));
    observed_fi[key] = Json(std::move(entry));
    const Json* golden =
        golden_fi != nullptr ? golden_fi->find(key) : nullptr;
    if (golden != nullptr) {
      result.check(std::abs(report.r2 - golden->at("r2").as_double()) <=
                       kR2Tolerance,
                   key + " R^2 " + std::to_string(report.r2) +
                       " within 0.005 of golden");
      std::vector<std::string> golden_names;
      for (const auto& n : golden->at("important").as_array()) {
        golden_names.push_back(n.as_string());
      }
      result.check(names == golden_names,
                   key + " important-parameter set matches golden");
    }
    result.check(report.r2 >= kR2Floor.at(report.benchmark),
                 key + " R^2 " + std::to_string(report.r2) + " >= floor");
  }
  for (std::size_t i = 0; i < kGraphKernels.size(); ++i) {
    const auto& g = out.graphs[i];
    const std::string key =
        kGraphKernels[i] + "/" +
        state.benchmarks.at(kGraphKernels[i])->device_name(device);
    observed_ffg[key] = Json(bat::common::JsonArray{
        Json(static_cast<std::uint64_t>(g.nodes)),
        Json(static_cast<std::uint64_t>(g.edges)),
        Json(static_cast<std::uint64_t>(g.minima))});
    const Json* golden = golden_ffg != nullptr ? golden_ffg->find(key) : nullptr;
    if (golden != nullptr) {
      const auto& counts = golden->as_array();
      result.check(counts.at(0).as_uint() == g.nodes &&
                       counts.at(1).as_uint() == g.edges &&
                       counts.at(2).as_uint() == g.minima,
                   key + " FFG node/edge/minima counts match golden");
    }
    bool monotone = g.centrality.size() == kProportions.size();
    for (std::size_t p = 0; monotone && p < g.centrality.size(); ++p) {
      monotone = g.centrality[p] >= 0.0 && g.centrality[p] <= 1.0 &&
                 (p == 0 || g.centrality[p] >= g.centrality[p - 1]);
    }
    result.check(monotone, key + " centrality curve in [0,1], non-decreasing");
  }
  bool speedups_ok = true;
  for (const double s : out.speedups) speedups_ok = speedups_ok && s >= 1.0;
  result.check(speedups_ok, "speedup over median >= 1 on device " +
                                std::to_string(device));
  bool diagonal_ok = true;
  for (const auto& m : out.portability) {
    for (std::size_t d = 0; d < m.relative.size(); ++d) {
      diagonal_ok = diagonal_ok && m.relative[d][d] == 1.0;
    }
  }
  result.check(diagonal_ok, "portability diagonal is 1");
}

}  // namespace

RunResult run_analysis(const RunConfig& config) {
  RunResult result;
  const auto options = importance_options(config.seed);
  LayerRecorder setup_spans;
  State state;
  Tracer::set_enabled(config.trace);
  const auto setup_seconds = measure_setup([&] {
    state = set_up();
    setup_spans.take();
  });

  std::vector<double> round_seconds;
  std::vector<double> traced_seconds;
  // Per round, the mean latency of one feature-importance report (the
  // median of single reports would sit between two kernels' costs) and
  // the tail, which for three reports is the slowest one.
  std::vector<double> report_ms;
  std::vector<double> tail_ms;
  LayerRecorder traced;
  std::map<std::size_t, RoundOutput> first_by_device;
  const auto start = now_ns();
  for (std::size_t round = 0;
       round == 0 || seconds_since(start) < config.seconds; ++round) {
    const std::size_t device = round % kDevices;
    Tracer::set_enabled(false);
    auto t0 = now_ns();
    const auto out = run_round(state, device, options, false);
    round_seconds.push_back(seconds_since(t0));
    report_ms.push_back(bat::common::mean(out.report_seconds) * 1e3);
    tail_ms.push_back(slowest_tenth_mean(out.report_seconds) * 1e3);
    result.attempted += out.reports.size() + out.graphs.size();
    const auto [it, fresh] = first_by_device.emplace(device, out);
    if (!fresh) {
      result.check(same_reports(it->second, out),
                   "repeated round on device " + std::to_string(device) +
                       " reproduces its reports");
    }
    if (config.trace) {
      Tracer::set_enabled(true);
      t0 = now_ns();
      RoundOutput spanned;
      {
        Span span("bench.round");
        spanned = run_round(state, device, options, true);
      }
      traced_seconds.push_back(seconds_since(t0));
      traced.take();
      result.check(same_reports(out, spanned),
                   "traced reports bit-equal to feature_importance() on "
                   "device " + std::to_string(device));
    }
  }

  JsonObject observed_fi;
  JsonObject observed_ffg;
  for (const auto& [device, out] : first_by_device) {
    check_round(config, state, device, out, result, observed_fi, observed_ffg);
  }
  result.observed.emplace("analysis", Json(std::move(observed_fi)));
  result.observed.emplace("ffg", Json(std::move(observed_ffg)));

  if (!config.trace) {
    result.metric("setup_s", median_or_zero(setup_seconds), "s");
    result.metric("wall_s", median_or_zero(round_seconds), "s");
    result.metric("p50_ms", median_or_zero(report_ms), "ms");
    result.metric("tail_ms", median_or_zero(tail_ms), "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    complete_metrics(result, kEndToEnd);
    return result;
  }
  const double traced_wall = median_or_zero(traced_seconds);
  result.metric("trace_overhead_ratio",
                traced_wall / median_or_zero(round_seconds), "ratio");
  result.metric("trace.coverage", traced.median_of([](const NameMap& m) {
    const auto& root = m.at("bench.round");
    return 1.0 - root.self_s / root.total_s;
  }), "ratio");
  result.metric("io.dataset_get_s", setup_spans.total_s("io.dataset_get"), "s");
  for (const char* name :
       {"ml.gbdt_fit", "ml.predict", "ml.pfi", "ml.prepare",
        "analysis.ffg_build", "analysis.centrality", "analysis.other"}) {
    result.metric(std::string(name) + "_s", traced.self_s(name), "s");
  }
  result.metric("ml.gbdt_fits", traced.count("ml.gbdt_fit"), "count");
  result.metric("ml.gbdt_fit_share", traced.median_of([](const NameMap& m) {
    return m.at("ml.gbdt_fit").self_s / m.at("bench.round").total_s;
  }), "ratio");
  write_run_trace(config, setup_spans, traced);
  complete_metrics(result, kPerLayer);
  return result;
}

}  // namespace batbench
