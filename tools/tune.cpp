// tune: the unified command-line driver over the tuning-service layer.
//
// One binary reproduces every figure/table scenario from config flags
// instead of hand-edited bench mains (docs/reproducing-the-paper.md maps
// each paper artifact to an invocation):
//
//   tune run    --kernel gemm --tuner local --budget 150 --seed 42
//               [--device 0|RTX_3090] [--backend live|replay]
//               [--dataset path.csv]
//       One session; prints the trace summary and best configuration.
//
//   tune grid   --kernels gemm,hotspot --tuners local,annealing,ils
//               --sessions 16 [--budget 150] [--seed 1000] [--device 0]
//               [--backend live|replay] [--workers N] [--dataset-dir DIR]
//       Round-robins the kernel x tuner combinations into --sessions
//       concurrent sessions (seeds increment per session) through one
//       TuningService; reports per-session results.
//
//   tune replay --kernel pnpoly --tuner genetic --dataset ds.csv
//               [--budget 150] [--seed 42] [--repeats 5]
//       Tabular-benchmark mode over an archived dataset (export one
//       with examples/export_datasets or register a sweep via grid).
//
//   tune spaces [--kernels gemm,hotspot,...]
//       Search-space statistics per kernel (Table VIII's shape).
//
//   tune sweep  --kernel hotspot [--device 0] [--out path.bin]
//               [--samples N] [--seed S] [--exhaustive] [--chunk N]
//               [--batch N]
//       Streams a Runner sweep straight into a binary columnar archive
//       with bounded memory (one writer chunk of --chunk rows plus one
//       evaluation batch of --batch rows) — the out-of-core path for
//       spaces larger than RAM. Default policy is the paper's §V
//       (exhaustive for small spaces, --samples random configs
//       otherwise); --exhaustive forces a full sweep.
//
//   tune convert --in ds.csv --out ds.bin [--chunk N] [--verify]
//       Converts between CSV and binary (direction from the output
//       extension; input format sniffed). --verify reloads the output
//       and compares every row.
//
//   tune info   --dataset path [--verify]
//       Archive metadata: format, benchmark/device/params, rows, valid
//       rows, best time, chunk geometry; --verify checks the CRC.
//
//   tune serve  [--port 8080] [--host 127.0.0.1] [--http-workers 8]
//               [--event-loops 2] [--max-connections N] [--max-body BYTES]
//               [--admission-capacity N] [--retry-after SECS]
//               [--workers N] [--dataset-dir DIR]
//               [--journal-dir DIR [--journal-retain N]
//                [--journal-checkpoint-bytes BYTES]]
//               [--log-level debug|info|warn|error|off]
//       Runs the HTTP/1.1 JSON API (docs/http-api.md) over one
//       TuningService until SIGINT/SIGTERM. --port 0 picks an
//       ephemeral port; the chosen one is printed on the "listening"
//       line (and parsed by tools/ci.sh). Overload answers 503 +
//       Retry-After (docs/http-api.md#overload-semantics).
//       --journal-dir makes the session registry durable
//       (docs/durability.md): every POSTed session id and result is
//       write-ahead journaled, and a restart on the same directory
//       restores completed results and re-runs unfinished sessions
//       under their original ids — kill -9 loses nothing that was
//       acknowledged.
//
//   tune remote <run|submit|get|stats|spaces|health|top|trace>
//               --server host:port
//       Client for a running `tune serve`:
//         run    same spec flags as `tune run`; synchronous via
//                POST /v1/sessions:run, or --async to submit and poll
//                the job id ([--poll-ms 100]).
//         submit same spec flags; POST /v1/sessions, print the bare
//                session id and return — the script-friendly half of
//                --async (re-attach later with `get --id N`).
//         get    --id N: one job from the registry.
//         stats  session/HTTP/journal counters.
//         spaces search-space statistics from the server.
//         health GET /v1/healthz: build id, uptime, ready|draining.
//         top    one-shot operational summary assembled from
//                /v1/healthz + /v1/stats.
//         trace  --id N: span timeline of a tracked session
//                (GET /v1/sessions/<id>/trace).
//       --server names one IPv4 literal host and port.
#include <charconv>
#include <csignal>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api_server.hpp"
#include "common/json.hpp"
#include "common/statistics.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/compiled_space.hpp"
#include "core/dataset.hpp"
#include "core/runner.hpp"
#include "io/dataset_file.hpp"
#include "io/dataset_view.hpp"
#include "io/dataset_writer.hpp"
#include "kernels/all_kernels.hpp"
#include "common/log.hpp"
#include "net/http_client.hpp"
#include "obs/metrics.hpp"
#include "service/session_json.hpp"
#include "service/tuning_service.hpp"

namespace {

using namespace bat;

// ------------------------------------------------------------ flag parsing --

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    // Strict parse: stoul alone would wrap negatives to huge values and
    // silently ignore trailing junk ("10abc" -> 10).
    const std::string& value = it->second;
    std::size_t consumed = 0;
    unsigned long long parsed = 0;
    try {
      parsed = std::stoull(value, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (value.empty() || value[0] == '-' || consumed != value.size()) {
      throw std::invalid_argument("--" + key +
                                  " expects a non-negative integer, got '" +
                                  value + "'");
    }
    return static_cast<std::size_t>(parsed);
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& value = it->second;
    std::size_t consumed = 0;
    double parsed = 0.0;
    try {
      parsed = std::stod(value, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (value.empty() || consumed != value.size() || parsed < 0.0) {
      throw std::invalid_argument("--" + key +
                                  " expects a non-negative number, got '" +
                                  value + "'");
    }
    return parsed;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return flags.find(key) != flags.end();
  }

  /// Rejects flags outside `known`: a typo (--budjet) must not silently
  /// run a different experiment than the user asked for.
  void require_known(std::initializer_list<const char*> known) const {
    for (const auto& [key, value] : flags) {
      bool ok = false;
      for (const char* k : known) ok = ok || key == k;
      if (!ok) {
        throw std::invalid_argument("unknown flag --" + key);
      }
    }
  }
};

Args parse_args(int argc, char** argv, int first) {
  // Flags are --key value; --key alone is a boolean switch ("1").
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (common::starts_with(arg, "--")) {
      const std::string key = arg.substr(2);
      if (i + 1 < argc && !common::starts_with(argv[i + 1], "--")) {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "1";
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

core::DeviceIndex resolve_device(const core::Benchmark& bench,
                                 const std::string& device) {
  core::DeviceIndex index;
  if (!device.empty() && device.find_first_not_of("0123456789") ==
                             std::string::npos) {
    index = std::stoul(device);
  } else {
    index = bench.device_index(device);  // throws on unknown name
  }
  if (index >= bench.device_count()) {
    throw std::out_of_range(
        bench.name() + ": device index " + device + " out of range (" +
        std::to_string(bench.device_count()) + " devices)");
  }
  return index;
}

std::string best_cell(const service::SessionResult& r) {
  if (!r.run.best) return "-";
  return common::format_double(r.run.best->objective, 3) + "ms";
}

// ------------------------------------------------------------- subcommands --

int cmd_run(const Args& args) {
  args.require_known({"kernel", "tuner", "device", "budget", "seed",
                      "backend", "dataset"});
  // With --dataset the kernel defaults to the dataset's own benchmark
  // (mirroring cmd_replay) so the archive is registered against the
  // space it was swept from.
  std::optional<core::Dataset> dataset;
  if (args.has("dataset")) {
    if (args.has("backend") && args.get("backend", "") != "replay") {
      throw std::invalid_argument(
          "--dataset implies --backend replay; drop --backend " +
          args.get("backend", "") + " or pass replay");
    }
    dataset = io::load_dataset(args.get("dataset", ""));
  }

  service::SessionSpec spec;
  spec.kernel =
      args.get("kernel", dataset ? dataset->benchmark_name() : "gemm");
  spec.tuner = args.get("tuner", "local");
  spec.budget = args.get_size("budget", 150);
  spec.seed = args.get_size("seed", 42);
  spec.backend = args.get("backend", "live");

  const auto bench = kernels::make(spec.kernel);
  spec.device = resolve_device(
      *bench, args.get("device", dataset ? dataset->device_name() : "0"));

  service::TuningService svc;
  if (dataset) {
    svc.register_dataset(spec.kernel, spec.device, std::move(*dataset));
    spec.backend = "replay";
  }
  const auto result = svc.run_inline(spec);

  std::printf("session %s/%s device=%s budget=%zu seed=%llu backend=%s\n",
              spec.kernel.c_str(), spec.tuner.c_str(),
              bench->device_name(spec.device).c_str(), spec.budget,
              static_cast<unsigned long long>(spec.seed),
              spec.backend.c_str());
  std::printf("status: %s%s%s\n", to_string(result.status),
              result.error.empty() ? "" : " - ", result.error.c_str());
  if (result.status == service::SessionStatus::kFailed) return 1;
  std::printf("distinct evaluations: %zu, wall: %.1fms\n",
              result.run.trace.size(), result.wall_ms);
  if (result.run.best) {
    std::printf("best: %.4fms at config index %llu\n",
                result.run.best->objective,
                static_cast<unsigned long long>(result.run.best->index));
    core::Config best_config;
    bench->space().compiled().decode_into(result.run.best->index,
                                          best_config);
    const auto& names = bench->space().params().param_names();
    std::printf("best config:");
    for (std::size_t p = 0; p < names.size(); ++p) {
      std::printf(" %s=%lld", names[p].c_str(),
                  static_cast<long long>(best_config[p]));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_grid(const Args& args) {
  args.require_known({"kernels", "tuners", "sessions", "budget", "seed",
                      "device", "backend", "workers", "dataset-dir"});
  const auto kernel_names =
      common::split(args.get("kernels", "gemm,hotspot"), ',');
  const auto tuner_names =
      common::split(args.get("tuners", "local,annealing,ils"), ',');
  const std::size_t sessions =
      args.get_size("sessions", kernel_names.size() * tuner_names.size());
  const std::size_t budget = args.get_size("budget", 150);
  const std::uint64_t base_seed = args.get_size("seed", 1000);
  const std::string backend = args.get("backend", "live");
  const std::string device = args.get("device", "0");

  service::ServiceOptions options;
  options.workers = args.get_size("workers", 0);
  // Replay sessions load <kernel>_<device>.{bin,csv} archives from this
  // directory into the replay table and persist swept datasets back
  // into it.
  options.dataset_dir = args.get("dataset-dir", "");
  service::TuningService svc(options);

  // One device resolution per kernel, not per session.
  std::map<std::string, core::DeviceIndex> device_of;
  for (const auto& kernel : kernel_names) {
    device_of[kernel] = resolve_device(*kernels::make(kernel), device);
  }

  // Round-robin the kernel x tuner grid into `sessions` sessions; each
  // wrap-around of the grid bumps the seed, so repeated combinations
  // are distinct runs on the same workload.
  std::vector<service::SessionSpec> specs;
  specs.reserve(sessions);
  const std::size_t combos = kernel_names.size() * tuner_names.size();
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::size_t combo = s % combos;
    service::SessionSpec spec;
    spec.kernel = kernel_names[combo % kernel_names.size()];
    spec.tuner = tuner_names[combo / kernel_names.size()];
    spec.budget = budget;
    spec.seed = base_seed + s;
    spec.backend = backend;
    spec.device = device_of[spec.kernel];
    specs.push_back(std::move(spec));
  }

  std::printf("grid: %zu sessions over %zu kernel(s) x %zu tuner(s), "
              "%zu workers\n",
              specs.size(), kernel_names.size(), tuner_names.size(),
              svc.workers());
  const auto results = svc.run_all(specs);

  common::AsciiTable table(
      {"kernel", "tuner", "seed", "status", "evals", "best", "wall"});
  bool failed = false;
  for (const auto& r : results) {
    failed = failed || r.status == service::SessionStatus::kFailed;
    table.add_row({r.spec.kernel, r.spec.tuner, std::to_string(r.spec.seed),
                   r.error.empty() ? to_string(r.status) : r.error,
                   std::to_string(r.run.trace.size()), best_cell(r),
                   common::format_double(r.wall_ms, 1) + "ms"});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return failed ? 1 : 0;
}

int cmd_replay(const Args& args) {
  args.require_known(
      {"dataset", "kernel", "tuner", "device", "budget", "seed", "repeats"});
  if (!args.has("dataset")) {
    std::fprintf(stderr, "tune replay requires --dataset <path.{csv,bin}>\n");
    return 2;
  }
  auto dataset = io::load_dataset(args.get("dataset", ""));
  const std::string kernel = args.get("kernel", dataset.benchmark_name());
  const std::size_t repeats = args.get_size("repeats", 1);
  const std::uint64_t base_seed = args.get_size("seed", 42);

  const auto bench = kernels::make(kernel);
  const auto device =
      resolve_device(*bench, args.get("device", dataset.device_name()));

  service::TuningService svc;
  svc.register_dataset(kernel, device, std::move(dataset));

  std::vector<service::SessionSpec> specs;
  for (std::size_t r = 0; r < repeats; ++r) {
    service::SessionSpec spec;
    spec.kernel = kernel;
    spec.tuner = args.get("tuner", "local");
    spec.device = device;
    spec.budget = args.get_size("budget", 150);
    spec.seed = base_seed + r;
    spec.backend = "replay";
    specs.push_back(std::move(spec));
  }
  const auto results = svc.run_all(specs);

  common::AsciiTable table({"seed", "status", "evals", "best"});
  std::vector<double> bests;
  bool failed = false;
  for (const auto& r : results) {
    failed = failed || r.status == service::SessionStatus::kFailed;
    if (r.run.best) bests.push_back(r.run.best->objective);
    table.add_row({std::to_string(r.spec.seed),
                   r.error.empty() ? to_string(r.status) : r.error,
                   std::to_string(r.run.trace.size()), best_cell(r)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  if (!bests.empty()) {
    std::printf("mean best over %zu repeats: %.4fms\n", bests.size(),
                common::mean(bests));
  }
  return failed ? 1 : 0;
}

int cmd_spaces(const Args& args) {
  args.require_known({"kernels"});
  const auto names = args.has("kernels")
                         ? common::split(args.get("kernels", ""), ',')
                         : kernels::paper_benchmark_names();
  common::AsciiTable table({"kernel", "params", "cardinality", "valid",
                            "density", "mode"});
  for (const auto& name : names) {
    const auto bench = kernels::make(name);
    const auto& compiled = bench->space().compiled();
    std::string valid = "-";
    std::string density = "-";
    if (compiled.has_valid_set()) {
      valid = common::format_grouped(compiled.num_valid());
      density = common::format_double(
                    100.0 * static_cast<double>(compiled.num_valid()) /
                        static_cast<double>(compiled.cardinality()),
                    1) +
                "%";
    }
    table.add_row({name, std::to_string(compiled.num_params()),
                   common::format_grouped(compiled.cardinality()), valid,
                   density,
                   compiled.has_valid_set() ? "materialized" : "streamed"});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}

int cmd_sweep(const Args& args) {
  args.require_known({"kernel", "device", "out", "samples", "seed",
                      "exhaustive", "chunk", "batch"});
  const std::string kernel = args.get("kernel", "gemm");
  const auto bench = kernels::make(kernel);
  const auto device = resolve_device(*bench, args.get("device", "0"));
  const std::string device_name = bench->device_name(device);
  const std::string out =
      args.get("out", kernel + "_" + device_name + ".bin");
  const std::size_t batch =
      args.get_size("batch", core::Runner::kStreamBatchRows);

  io::WriterOptions options;
  options.chunk_rows = args.get_size("chunk", io::kDefaultChunkRows);
  io::DatasetWriter writer(out, kernel, device_name,
                           bench->space().params().param_names(), options);

  // Bounded memory end to end: Runner streams evaluation batches, the
  // writer flushes a chunk at a time — the sweep never holds the
  // dataset.
  std::size_t rows = 0;
  if (args.has("exhaustive")) {
    rows = core::Runner::stream_exhaustive(*bench, device, writer.sink(),
                                           batch);
  } else {
    rows = core::Runner::stream_default(
        *bench, device, writer.sink(), args.get_size("seed", core::kSweepSeed),
        args.get_size("samples", core::kSweepSamples), batch);
  }
  writer.finalize();

  const auto bytes = std::filesystem::file_size(out);
  std::printf("swept %s@%s: %zu rows -> %s (%.1f MiB, chunk=%zu rows, "
              "peak buffered %zu rows)\n",
              kernel.c_str(), device_name.c_str(), rows, out.c_str(),
              static_cast<double>(bytes) / (1024.0 * 1024.0),
              writer.chunk_rows(), writer.peak_buffered_rows());
  return 0;
}

int cmd_convert(const Args& args) {
  args.require_known({"in", "out", "chunk", "verify"});
  if (!args.has("in") || !args.has("out")) {
    std::fprintf(stderr, "tune convert requires --in and --out paths\n");
    return 2;
  }
  const std::string in = args.get("in", "");
  const std::string out = args.get("out", "");
  const auto dataset = io::load_dataset(in);
  const auto format = io::format_for_path(out);
  io::save_dataset(out, dataset, format,
                   args.get_size("chunk", io::kDefaultChunkRows));
  std::printf("converted %s -> %s (%s, %zu rows)\n", in.c_str(), out.c_str(),
              format == io::DatasetFormat::kBinary ? "binary" : "csv",
              dataset.size());
  if (args.has("verify")) {
    const auto reloaded = io::load_dataset(out);
    if (reloaded.size() != dataset.size() ||
        reloaded.benchmark_name() != dataset.benchmark_name() ||
        reloaded.device_name() != dataset.device_name() ||
        reloaded.param_names() != dataset.param_names()) {
      std::fprintf(stderr, "verify FAILED: identity mismatch\n");
      return 1;
    }
    // Times compare at the *output* format's fidelity: binary archives
    // preserve the double bits, CSV quantizes to its cell format (so a
    // binary -> csv conversion verifies against the printed cells).
    const auto time_cell = [](double t) {
      return std::isfinite(t) ? common::format_double(t, 9)
                              : std::string("inf");
    };
    for (std::size_t r = 0; r < dataset.size(); ++r) {
      const bool time_ok =
          format == io::DatasetFormat::kBinary
              ? (reloaded.time_ms(r) == dataset.time_ms(r) ||
                 (std::isnan(reloaded.time_ms(r)) &&
                  std::isnan(dataset.time_ms(r))))
              : time_cell(reloaded.time_ms(r)) == time_cell(dataset.time_ms(r));
      if (reloaded.config_index(r) != dataset.config_index(r) ||
          reloaded.config(r) != dataset.config(r) ||
          reloaded.status(r) != dataset.status(r) || !time_ok) {
        std::fprintf(stderr, "verify FAILED at row %zu\n", r);
        return 1;
      }
    }
    std::printf("verified: %zu rows identical\n", dataset.size());
  }
  return 0;
}

int cmd_info(const Args& args) {
  args.require_known({"dataset", "verify"});
  if (!args.has("dataset")) {
    std::fprintf(stderr, "tune info requires --dataset <path>\n");
    return 2;
  }
  const std::string path = args.get("dataset", "");
  if (io::sniff_format(path) == io::DatasetFormat::kBinary) {
    const auto view = io::DatasetView::open(path);
    std::printf("format:    binary columnar (BATDSB01)\n");
    std::printf("benchmark: %s\n", view->benchmark_name().c_str());
    std::printf("device:    %s\n", view->device_name().c_str());
    std::printf("params:    %zu (", view->num_params());
    for (std::size_t p = 0; p < view->param_names().size(); ++p) {
      std::printf("%s%s", p == 0 ? "" : ", ",
                  view->param_names()[p].c_str());
    }
    std::printf(")\n");
    std::printf("rows:      %zu in %zu chunk(s) of %zu\n", view->size(),
                view->num_chunks(), view->chunk_capacity());
    std::printf("valid:     %zu\n", view->num_valid());
    if (view->num_valid() != 0) {
      std::printf("best:      %.6f ms\n", view->best_time());
    }
    std::printf("bytes:     %ju\n",
                static_cast<std::uintmax_t>(std::filesystem::file_size(path)));
    if (args.has("verify")) {
      const bool crc_ok = view->verify_crc();
      const bool statuses_ok = view->statuses_valid();
      std::printf("crc:       %s\n", crc_ok ? "ok" : "MISMATCH");
      std::printf("statuses:  %s\n",
                  statuses_ok ? "ok" : "OUT-OF-RANGE VALUES");
      return crc_ok && statuses_ok ? 0 : 1;
    }
    return 0;
  }
  const auto dataset = io::load_dataset(path);
  std::printf("format:    csv\n");
  std::printf("benchmark: %s\n", dataset.benchmark_name().c_str());
  std::printf("device:    %s\n", dataset.device_name().c_str());
  std::printf("params:    %zu\n", dataset.num_params());
  std::printf("rows:      %zu\n", dataset.size());
  std::printf("valid:     %zu\n", dataset.num_valid());
  if (dataset.num_valid() != 0) {
    std::printf("best:      %.6f ms\n", dataset.best_time());
  }
  if (args.has("verify")) {
    // CSV carries no checksum; the cell-level parse that just ran is
    // the whole integrity check. Say so instead of silently ignoring
    // the flag.
    std::printf("verify:    parse ok (csv carries no checksum; every "
                "cell was validated while loading)\n");
  }
  return 0;
}

int cmd_serve(const Args& args) {
  args.require_known({"port", "host", "http-workers", "max-connections",
                      "max-body", "workers", "dataset-dir",
                      "event-loops", "admission-capacity", "retry-after",
                      "journal-dir", "journal-retain",
                      "journal-checkpoint-bytes", "log-level"});
  // Set the log level before anything can log (journal recovery below
  // emits info lines; a --log-level error boot should not).
  if (args.has("log-level")) {
    const std::string level_flag = args.get("log-level", "info");
    const auto level = common::parse_log_level(level_flag);
    if (!level) {
      throw std::invalid_argument(
          "--log-level must be debug|info|warn|error|off, got " + level_flag);
    }
    common::set_log_level(*level);
  }
  // Block the shutdown signals *before* any thread exists so every
  // worker inherits the mask and sigwait below is the only consumer.
  // The disposition must not be SIG_IGN (non-interactive shells start
  // background jobs that way): an ignored signal is discarded even
  // while blocked and would never reach sigwait.
  std::signal(SIGINT, [](int) {});
  std::signal(SIGTERM, [](int) {});
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  const std::string host = args.get("host", "127.0.0.1");
  const std::size_t port = args.get_size("port", 8080);
  if (port > 65535) {
    throw std::invalid_argument("--port must be <= 65535, got " +
                                std::to_string(port));
  }

  // One process-wide registry: service (and through it the journal),
  // HTTP transport and API server all record here, so GET /v1/metrics
  // is a single scrape of everything.
  auto metrics = std::make_shared<obs::MetricsRegistry>();

  service::ServiceOptions service_options;
  service_options.workers = args.get_size("workers", 0);
  service_options.dataset_dir = args.get("dataset-dir", "");
  service_options.journal_dir = args.get("journal-dir", "");
  service_options.journal_retain_completed =
      args.get_size("journal-retain", 1024);
  service_options.journal_checkpoint_bytes =
      args.get_size("journal-checkpoint-bytes", 256 * 1024);
  service_options.metrics = metrics;
  // The constructor replays the journal (and starts re-running any
  // unfinished sessions) before the HTTP listener below exists, so a
  // client can never observe a post-restart server without its
  // pre-crash registry.
  service::TuningService svc(service_options);
  if (!service_options.journal_dir.empty()) {
    const auto durability = svc.durability_stats();
    std::printf("tune serve: journal %s (restored %llu completed, "
                "re-running %llu pending, dropped %llu torn byte(s))\n",
                service_options.journal_dir.c_str(),
                static_cast<unsigned long long>(
                    durability.restored_completed),
                static_cast<unsigned long long>(
                    durability.recovered_pending),
                static_cast<unsigned long long>(
                    durability.replay_dropped_bytes));
  }

  api::ApiOptions api_options;
  api_options.metrics = metrics;
  api_options.http.host = host;
  api_options.http.port = static_cast<std::uint16_t>(port);
  api_options.http.workers = args.get_size("http-workers", 8);
  api_options.http.max_connections = args.get_size("max-connections", 1024);
  api_options.http.limits.max_body_bytes =
      args.get_size("max-body", 1024 * 1024);
  api_options.http.event_loops = args.get_size("event-loops", 2);
  api_options.http.admission_capacity =
      args.get_size("admission-capacity", 0);  // 0 = server default
  api_options.http.retry_after_seconds = args.get_double("retry-after", 1.0);
  api::ApiServer server(svc, api_options);
  server.start();

  std::printf("tune serve: listening on http://%s:%u "
              "(http workers=%zu, event loops=%zu, service workers=%zu)\n",
              api_options.http.host.c_str(), server.port(),
              api_options.http.workers, api_options.http.event_loops,
              svc.workers());
  std::fflush(stdout);  // scripts parse this line for the ephemeral port

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::printf("tune serve: caught %s, draining\n",
              signal_number == SIGINT ? "SIGINT" : "SIGTERM");

  // Cancel first, then drain: shutdown() flips the cooperative token
  // so in-flight sessions (HTTP workers blocked in run_inline) stop at
  // their next batch boundary — stopping the server first would join
  // those workers only after their sessions ran to natural completion.
  svc.shutdown();
  server.stop();
  std::printf("http: %llu connections, %llu requests, %llu shed, "
              "%llu over-capacity\n",
              static_cast<unsigned long long>(
                  server.http().connections_accepted()),
              static_cast<unsigned long long>(
                  server.http().requests_served()),
              static_cast<unsigned long long>(server.http().requests_shed()),
              static_cast<unsigned long long>(
                  server.http().connections_over_capacity()));
  return 0;
}

// --------------------------------------------------------- remote client --

/// "--server host:port" -> a connected-on-demand client.
net::HttpClient remote_client(const Args& args) {
  const std::string server = args.get("server", "");
  if (server.empty()) {
    throw std::invalid_argument("tune remote requires --server <host:port>");
  }
  const net::HostPort address = net::parse_host_port(server);
  return net::HttpClient(address.host, address.port);
}

/// Non-2xx: print the server's error body and fail the command.
bool remote_ok(const net::HttpResponse& response) {
  if (response.status >= 200 && response.status < 300) return true;
  std::fprintf(stderr, "server returned %d %s: %s\n", response.status,
               net::status_reason(response.status), response.body.c_str());
  return false;
}

/// Renders a SessionResult JSON like cmd_run renders the in-process
/// struct (best config decoded through the locally compiled space).
int print_remote_result(const common::Json& result) {
  const auto& spec = result.at("spec");
  std::printf("session %s/%s device=%llu budget=%llu seed=%llu backend=%s\n",
              spec.at("kernel").as_string().c_str(),
              spec.at("tuner").as_string().c_str(),
              static_cast<unsigned long long>(spec.at("device").as_uint()),
              static_cast<unsigned long long>(spec.at("budget").as_uint()),
              static_cast<unsigned long long>(spec.at("seed").as_uint()),
              spec.at("backend").as_string().c_str());
  const std::string& status = result.at("status").as_string();
  const std::string& error = result.at("error").as_string();
  std::printf("status: %s%s%s\n", status.c_str(), error.empty() ? "" : " - ",
              error.c_str());
  if (status == "failed") return 1;
  std::printf("distinct evaluations: %llu, server wall: %.1fms\n",
              static_cast<unsigned long long>(
                  result.at("evaluations").as_uint()),
              result.at("wall_ms").as_double());
  const auto& best = result.at("best");
  if (!best.is_null()) {
    const auto index = best.at("index").as_uint();
    std::printf("best: %.4fms at config index %llu\n",
                best.at("objective").as_double(),
                static_cast<unsigned long long>(index));
    const auto bench = kernels::make(spec.at("kernel").as_string());
    core::Config best_config;
    bench->space().compiled().decode_into(index, best_config);
    const auto& names = bench->space().params().param_names();
    std::printf("best config:");
    for (std::size_t p = 0; p < names.size(); ++p) {
      std::printf(" %s=%lld", names[p].c_str(),
                  static_cast<long long>(best_config[p]));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_remote_run(const Args& args) {
  args.require_known({"server", "kernel", "tuner", "device",
                      "budget", "seed", "backend", "async", "poll-ms"});
  service::SessionSpec spec;
  spec.kernel = args.get("kernel", "gemm");
  spec.tuner = args.get("tuner", "local");
  spec.budget = args.get_size("budget", 150);
  spec.seed = args.get_size("seed", 42);
  spec.backend = args.get("backend", "live");
  spec.device =
      resolve_device(*kernels::make(spec.kernel), args.get("device", "0"));
  const std::string body = service::to_json(spec).dump();

  auto client = remote_client(args);
  if (!args.has("async")) {
    const auto response = client.post("/v1/sessions:run", body);
    if (!remote_ok(response)) return 1;
    return print_remote_result(common::Json::parse(response.body));
  }

  const auto submitted = client.post("/v1/sessions", body);
  if (!remote_ok(submitted)) return 1;
  const auto ticket = common::Json::parse(submitted.body);
  const std::string& id = ticket.at("id").as_string();
  std::printf("submitted as session %s\n", id.c_str());
  const auto poll = std::chrono::milliseconds(args.get_size("poll-ms", 100));
  while (true) {
    const auto response = client.get("/v1/sessions/" + id);
    if (!remote_ok(response)) return 1;
    const auto job = common::Json::parse(response.body);
    if (job.at("state").as_string() == "done") {
      return print_remote_result(job.at("result"));
    }
    std::this_thread::sleep_for(poll);
  }
}

int cmd_remote_submit(const Args& args) {
  args.require_known({"server", "kernel", "tuner", "device",
                      "budget", "seed", "backend"});
  service::SessionSpec spec;
  spec.kernel = args.get("kernel", "gemm");
  spec.tuner = args.get("tuner", "local");
  spec.budget = args.get_size("budget", 150);
  spec.seed = args.get_size("seed", 42);
  spec.backend = args.get("backend", "live");
  spec.device =
      resolve_device(*kernels::make(spec.kernel), args.get("device", "0"));

  auto client = remote_client(args);
  const auto response =
      client.post("/v1/sessions", service::to_json(spec).dump());
  if (!remote_ok(response)) return 1;
  // Bare id on stdout: scripts capture it and re-attach with `get
  // --id` — possibly against a restarted server (the journal keeps
  // the id meaningful across a crash).
  std::printf("%s\n",
              common::Json::parse(response.body).at("id").as_string().c_str());
  return 0;
}

int cmd_remote_get(const Args& args) {
  args.require_known({"server", "id"});
  if (!args.has("id")) {
    std::fprintf(stderr, "tune remote get requires --id <n>\n");
    return 2;
  }
  auto client = remote_client(args);
  const auto response = client.get("/v1/sessions/" + args.get("id", ""));
  if (!remote_ok(response)) return 1;
  std::printf("%s\n", common::Json::parse(response.body).dump(2).c_str());
  return 0;
}

int cmd_remote_simple(const Args& args, const std::string& target) {
  args.require_known({"server"});
  auto client = remote_client(args);
  const auto response = client.get(target);
  if (!remote_ok(response)) return 1;
  std::printf("%s\n", common::Json::parse(response.body).dump(2).c_str());
  return 0;
}

/// `tune remote top`: one-line-per-subsystem operational summary — the
/// numbers an operator glances at first, assembled from /v1/healthz
/// and /v1/stats (both registry-backed, so this agrees with a
/// Prometheus scrape taken at the same instant).
int cmd_remote_top(const Args& args) {
  args.require_known({"server"});
  auto client = remote_client(args);
  const auto health_response = client.get("/v1/healthz");
  if (!remote_ok(health_response)) return 1;
  const auto health = common::Json::parse(health_response.body);
  const auto stats_response = client.get("/v1/stats");
  if (!remote_ok(stats_response)) return 1;
  const auto stats = common::Json::parse(stats_response.body);

  std::printf("node:     %s build=%s uptime=%.0fs\n",
              health.at("status").as_string().c_str(),
              health.at("build_id").as_string().c_str(),
              health.at("uptime_seconds").as_double());
  std::printf("sessions: submitted=%llu active=%llu workers=%llu\n",
              static_cast<unsigned long long>(
                  stats.at("sessions_submitted").as_uint()),
              static_cast<unsigned long long>(
                  stats.at("sessions_active").as_uint()),
              static_cast<unsigned long long>(stats.at("workers").as_uint()));
  const auto& http = stats.at("http");
  std::printf("http:     requests=%llu open=%llu shed=%llu\n",
              static_cast<unsigned long long>(
                  http.at("requests_served").as_uint()),
              static_cast<unsigned long long>(
                  http.at("connections_open").as_uint()),
              static_cast<unsigned long long>(
                  http.at("requests_shed").as_uint()));
  const auto& durability = stats.at("durability");
  if (durability.at("enabled").as_bool()) {
    std::printf("journal:  bytes=%llu commits=%llu checkpoints=%llu\n",
                static_cast<unsigned long long>(
                    durability.at("journal_bytes").as_uint()),
                static_cast<unsigned long long>(
                    durability.at("commits").as_uint()),
                static_cast<unsigned long long>(
                    durability.at("checkpoints").as_uint()));
  } else {
    std::printf("journal:  disabled\n");
  }
  return 0;
}

/// `tune remote trace --id N`: the span timeline of a tracked session,
/// one line per span with offsets relative to the first span.
int cmd_remote_trace(const Args& args) {
  args.require_known({"server", "id"});
  if (!args.has("id")) {
    std::fprintf(stderr, "tune remote trace requires --id <n>\n");
    return 2;
  }
  auto client = remote_client(args);
  const auto response =
      client.get("/v1/sessions/" + args.get("id", "") + "/trace");
  if (!remote_ok(response)) return 1;
  const auto trace = common::Json::parse(response.body);
  const auto& spans = trace.at("spans").as_array();
  std::printf("session %s trace %llu (%zu span(s))\n",
              trace.at("id").as_string().c_str(),
              static_cast<unsigned long long>(
                  trace.at("trace_id").as_uint()),
              spans.size());
  for (const auto& span : spans) {
    const double start_ms =
        static_cast<double>(span.at("start_us").as_uint()) / 1000.0;
    const double duration_ms =
        static_cast<double>(span.at("duration_us").as_uint()) / 1000.0;
    std::string detail;
    if (const auto* d = span.find("detail")) detail = d->as_string();
    std::printf("  +%10.3fms %10.3fms  %-16s %s\n", start_ms, duration_ms,
                span.at("name").as_string().c_str(), detail.c_str());
  }
  return 0;
}

int cmd_remote(const Args& args) {
  const std::string sub =
      args.positional.empty() ? "" : args.positional.front();
  if (sub == "run") return cmd_remote_run(args);
  if (sub == "submit") return cmd_remote_submit(args);
  if (sub == "get") return cmd_remote_get(args);
  if (sub == "stats") return cmd_remote_simple(args, "/v1/stats");
  if (sub == "spaces") return cmd_remote_simple(args, "/v1/spaces");
  if (sub == "health") return cmd_remote_simple(args, "/v1/healthz");
  if (sub == "top") return cmd_remote_top(args);
  if (sub == "trace") return cmd_remote_trace(args);
  std::fprintf(stderr,
               "usage: tune remote "
               "<run|submit|get|stats|spaces|health|top|trace> --server "
               "host:port [--flags...]\n");
  return 2;
}

void print_usage() {
  std::fputs(
      "usage: tune <run|grid|replay|spaces|sweep|convert|info|serve|remote>"
      " [--flags...]\n"
      "  run     --kernel K --tuner T [--device D] [--budget N] [--seed S]\n"
      "          [--backend live|replay] [--dataset path.{csv,bin}]\n"
      "  grid    --kernels a,b --tuners x,y --sessions N [--budget N]\n"
      "          [--seed S] [--device D] [--backend live|replay]\n"
      "          [--workers W] [--dataset-dir DIR]\n"
      "  replay  --dataset path.{csv,bin} [--kernel K] [--tuner T]\n"
      "          [--repeats R]\n"
      "  spaces  [--kernels a,b,...]\n"
      "  sweep   --kernel K [--device D] [--out path.bin] [--samples N]\n"
      "          [--seed S] [--exhaustive] [--chunk ROWS] [--batch ROWS]\n"
      "  convert --in path --out path [--chunk ROWS] [--verify]\n"
      "  info    --dataset path [--verify]\n"
      "  serve   [--port 8080] [--host H] [--http-workers N]\n"
      "          [--event-loops N] [--max-connections N] [--max-body BYTES]\n"
      "          [--admission-capacity N] [--retry-after SECS]\n"
      "          [--workers N] [--dataset-dir DIR]\n"
      "          [--journal-dir DIR [--journal-retain N]\n"
      "           [--journal-checkpoint-bytes BYTES]]\n"
      "          [--log-level debug|info|warn|error|off]\n"
      "  remote  <run|submit|get|stats|spaces|health|top|trace>\n"
      "          --server host:port\n"
      "          run: spec flags like `tune run` [--async] [--poll-ms MS]\n"
      "          submit: spec flags; prints the bare session id\n"
      "          get: --id N\n"
      "          health: build id, uptime, ready|draining\n"
      "          top: one-shot operational summary (sessions, http,\n"
      "               journal)\n"
      "          trace: --id N; span timeline of a tracked session\n"
      "see docs/reproducing-the-paper.md for figure/table recipes,\n"
      "docs/dataset-format.md for the binary archive layout,\n"
      "docs/http-api.md for the serve/remote wire protocol and\n"
      "docs/durability.md for the session journal\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    if (command == "run") return cmd_run(args);
    if (command == "grid") return cmd_grid(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "spaces") return cmd_spaces(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "convert") return cmd_convert(args);
    if (command == "info") return cmd_info(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "remote") return cmd_remote(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tune %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  print_usage();
  return 2;
}
