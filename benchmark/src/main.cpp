// bat_bench: the BAT benchmark program (benchmark/run.sh builds and
// calls it).
//
// One run, one workload, one process:
//   bat_bench --workload analysis|grid|surrogate|http [--seed N]
//             [--seconds S] [--trace 0|1] [--goldens FILE]
//             [--trace-out FILE] [--record-goldens FILE]
// prints its output checks on stderr and, as the last line of stdout,
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with --trace 1. Exit status 0 only
// when every check passed.
//
// A suite, each run in its own process:
//   bat_bench --suite [--workload NAME] [--seed N] [--repeat K]
//             [--vary-seed] [--seconds S] [--trace 0|1] [--goldens FILE]
//             [--out FILE]
// runs K untraced processes per workload plus one traced one (skipped
// with --trace 0), prints "workload metric value unit" per metric with
// the median, quartiles, spread (quartile distance / median) and run
// count, and writes every run and the summary as JSON to --out. With
// --vary-seed untraced run k uses seed N + k: the spread then includes
// the inputs' effect, which is how a metric's bound is set.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/statistics.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using bat::common::Json;
using bat::common::JsonArray;
using bat::common::JsonObject;
using namespace batbench;

const std::vector<std::string> kWorkloads{"analysis", "grid", "surrogate",
                                          "http"};

struct Args {
  bool suite = false;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;  // run_seconds in BENCHMARK.json
  int trace = -1;  // -1: not given
  std::size_t repeat = 5;
  bool vary_seed = false;
  std::string goldens;
  std::string trace_out;
  std::string record_goldens;
  std::string out;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--suite") {
      args.suite = true;
    } else if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const auto v = value();
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = v == "1" ? 1 : 0;
    } else if (flag == "--repeat") {
      args.repeat = std::stoul(value());
    } else if (flag == "--vary-seed") {
      args.vary_seed = true;
    } else if (flag == "--goldens") {
      args.goldens = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--record-goldens") {
      args.record_goldens = value();
    } else if (flag == "--out") {
      args.out = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!args.workload.empty() &&
      std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) ==
          kWorkloads.end()) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  if (!args.suite && args.workload.empty()) {
    throw std::invalid_argument("--workload is required outside --suite");
  }
  if (args.seconds <= 0.0 || args.repeat == 0) {
    throw std::invalid_argument("--seconds and --repeat must be positive");
  }
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Merges a run's observed values into the golden file: "ffg" is
/// seed-independent, everything else lands under seeds/<seed>.
void record_goldens(const std::string& path, std::uint64_t seed,
                    const JsonObject& observed) {
  JsonObject root;
  if (std::ifstream(path).good()) root = Json::parse(read_file(path)).as_object();
  const auto merged = [](const Json* base, const Json& extra) {
    JsonObject out = base != nullptr ? base->as_object() : JsonObject{};
    for (const auto& [k, v] : extra.as_object()) out[k] = v;
    return Json(std::move(out));
  };
  JsonObject seeds =
      root.count("seeds") != 0 ? root["seeds"].as_object() : JsonObject{};
  JsonObject entry = seeds.count(std::to_string(seed)) != 0
                         ? seeds[std::to_string(seed)].as_object()
                         : JsonObject{};
  for (const auto& [key, value] : observed) {
    if (key == "ffg") {
      root["ffg"] = merged(root.count("ffg") != 0 ? &root["ffg"] : nullptr,
                           value);
    } else if (value.is_object()) {
      entry[key] =
          merged(entry.count(key) != 0 ? &entry[key] : nullptr, value);
    } else {
      entry[key] = value;
    }
  }
  seeds[std::to_string(seed)] = Json(std::move(entry));
  root["seeds"] = Json(std::move(seeds));
  write_file(path, Json(std::move(root)).dump(2) + "\n");
}

int run_one(const Args& args) {
  bat::common::set_log_level(bat::common::LogLevel::kWarn);
  Json goldens;
  RunConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.trace = args.trace == 1;
  config.trace_path = args.trace_out;
  if (!args.goldens.empty()) {
    goldens = Json::parse(read_file(args.goldens));
    config.goldens = &goldens;
  }
  RunResult result;
  try {
    if (args.workload == "analysis") result = run_analysis(config);
    if (args.workload == "grid") result = run_grid(config);
    if (args.workload == "surrogate") result = run_surrogate(config);
    if (args.workload == "http") result = run_http(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bat_bench: %s run failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  if (!args.record_goldens.empty()) {
    record_goldens(args.record_goldens, args.seed, result.observed);
  }
  std::printf("%s\n", result.to_json_line().c_str());
  return result.correct() ? 0 : 1;
}

/// Runs this binary again with `argv`; returns (exit status, stdout).
std::pair<int, std::string> spawn_self(const std::vector<std::string>& argv) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  std::vector<char*> raw;
  for (const auto& a : argv) raw.push_back(const_cast<char*>(a.c_str()));
  raw.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             raw.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  if (rc != 0) {
    close(pipe_fds[0]);
    throw std::runtime_error(std::string("spawn failed: ") + std::strerror(rc));
  }
  std::string out;
  char buffer[4096];
  for (ssize_t n; (n = read(pipe_fds[0], buffer, sizeof buffer)) > 0;) {
    out.append(buffer, static_cast<std::size_t>(n));
  }
  close(pipe_fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : 128, out};
}

std::string last_line(const std::string& text) {
  const auto end = text.find_last_not_of('\n');
  if (end == std::string::npos) return "";
  const auto start = text.rfind('\n', end);
  return text.substr(start == std::string::npos ? 0 : start + 1,
                     end - (start == std::string::npos ? 0 : start + 1) + 1);
}

int run_suite(const Args& args) {
  const auto workloads = args.workload.empty()
                             ? kWorkloads
                             : std::vector<std::string>{args.workload};
  bool all_ok = true;
  JsonObject report;
  for (const auto& workload : workloads) {
    JsonArray runs;
    // metric -> values, unit
    std::map<std::string, std::pair<std::vector<double>, std::string>> values;
    const std::size_t traced = args.trace == 0 ? 0 : 1;
    for (std::size_t r = 0; r < args.repeat + traced; ++r) {
      const bool trace = r == args.repeat;
      const std::uint64_t seed =
          args.seed + (args.vary_seed && !trace ? r : 0);
      std::vector<std::string> argv{
          "bat_bench", "--workload", workload, "--seed",
          std::to_string(seed), "--seconds", std::to_string(args.seconds),
          "--trace", trace ? "1" : "0"};
      if (!args.goldens.empty()) {
        argv.insert(argv.end(), {"--goldens", args.goldens});
      }
      if (trace && !args.out.empty()) {
        argv.insert(argv.end(), {"--trace-out", args.out + "." + workload +
                                                    ".trace.json"});
      }
      const auto [status, out] = spawn_self(argv);
      Json result;
      try {
        result = Json::parse(last_line(out));
      } catch (const std::exception&) {
        std::fprintf(stderr, "%s run %zu printed no result (exit %d)\n",
                     workload.c_str(), r, status);
        all_ok = false;
        continue;
      }
      all_ok = all_ok && status == 0 && result.at("correct").as_bool();
      for (const auto& [name, metric] : result.at("metrics").as_object()) {
        auto& entry = values[name];
        entry.first.push_back(metric.at("value").as_double());
        entry.second = metric.at("unit").as_string();
      }
      runs.push_back(std::move(result));
    }
    JsonObject summary;
    for (const auto& [name, entry] : values) {
      const auto& [v, unit] = entry;
      const double med = bat::common::median(v);
      double p25 = med;
      double p75 = med;
      if (v.size() >= 2) {
        const auto q = quartiles(v);
        p25 = q[0];
        p75 = q[2];
      }
      const double spread = med != 0.0 ? (p75 - p25) / med : 0.0;
      // Metrics of layers this workload never enters read 0 in every
      // run; they stay in the JSON but not on screen.
      if (std::any_of(v.begin(), v.end(), [](double x) { return x != 0.0; })) {
        std::printf("%s %s %.6g %s p25=%.6g p75=%.6g spread=%.4f n=%zu\n",
                    workload.c_str(), name.c_str(), med, unit.c_str(), p25,
                    p75, spread, v.size());
      }
      JsonObject s;
      s.emplace("median", med);
      s.emplace("p25", p25);
      s.emplace("p75", p75);
      s.emplace("spread", spread);
      s.emplace("n", static_cast<std::uint64_t>(v.size()));
      s.emplace("unit", unit);
      summary.emplace(name, Json(std::move(s)));
    }
    JsonObject entry;
    entry.emplace("runs", Json(std::move(runs)));
    entry.emplace("summary", Json(std::move(summary)));
    report.emplace(workload, Json(std::move(entry)));
  }
  if (!args.out.empty()) {
    JsonObject root;
    root.emplace("seed", static_cast<std::uint64_t>(args.seed));
    root.emplace("repeat", static_cast<std::uint64_t>(args.repeat));
    root.emplace("vary_seed", args.vary_seed);
    root.emplace("seconds", args.seconds);
    root.emplace("workloads", Json(std::move(report)));
    write_file(args.out, Json(std::move(root)).dump(2) + "\n");
    std::printf("results written to %s\n", args.out.c_str());
  }
  std::printf("suite %s\n", all_ok ? "passed" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse(argc, argv);
    return args.suite ? run_suite(args) : run_one(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bat_bench: %s\n", e.what());
    return 2;
  }
}
