// Shared machinery of bat_bench: statistics with the
// benchmark's reporting rules, the in-memory span tracer behind the
// per-layer metrics, session digests, the open-loop load generator and
// the result record every workload fills in.
//
// Spans are recorded by bat_bench around the calls it makes into each
// layer's public functions (see timed.hpp for the decorators), never
// inside the program.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "core/trace.hpp"

namespace batbench {

// ------------------------------------------------------------ statistics --
// Medians and percentiles come from bat::common::median/quantile.

/// Quartiles exactly as Python's statistics.quantiles(values, n=4) with
/// its default "exclusive" method, which is how the spread of repeated
/// runs is judged. Needs at least two values.
[[nodiscard]] std::vector<double> quartiles(std::vector<double> values);

/// The reporting rule for timings: the highest of p50, p90, p99, p99.9
/// and p99.99 that still has at least ten samples beyond it; nullopt
/// when not even the median qualifies.
[[nodiscard]] std::optional<double> tail_percentile(std::size_t samples);

/// The mean of the slowest tenth of `values`, rounded to at least one
/// value: the tail of a round's item latencies where a round has too
/// few items for a high percentile, or where a single high percentile
/// moves with every host stall. Needs one value.
[[nodiscard]] double slowest_tenth_mean(std::vector<double> values);

// ---------------------------------------------------------------- tracing --

/// One closed span. Times are steady-clock nanoseconds.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t tid = 0;
};

/// Process-wide span recorder. Disabled, a Span costs one relaxed load.
/// Each thread appends to its own buffer; collect() and clear() must
/// only run while no traced work is in flight.
class Tracer {
 public:
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();
  [[nodiscard]] static std::vector<SpanRecord> collect();
  static void clear();
};

/// RAII span. The parent is the calling thread's innermost open span,
/// or `parent` when given (work handed to another thread).
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, std::uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t saved_current_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may run
/// on other threads and overlap each other). Aligned with `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<SpanRecord>& spans);

/// Per span name: summed self time, summed duration and count.
struct NameTotals {
  double self_s = 0.0;
  double total_s = 0.0;
  std::uint64_t count = 0;
};
using NameMap = std::map<std::string, NameTotals>;
[[nodiscard]] NameMap totals_by_name(const std::vector<SpanRecord>& spans);

/// Turns traced rounds into per-layer numbers: each take() closes one
/// round (all spans recorded since the previous take), and a metric is
/// the median of its per-round values.
class LayerRecorder {
 public:
  void take();
  [[nodiscard]] double median_of(
      const std::function<double(const NameMap&)>& per_round) const;
  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] double count(const std::string& name) const;
  /// The spans of the first round, kept for the Chrome trace.
  [[nodiscard]] const std::vector<SpanRecord>& first_spans() const noexcept {
    return first_;
  }

 private:
  std::vector<NameMap> rounds_;
  std::vector<SpanRecord> first_;
};

/// Chrome trace-event JSON ("X" events carrying span id and parent id
/// in args); at most `max_spans` are written.
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        std::size_t max_spans);

[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double seconds_since(std::int64_t start_ns);

// ---------------------------------------------------------------- digests --

/// FNV-1a 64 over everything added, in order.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t value);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Folds one session into `digest`: its status and every trace entry
/// (config index and the objective's bit pattern), in order.
void add_session(Digest& digest, std::string_view status,
                 std::span<const bat::core::TraceEntry> trace);

/// Deterministic per-index seeds derived from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

// ------------------------------------------------------------- load shape --

/// One request of an open-loop run, in seconds since the run started.
struct OpenLoopSample {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool ok = false;
  [[nodiscard]] double latency_s() const { return done_s - due_s; }
  [[nodiscard]] double late_s() const { return sent_s - due_s; }
};

/// Open loop: request i is due at i / rate and is issued by connection
/// i % connections (one thread each, one request in flight per
/// connection). A request is timed from its due time, so a stalled
/// reply delays — and is charged to — the requests queued behind it.
/// `send(connection, i)` performs request i and returns whether it
/// succeeded.
[[nodiscard]] std::vector<OpenLoopSample> run_open_loop(
    double rate, double seconds, std::size_t connections,
    const std::function<bool(std::size_t, std::size_t)>& send);

// ---------------------------------------------------------------- results --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload process reports.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;
  /// Observed values for the golden file (digests, R^2, ...).
  bat::common::JsonObject observed;

  void metric(std::string name, double value, std::string unit);
  /// Records a named output check; prints it to stderr.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const {
    return check_failures.empty() && failed == 0;
  }
  /// {"correct","attempted","failed","metrics"} on one line.
  [[nodiscard]] std::string to_json_line() const;
};

/// The run as the command line asked for it.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  /// The parsed golden file (null when absent).
  const bat::common::Json* goldens = nullptr;
  /// Where the traced run writes its Chrome trace.
  std::string trace_path;
};

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Runs `setup` at least `min_times` times and until `min_seconds` of
/// set-ups have passed (at most `max_times`), and returns each duration
/// in seconds; the state of the last run is what the workload keeps.
/// `teardown`, untimed, runs before every set-up but the first.
[[nodiscard]] std::vector<double> repeat_setup(
    std::size_t min_times, double min_seconds, std::size_t max_times,
    const std::function<void()>& setup,
    const std::function<void()>& teardown = {});

}  // namespace batbench
