// obs/: the metrics registry and span-tracing layer.
//   * handle mutations are racy-by-design relaxed atomics: 8 threads
//     hammering one counter/histogram must add up exactly (tools/ci.sh
//     runs this binary under TSan to prove "lock-cheap" is not
//     "data race");
//   * the Prometheus text exposition (0.0.4) is golden-tested byte for
//     byte — dashboards parse this format, so drift is a break;
//   * the trace ring keeps the newest spans across wraparound and
//     accounts for every drop;
//   * the structured stderr log line is a pinned format (logfmt-ish),
//     exercised via format_log_line so no test scrapes stderr.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bat::obs {
namespace {

std::string data_path(const std::string& name) {
  return std::string(BAT_TESTS_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing test data file: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------- concurrent updates --

TEST(MetricsRegistry, CountersAndHistogramsAddUpUnderContention) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("bat_test_ops_total", "ops");
  Gauge* gauge = registry.gauge("bat_test_depth", "depth");
  Histogram* histogram = registry.histogram(
      "bat_test_latency_seconds", "latency", Histogram::exponential(1e-3, 2.0, 8));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->add();
        gauge->add(1);
        gauge->add(-1);
        // Spread observations over the buckets (and the +Inf one).
        histogram->observe(1e-3 * static_cast<double>((t + i) % 300));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter->value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(gauge->value(), 0);
  const auto snap = histogram->snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(MetricsRegistry, SameNameAndLabelsReturnsTheSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.counter("bat_test_total", "x", {{"k", "v"}});
  Counter* b = registry.counter("bat_test_total", "x", {{"k", "v"}});
  Counter* other = registry.counter("bat_test_total", "x", {{"k", "w"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->add(2);
  b->add(3);
  EXPECT_EQ(a->value(), 5u);

  EXPECT_THROW(registry.gauge("bat_test_total", "x"), std::invalid_argument);
  EXPECT_THROW(registry.counter("0bad", "x"), std::invalid_argument);
  registry.histogram("bat_test_h", "h", {1.0, 2.0});
  EXPECT_THROW(registry.histogram("bat_test_h", "h", {1.0, 3.0}),
               std::invalid_argument);
}

TEST(Histogram, QuantilesInterpolateWithinBuckets) {
  Histogram histogram(Histogram::exponential(1.0, 2.0, 4));  // 1 2 4 8 +Inf
  for (int i = 0; i < 100; ++i) histogram.observe(1.5);  // all in (1, 2]
  const auto snap = histogram.snapshot();
  EXPECT_GT(snap.quantile(0.5), 1.0);
  EXPECT_LE(snap.quantile(0.5), 2.0);
  EXPECT_LE(snap.quantile(0.99), 2.0);
  // The +Inf bucket reports the last finite bound, not infinity.
  Histogram overflow(std::vector<double>{1.0});
  overflow.observe(100.0);
  EXPECT_EQ(overflow.snapshot().quantile(0.99), 1.0);
}

// --------------------------------------------------------- exposition --

/// The golden registry: one of each instrument kind with deterministic
/// values. Regenerate tests/data/metrics_golden.prom by dumping
/// render_prometheus() of exactly this setup (the test failure output
/// shows the full rendered text).
std::string render_golden_registry() {
  MetricsRegistry registry;
  registry.counter("bat_demo_requests_total", "Requests handled")->add(3);
  registry
      .counter("bat_demo_responses_total", "Responses by code",
               {{"code", "200"}})
      ->add(2);
  registry
      .counter("bat_demo_responses_total", "Responses by code",
               {{"code", "500"}})
      ->add(1);
  registry.gauge("bat_demo_queue_depth", "Queue depth")->set(7);
  Histogram* histogram = registry.histogram(
      "bat_demo_latency_seconds", "Latency",
      Histogram::exponential(1e-3, 10.0, 3));  // 0.001 0.01 0.1 +Inf
  histogram->observe(0.0005);
  histogram->observe(0.05);
  histogram->observe(5.0);
  const auto guard = registry.callback(
      "bat_demo_bridge_total", "Scrape-time bridge",
      MetricsRegistry::CallbackKind::kCounter, {}, [] { return 42.0; });
  return registry.render_prometheus();
}

TEST(MetricsRegistry, PrometheusExpositionMatchesGolden) {
  EXPECT_EQ(render_golden_registry(),
            read_file(data_path("metrics_golden.prom")));
}

TEST(MetricsRegistry, CallbackSeriesUnregisterWithTheirGuard) {
  MetricsRegistry registry;
  {
    const auto guard = registry.callback(
        "bat_test_cb", "cb", MetricsRegistry::CallbackKind::kGauge, {},
        [] { return 1.0; });
    EXPECT_NE(registry.render_prometheus().find("bat_test_cb 1"),
              std::string::npos);
  }
  // Guard gone: the series (and its family) disappear from the scrape.
  EXPECT_EQ(registry.render_prometheus().find("bat_test_cb"),
            std::string::npos);
}

// -------------------------------------------------------------- tracing --

TEST(TraceBuffer, WraparoundKeepsTheNewestSpans) {
  TraceBuffer buffer(/*capacity=*/16, /*stripes=*/4);
  const std::uint64_t trace_id = 777;
  constexpr std::uint64_t kRecorded = 64;
  for (std::uint64_t i = 0; i < kRecorded; ++i) {
    Span span;
    span.trace_id = trace_id;
    span.start_ns = i;
    span.end_ns = i + 1;
    span.name = "span" + std::to_string(i);
    buffer.record(std::move(span));
  }
  EXPECT_EQ(buffer.recorded(), kRecorded);
  EXPECT_EQ(buffer.dropped(), kRecorded - buffer.capacity());

  const auto survivors = buffer.for_trace(trace_id);
  EXPECT_EQ(survivors.size(), buffer.capacity());
  // Overwrite-oldest per stripe + round-robin record order means the
  // last `capacity` spans recorded are exactly the survivors.
  for (const auto& span : survivors) {
    EXPECT_GE(span.start_ns, kRecorded - buffer.capacity());
  }
  // for_trace sorts by start time.
  for (std::size_t i = 1; i < survivors.size(); ++i) {
    EXPECT_LE(survivors[i - 1].start_ns, survivors[i].start_ns);
  }
}

TEST(Tracing, ScopedSpanRecordsOnlyUnderAnActiveTrace) {
  const std::uint64_t before = trace_buffer().recorded();
  {
    ScopedSpan untraced("untraced");
    EXPECT_FALSE(untraced.active());
  }
  EXPECT_EQ(trace_buffer().recorded(), before);

  const std::uint64_t id = mint_trace_id();
  {
    TraceScope scope(id);
    ScopedSpan span("outer");
    EXPECT_TRUE(span.active());
    span.set_detail("kernel=pnpoly");
    // Strictly later start than "outer" even on a coarse steady_clock,
    // so the (start_ns, seq) sort below is unambiguous.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ScopedSpan inner("inner");
    EXPECT_TRUE(inner.active());
  }
  const auto spans = trace_buffer().for_trace(id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].detail, "kernel=pnpoly");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
}

TEST(Tracing, SpanRunRecordsOneSpanPerRun) {
  const std::uint64_t before = trace_buffer().recorded();
  {
    SpanRun untraced("untraced.run", "adds=");
    untraced.add();
    untraced.close();
  }
  EXPECT_EQ(trace_buffer().recorded(), before);

  const std::uint64_t id = mint_trace_id();
  {
    TraceScope scope(id);
    SpanRun run("run", "adds=");
    for (int i = 0; i < 3; ++i) run.add();
    run.close();
    run.close();  // nothing open: records nothing
    run.add();    // a second run, closed by destruction
  }
  const auto spans = trace_buffer().for_trace(id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "run");
  EXPECT_EQ(spans[0].detail, "adds=3");
  EXPECT_EQ(spans[1].detail, "adds=1");
  EXPECT_LE(spans[0].start_ns, spans[0].end_ns);
  EXPECT_LE(spans[0].end_ns, spans[1].start_ns);
}

TEST(Tracing, MintedIdsAreUniqueAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::vector<std::uint64_t>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&minted, t] {
      minted[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        minted[t].push_back(mint_trace_id());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<std::uint64_t> all;
  for (const auto& per_thread : minted) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(std::find(all.begin(), all.end(), 0u), all.end())
      << "trace id 0 is reserved for 'untraced'";
}

// ------------------------------------------------------- structured log --

TEST(Log, FormatLogLineIsPinned) {
  // 2026-08-08T12:34:56.789Z
  const std::int64_t unix_ms = 1786192496789;
  EXPECT_EQ(common::format_log_line(common::LogLevel::kWarn, "plain", unix_ms),
            "level=warn ts=2026-08-08T12:34:56.789Z msg=\"plain\"");
  EXPECT_EQ(common::format_log_line(common::LogLevel::kError,
                                    "quote \" slash \\ nl \n", unix_ms),
            "level=error ts=2026-08-08T12:34:56.789Z "
            "msg=\"quote \\\" slash \\\\ nl \\n\"");
}

TEST(Log, ParseLogLevelRoundTrips) {
  using common::LogLevel;
  EXPECT_EQ(common::parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(common::parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(common::parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(common::parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(common::parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(common::parse_log_level("verbose").has_value());
  EXPECT_FALSE(common::parse_log_level("").has_value());
  for (const auto level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                           LogLevel::kError, LogLevel::kOff}) {
    EXPECT_EQ(common::parse_log_level(common::log_level_name(level)), level);
  }
}

}  // namespace
}  // namespace bat::obs
