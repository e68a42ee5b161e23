#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/statistics.hpp"

namespace batbench {

// ------------------------------------------------------------ statistics --

std::vector<double> quartiles(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 2) throw std::invalid_argument("quartiles need two values");
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, positions at
  // i * m / 4 (1-based), interpolated between the neighbouring ranks
  // and clamped to the data.
  const std::size_t m = n + 1;
  std::vector<double> out;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    out.push_back((values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0);
  }
  return out;
}

std::optional<double> tail_percentile(std::size_t samples) {
  std::optional<double> best;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(samples) * (1.0 - p / 100.0);
    if (beyond >= 10.0 - 1e-9) best = p;
  }
  return best;
}

double slowest_tenth_mean(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("no values");
  const std::size_t n = std::max<std::size_t>(1, (values.size() + 5) / 10);
  std::nth_element(values.begin(), values.end() - static_cast<std::ptrdiff_t>(n),
                   values.end());
  double sum = 0.0;
  for (auto it = values.end() - static_cast<std::ptrdiff_t>(n);
       it != values.end(); ++it) {
    sum += *it;
  }
  return sum / static_cast<double>(n);
}

// ---------------------------------------------------------------- tracing --

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint32_t> g_next_tid{1};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // never shrinks

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_current = 0;

ThreadBuffer& local_buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = g_next_tid.fetch_add(1);
    t_buffer = buffer.get();
    std::lock_guard lock(g_buffers_mutex);
    g_buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

void Tracer::set_enabled(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::collect() {
  std::vector<SpanRecord> out;
  std::lock_guard lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

void Tracer::clear() {
  std::lock_guard lock(g_buffers_mutex);
  for (auto& buffer : g_buffers) buffer->spans.clear();
}

Span::Span(const char* name) : Span(name, t_current) {}

Span::Span(const char* name, std::uint64_t parent) : name_(name) {
  if (!Tracer::enabled()) return;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent;
  saved_current_ = t_current;
  t_current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  auto& buffer = local_buffer();
  buffer.spans.push_back(
      SpanRecord{name_, start_ns_, end, id_, parent_, buffer.tid});
  t_current = saved_current_;
}

std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = by_id.find(spans[i].parent);
    if (spans[i].parent != 0 && it != by_id.end()) {
      children[it->second].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    intervals.clear();
    for (const auto c : children[i]) {
      const auto lo = std::max(spans[c].start_ns, span.start_ns);
      const auto hi = std::min(spans[c].end_ns, span.end_ns);
      if (lo < hi) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : intervals) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

NameMap totals_by_name(const std::vector<SpanRecord>& spans) {
  const auto self = self_times(spans);
  NameMap out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& totals = out[spans[i].name];
    totals.self_s += static_cast<double>(self[i]) * 1e-9;
    totals.total_s +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    ++totals.count;
  }
  return out;
}

void LayerRecorder::take() {
  auto spans = Tracer::collect();
  Tracer::clear();
  rounds_.push_back(totals_by_name(spans));
  if (rounds_.size() == 1) first_ = std::move(spans);
}

double LayerRecorder::median_of(
    const std::function<double(const NameMap&)>& per_round) const {
  std::vector<double> values;
  for (const auto& round : rounds_) values.push_back(per_round(round));
  return values.empty() ? 0.0 : bat::common::median(values);
}

double LayerRecorder::self_s(const std::string& name) const {
  return median_of([&](const NameMap& m) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.self_s;
  });
}

double LayerRecorder::total_s(const std::string& name) const {
  return median_of([&](const NameMap& m) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.total_s;
  });
}

double LayerRecorder::count(const std::string& name) const {
  return median_of([&](const NameMap& m) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : static_cast<double>(it->second.count);
  });
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        std::size_t max_spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::int64_t origin = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    origin = i == 0 ? spans[i].start_ns : std::min(origin, spans[i].start_ns);
  }
  const std::size_t written = std::min(spans.size(), max_spans);
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                     "\"spans_recorded\":%zu,\"spans_written\":%zu},"
                     "\"traceEvents\":[",
               spans.size(), written);
  for (std::size_t i = 0; i < written; ++i) {
    const auto& s = spans[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fputs("\n]}\n", file);
  if (std::fclose(file) != 0) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

// ---------------------------------------------------------------- digests --

void Digest::add(std::string_view bytes) {
  for (const unsigned char c : bytes) {
    state_ ^= c;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  add(std::string_view(bytes, 8));
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(state_));
  return text;
}

void add_session(Digest& digest, std::string_view status,
                 std::span<const bat::core::TraceEntry> trace) {
  digest.add(status);
  digest.add(static_cast<std::uint64_t>(trace.size()));
  for (const auto& entry : trace) {
    digest.add(static_cast<std::uint64_t>(entry.index));
    digest.add(std::bit_cast<std::uint64_t>(entry.objective));
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------- load shape --

std::vector<OpenLoopSample> run_open_loop(
    double rate, double seconds, std::size_t connections,
    const std::function<bool(std::size_t, std::size_t)>& send) {
  const auto total = static_cast<std::size_t>(rate * seconds);
  std::vector<OpenLoopSample> samples(total);
  // A short lead-in so every connection thread is running before the
  // first request falls due.
  const std::int64_t origin = now_ns() + 5'000'000;
  const auto since_origin = [origin] {
    return static_cast<double>(now_ns() - origin) * 1e-9;
  };
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < total; i += connections) {
        auto& sample = samples[i];
        sample.due_s = static_cast<double>(i) / rate;
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
                origin + static_cast<std::int64_t>(sample.due_s * 1e9))));
        sample.sent_s = since_origin();
        try {
          sample.ok = send(c, i);
        } catch (const std::exception&) {
          sample.ok = false;
        }
        sample.done_s = since_origin();
      }
    });
  }
  for (auto& t : threads) t.join();
  return samples;
}

// ---------------------------------------------------------------- results --

void RunResult::metric(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void RunResult::check(bool ok, const std::string& what) {
  std::fprintf(stderr, "check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) check_failures.push_back(what);
}

std::string RunResult::to_json_line() const {
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i != 0) line += ", ";
    line += bat::common::Json(metrics[i].name).dump() + ": {\"value\": " +
            value + ", \"unit\": " + bat::common::Json(metrics[i].unit).dump() +
            "}";
  }
  line += "}}";
  return line;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> repeat_setup(std::size_t min_times, double min_seconds,
                                 std::size_t max_times,
                                 const std::function<void()>& setup,
                                 const std::function<void()>& teardown) {
  std::vector<double> durations;
  double total = 0.0;
  while (durations.size() < max_times &&
         (durations.size() < min_times || total < min_seconds)) {
    if (!durations.empty() && teardown) teardown();
    const auto start = now_ns();
    setup();
    durations.push_back(seconds_since(start));
    total += durations.back();
  }
  return durations;
}

}  // namespace batbench
