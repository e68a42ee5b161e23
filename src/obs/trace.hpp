// Span tracing: "where did session 42 spend its 3 seconds?"
//
// Model (docs/observability.md):
//
//   * a trace id is minted per unit of work — one per tracked session
//     (TuningService::submit_tracked) and one per dispatched HTTP
//     request — from a process-wide monotonic counter, so ids never
//     collide even across multiple services in one process;
//   * propagation is a thread-local (TraceScope): the service worker
//     enters the session's scope, and every instrumented layer it
//     calls into — backend batches, journal commits — picks the id up
//     implicitly. No signature grows a trace parameter. The known
//     limit: work handed to *other* threads (run_inline batch fan-out
//     over the global pool) is timed from the requesting thread
//     instead — the span covers the wait, which is what the session
//     actually spent;
//   * a site whose scopes are too short to pay for a span each (a
//     sequential tuner's one-config backend batches) records one
//     SpanRun per run of consecutive scopes instead;
//   * spans land in one process-wide bounded ring (trace_buffer()),
//     lock-striped so concurrent recorders hit different mutexes;
//     wraparound overwrites the oldest spans per stripe (newest
//     always survive — tests/obs_metrics_test.cpp pins that);
//   * timestamps are monotonic nanoseconds since process start
//     (steady_clock — never wall time, so spans order correctly
//     across NTP steps).
//
// The whole layer compiles to nothing under BAT_OBS_OFF (the
// bench/obs_overhead baseline); an untraced thread (current_trace()
// == 0) pays one thread-local read + branch per ScopedSpan.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bat::obs {

class Histogram;

struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t seq = 0;       // global record order (tie-break)
  std::uint64_t start_ns = 0;  // monotonic, since process start
  std::uint64_t end_ns = 0;
  std::string name;    // static site name ("evaluate", "journal.result")
  std::string detail;  // free-form ("kernel=pnpoly", "configs=8")
};

/// Bounded lock-striped span ring. Capacity is split evenly over the
/// stripes; record() round-robins stripes so concurrent recorders
/// rarely share a mutex, and each stripe overwrites its own oldest.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 8192, std::size_t stripes = 8);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void record(Span span);

  /// Every surviving span of `trace_id`, sorted by (start_ns, seq).
  [[nodiscard]] std::vector<Span> for_trace(std::uint64_t trace_id) const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }
  /// Spans overwritten by wraparound (recorded - retained).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::vector<Span> ring;   // capacity_/stripes slots, lazily grown
    std::size_t next = 0;     // overwrite cursor once full
    std::size_t slots = 0;    // fixed bound for this stripe
  };

  std::size_t capacity_;
  std::vector<Stripe> stripes_;
  std::atomic<std::uint64_t> round_robin_{0};
  std::atomic<std::uint64_t> seq_{1};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// The process-wide span ring every instrumented call site records
/// into (sized for the newest few thousand spans; a scrape-time
/// consumer reads per-trace timelines out of it).
[[nodiscard]] TraceBuffer& trace_buffer();

/// Fresh nonzero trace id (process-wide monotonic counter).
[[nodiscard]] std::uint64_t mint_trace_id() noexcept;

/// Monotonic nanoseconds since process start (steady_clock).
[[nodiscard]] std::uint64_t monotonic_now_ns() noexcept;

/// The calling thread's active trace id; 0 = untraced.
[[nodiscard]] std::uint64_t current_trace() noexcept;

/// RAII: makes `id` the calling thread's active trace, restoring the
/// previous one on destruction (scopes nest).
class TraceScope {
 public:
  explicit TraceScope(std::uint64_t id) noexcept;
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
#ifndef BAT_OBS_OFF
  std::uint64_t prev_;
#endif
};

/// RAII span around a scope: records [construction, destruction) into
/// trace_buffer() under the thread's active trace. Free when the
/// thread is untraced (one TLS read + branch, no clock call).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  /// Also observes the scope's duration (seconds) into `duration_s` at
  /// destruction — always, traced or not: metrics never depend on
  /// which requests happen to be traced. One clock pair serves both
  /// the histogram and the span, so instrumented hot paths (the HTTP
  /// per-request wrapper) pay two clock reads, not four.
  ScopedSpan(const char* name, Histogram* duration_s) noexcept;
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when the span will be recorded — guard any detail-string
  /// construction behind it so untraced hot paths never allocate.
  [[nodiscard]] bool active() const noexcept {
#ifndef BAT_OBS_OFF
    return trace_ != 0;
#else
    return false;
#endif
  }
  void set_detail(std::string detail) {
#ifndef BAT_OBS_OFF
    if (trace_ != 0) detail_ = std::move(detail);
#else
    (void)detail;
#endif
  }

 private:
#ifndef BAT_OBS_OFF
  std::uint64_t trace_ = 0;
  std::uint64_t start_ns_ = 0;
  const char* name_ = nullptr;
  Histogram* duration_ = nullptr;
  std::string detail_;
#endif
};

/// One span for a run of consecutive short scopes at one site, where a
/// ScopedSpan each would cost a good share of the work it times: a
/// sequential tuner's one-config backend batches take about 1us each,
/// and a recorded span costs two ~50ns clock reads plus the ring
/// insert. The first add() on a traced thread opens the run (one clock
/// read); close(), or destruction, records [open, close) under the
/// trace that was active at open, with detail "<detail_prefix><adds>".
/// The span also covers the caller's own work between the scopes: it
/// places the run on the timeline, it does not price each scope.
class SpanRun {
 public:
  SpanRun(const char* name, const char* detail_prefix) noexcept;
  ~SpanRun();

  SpanRun(const SpanRun&) = delete;
  SpanRun& operator=(const SpanRun&) = delete;

  /// Counts one scope into the run, opening it if the thread is traced
  /// and no run is open. Untraced: one TLS read + branch.
  void add() noexcept;
  /// Records the open run, if any, and starts over.
  void close();

 private:
#ifndef BAT_OBS_OFF
  const char* name_;
  const char* detail_prefix_;
  std::uint64_t trace_ = 0;  // nonzero while a run is open
  std::uint64_t start_ns_ = 0;
  std::uint64_t adds_ = 0;
#endif
};

}  // namespace bat::obs
