#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace bat::obs {

namespace {

#ifndef BAT_OBS_OFF
thread_local std::uint64_t t_current_trace = 0;
#endif

std::atomic<std::uint64_t>& trace_id_counter() {
  static std::atomic<std::uint64_t> counter{1};
  return counter;
}

std::chrono::steady_clock::time_point process_start() {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}

/// Touch the anchor at static-init time so "since process start" is
/// close to literal even if the first span is recorded hours in.
[[maybe_unused]] const auto anchor_init = process_start();

}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity, std::size_t stripes)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      stripes_(std::clamp<std::size_t>(stripes, 1, capacity_)) {
  const std::size_t per = capacity_ / stripes_.size();
  const std::size_t extra = capacity_ % stripes_.size();
  for (std::size_t i = 0; i < stripes_.size(); ++i) {
    stripes_[i].slots = per + (i < extra ? 1 : 0);
    stripes_[i].ring.reserve(stripes_[i].slots);
  }
}

void TraceBuffer::record(Span span) {
  span.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t i =
      round_robin_.fetch_add(1, std::memory_order_relaxed) % stripes_.size();
  Stripe& stripe = stripes_[i];
  std::lock_guard lock(stripe.mutex);
  if (stripe.ring.size() < stripe.slots) {
    stripe.ring.push_back(std::move(span));
    return;
  }
  stripe.ring[stripe.next] = std::move(span);  // overwrite the oldest
  stripe.next = (stripe.next + 1) % stripe.slots;
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Span> TraceBuffer::for_trace(std::uint64_t trace_id) const {
  std::vector<Span> out;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard lock(stripe.mutex);
    for (const Span& span : stripe.ring) {
      if (span.trace_id == trace_id) out.push_back(span);
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.seq < b.seq;
  });
  return out;
}

TraceBuffer& trace_buffer() {
  static TraceBuffer buffer;
  return buffer;
}

std::uint64_t mint_trace_id() noexcept {
  return trace_id_counter().fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t monotonic_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_start())
          .count());
}

std::uint64_t current_trace() noexcept {
#ifndef BAT_OBS_OFF
  return t_current_trace;
#else
  return 0;
#endif
}

TraceScope::TraceScope(std::uint64_t id) noexcept
#ifndef BAT_OBS_OFF
    : prev_(t_current_trace) {
  t_current_trace = id;
}
#else
{
  (void)id;
}
#endif

TraceScope::~TraceScope() {
#ifndef BAT_OBS_OFF
  t_current_trace = prev_;
#endif
}

ScopedSpan::ScopedSpan(const char* name) noexcept {
#ifndef BAT_OBS_OFF
  trace_ = t_current_trace;
  if (trace_ != 0) {
    name_ = name;
    start_ns_ = monotonic_now_ns();
  }
#else
  (void)name;
#endif
}

ScopedSpan::ScopedSpan(const char* name, Histogram* duration_s) noexcept {
#ifndef BAT_OBS_OFF
  trace_ = t_current_trace;
  duration_ = duration_s;
  if (trace_ != 0 || duration_ != nullptr) {
    name_ = name;
    start_ns_ = monotonic_now_ns();
  }
#else
  (void)name;
  (void)duration_s;
#endif
}

ScopedSpan::~ScopedSpan() {
#ifndef BAT_OBS_OFF
  if (trace_ == 0 && duration_ == nullptr) return;
  const std::uint64_t end_ns = monotonic_now_ns();
  if (duration_ != nullptr) {
    duration_->observe(static_cast<double>(end_ns - start_ns_) / 1e9);
  }
  if (trace_ == 0) return;
  Span span;
  span.trace_id = trace_;
  span.start_ns = start_ns_;
  span.end_ns = end_ns;
  span.name = name_;
  span.detail = std::move(detail_);
  trace_buffer().record(std::move(span));
#endif
}

SpanRun::SpanRun(const char* name, const char* detail_prefix) noexcept
#ifndef BAT_OBS_OFF
    : name_(name), detail_prefix_(detail_prefix) {
}
#else
{
  (void)name;
  (void)detail_prefix;
}
#endif

SpanRun::~SpanRun() {
#ifndef BAT_OBS_OFF
  try {
    close();
  } catch (const std::exception& e) {
    // A span is telemetry: failing to record one must not end the
    // session that owns the run.
    common::log_error("trace: dropped a ", name_, " span run: ", e.what());
  }
#endif
}

void SpanRun::add() noexcept {
#ifndef BAT_OBS_OFF
  if (trace_ == 0) {
    trace_ = t_current_trace;
    if (trace_ == 0) return;
    start_ns_ = monotonic_now_ns();
  }
  ++adds_;
#endif
}

void SpanRun::close() {
#ifndef BAT_OBS_OFF
  if (trace_ == 0) return;
  Span span;
  span.trace_id = trace_;
  span.start_ns = start_ns_;
  span.end_ns = monotonic_now_ns();
  span.name = name_;
  span.detail = detail_prefix_ + std::to_string(adds_);
  trace_ = 0;
  adds_ = 0;
  trace_buffer().record(std::move(span));
#endif
}

}  // namespace bat::obs
