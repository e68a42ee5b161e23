// Timing decorators the traced runs put around the program's public
// seams: an evaluation backend (live gpusim model or replay table) and
// the shared measurement cache. They forward every call unchanged —
// traces must stay identical to the untraced service run — and record
// one span per call plus a count of the configurations that crossed.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "core/backend.hpp"
#include "core/shared_cache.hpp"
#include "harness.hpp"

namespace batbench {

class TimedBackend final : public bat::core::EvaluationBackend {
 public:
  /// `span_name` must be a string literal (spans keep the pointer).
  TimedBackend(bat::core::EvaluationBackend& inner, const char* span_name)
      : inner_(&inner), span_name_(span_name) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] const bat::core::SearchSpace& space() const override {
    return inner_->space();
  }
  [[nodiscard]] std::vector<bat::core::Measurement> evaluate_batch(
      std::span<const bat::core::ConfigIndex> indices) override {
    Span span(span_name_);
    configs_.fetch_add(indices.size(), std::memory_order_relaxed);
    return inner_->evaluate_batch(indices);
  }

  /// Configurations evaluated through this decorator.
  [[nodiscard]] std::uint64_t configs() const noexcept {
    return configs_.load();
  }

 private:
  bat::core::EvaluationBackend* inner_;
  const char* span_name_;
  std::atomic<std::uint64_t> configs_{0};
};

class TimedCache final : public bat::core::SharedMeasurementCache {
 public:
  explicit TimedCache(bat::core::SharedMeasurementCache& inner)
      : inner_(&inner) {}

  [[nodiscard]] Claim claim(bat::core::ConfigIndex index) override {
    Span span("service.cache_claim");
    return inner_->claim(index);
  }
  void publish(bat::core::ConfigIndex index,
               const bat::core::Measurement& m) override {
    Span span("service.cache_claim");
    inner_->publish(index, m);
  }
  void abandon(bat::core::ConfigIndex index) override {
    Span span("service.cache_claim");
    inner_->abandon(index);
  }
  [[nodiscard]] std::optional<bat::core::Measurement> wait(
      bat::core::ConfigIndex index) override {
    Span span("service.cache_wait");
    return inner_->wait(index);
  }

 private:
  bat::core::SharedMeasurementCache* inner_;
};

}  // namespace batbench
