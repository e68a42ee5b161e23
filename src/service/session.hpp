// TuningSession value types: what you submit to a TuningService and
// what you get back.
//
// A session is one complete tuning run — kernel x tuner x device x
// budget x seed — identical in meaning to a standalone
// tuners::run_tuner call; the service only changes *where* it executes
// (a pooled worker) and where measurements come from (the shared
// per-workload cache). Specs are plain values, copied into the service;
// results come back through the std::future returned by submit().
//
// Thread-safety: SessionSpec/SessionResult are value types; the only
// shared state is a result's immutable encoded bytes. A SessionResult
// is written by exactly one worker and handed off through the future.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/benchmark.hpp"
#include "tuners/tuner.hpp"

namespace bat::service {

/// One tuning workload unit. `backend` selects how the service
/// evaluates: "live" (gpusim model) or "replay" (a registered or
/// service-swept tabular dataset; requires an exhaustively enumerable
/// space or a registered dataset).
struct SessionSpec {
  std::string kernel = "gemm";
  std::string tuner = "local";
  core::DeviceIndex device = 0;
  std::size_t budget = 150;
  std::uint64_t seed = 42;
  std::string backend = "live";
};

enum class SessionStatus {
  kCompleted,  // ran to its natural end (budget exhausted or converged)
  kCancelled,  // stopped at a batch boundary by service shutdown
  kFailed,     // threw (unknown kernel/tuner, bad device, ...)
};

[[nodiscard]] inline const char* to_string(SessionStatus s) {
  switch (s) {
    case SessionStatus::kCompleted: return "completed";
    case SessionStatus::kCancelled: return "cancelled";
    case SessionStatus::kFailed: return "failed";
  }
  return "unknown";
}

struct SessionResult {
  SessionSpec spec;
  SessionStatus status = SessionStatus::kFailed;
  std::string error;      // what() when status == kFailed
  tuners::TuningRun run;  // trace/best; partial when cancelled
  double wall_ms = 0.0;   // execution wall clock (excludes queue wait)
  /// to_json(*this).dump() of the fields above, encoded once by the
  /// service when a tracked session finishes or is restored from the
  /// journal, so GET /v1/sessions/<id> serves these bytes instead of
  /// encoding on every read. Null for untracked results (submit,
  /// run_all, run_inline) and for results built outside the service.
  std::shared_ptr<const std::string> json;
};

}  // namespace bat::service
