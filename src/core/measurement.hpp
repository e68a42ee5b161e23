// The result of evaluating one configuration on one device — what a real
// tuner gets back from a compile+launch+time cycle.
//
// Plain value type; freely copied across threads.
#pragma once

#include <limits>
#include <string>

namespace bat::core {

enum class MeasureStatus {
  kOk = 0,              // kernel ran; time_ms is meaningful
  kInvalidConstraint,   // static constraints violated (won't compile)
  kInvalidDevice,       // violates device limits (launch failure)
};

struct Measurement {
  double time_ms = std::numeric_limits<double>::infinity();
  MeasureStatus status = MeasureStatus::kInvalidConstraint;

  [[nodiscard]] bool ok() const noexcept {
    return status == MeasureStatus::kOk;
  }

  /// Minimization objective: invalid configs are +inf so every tuner
  /// naturally avoids them without special-casing.
  [[nodiscard]] double objective() const noexcept {
    return ok() ? time_ms : std::numeric_limits<double>::infinity();
  }

  [[nodiscard]] static Measurement valid(double time_ms_value) noexcept {
    return Measurement{time_ms_value, MeasureStatus::kOk};
  }
  [[nodiscard]] static Measurement invalid(MeasureStatus s) noexcept {
    return Measurement{std::numeric_limits<double>::infinity(), s};
  }
};

[[nodiscard]] inline std::string to_string(MeasureStatus s) {
  switch (s) {
    case MeasureStatus::kOk: return "ok";
    case MeasureStatus::kInvalidConstraint: return "invalid_constraint";
    case MeasureStatus::kInvalidDevice: return "invalid_device";
  }
  return "unknown";
}

}  // namespace bat::core
