// Tiny leveled logger with structured stderr lines.
//
// Emitted lines are logfmt-shaped and machine-greppable:
//
//   level=info ts=2026-08-08T12:34:56.789Z msg="service: sweeping pnpoly ..."
//
// The level is runtime-settable (BAT_LOG_LEVEL env, `tune serve
// --log-level`, or set_log_level()), timestamps are UTC wall time with
// millisecond precision, and the message value is quoted with
// backslash escapes so one line is always one record. Tests install a
// sink (set_log_sink) and receive the raw (level, message) pair —
// formatting applies only on the stderr path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace bat::common {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log level (default kInfo; honors BAT_LOG_LEVEL env on first use).
LogLevel log_level();
void set_log_level(LogLevel level);

/// "debug"/"info"/"warn"/"error"/"off" (case-insensitive) -> level;
/// nullopt for anything else. Shared by the env init and CLI flags.
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view text);

/// The lowercase token for a level ("info"), as emitted in `level=`.
[[nodiscard]] const char* log_level_name(LogLevel level);

/// Emits `message` as a structured stderr line if level >= global level.
void log_message(LogLevel level, const std::string& message);

/// Redirects emitted messages to `sink` instead of stderr (tests assert
/// on diagnostics this way); nullptr restores stderr. Not thread-safe
/// against concurrent log_message calls — install before spawning work.
using LogSink = std::function<void(LogLevel, const std::string&)>;
void set_log_sink(LogSink sink);

/// One finished stderr line (sans trailing newline) for `message` at
/// `level` and `unix_ms` UTC wall-clock milliseconds — the formatting
/// contract, exposed so tests pin it without scraping stderr.
[[nodiscard]] std::string format_log_line(LogLevel level,
                                          const std::string& message,
                                          std::int64_t unix_ms);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream ss;
  (ss << ... << args);
  return ss.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() <= LogLevel::kDebug)
    log_message(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::kInfo)
    log_message(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::kWarn)
    log_message(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_error(Args&&... args) {
  if (log_level() <= LogLevel::kError)
    log_message(LogLevel::kError, detail::concat(std::forward<Args>(args)...));
}

}  // namespace bat::common
