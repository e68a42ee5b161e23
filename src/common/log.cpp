#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

#include "common/string_util.hpp"

namespace bat::common {

namespace {

std::atomic<LogLevel>& level_storage() {
  static std::atomic<LogLevel> level = [] {
    if (const char* env = std::getenv("BAT_LOG_LEVEL")) {
      if (const auto parsed = parse_log_level(env)) return *parsed;
    }
    return LogLevel::kInfo;
  }();
  return level;
}

/// `msg=` value: quoted, one line per record no matter the payload.
std::string quote_message(const std::string& message) {
  std::string out;
  out.reserve(message.size() + 2);
  out += '"';
  for (char c : message) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
  return out;
}

}  // namespace

LogLevel log_level() { return level_storage().load(std::memory_order_relaxed); }

void set_log_level(LogLevel level) {
  level_storage().store(level, std::memory_order_relaxed);
}

std::optional<LogLevel> parse_log_level(std::string_view text) {
  const std::string v = to_lower(std::string(text));
  if (v == "debug") return LogLevel::kDebug;
  if (v == "info") return LogLevel::kInfo;
  if (v == "warn") return LogLevel::kWarn;
  if (v == "error") return LogLevel::kError;
  if (v == "off") return LogLevel::kOff;
  return std::nullopt;
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

std::string format_log_line(LogLevel level, const std::string& message,
                            std::int64_t unix_ms) {
  const std::time_t secs = static_cast<std::time_t>(unix_ms / 1000);
  const int ms = static_cast<int>(unix_ms % 1000);
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Sized for the worst case the compiler checks: seven ints of up to
  // 11 characters each, seven literal characters and the NUL.
  char ts[7 * 11 + 7 + 1];
  std::snprintf(ts, sizeof ts, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, ms);
  std::string out = "level=";
  out += log_level_name(level);
  out += " ts=";
  out += ts;
  out += " msg=";
  out += quote_message(message);
  return out;
}

namespace {
LogSink& sink_storage() {
  static LogSink sink;
  return sink;
}
}  // namespace

void set_log_sink(LogSink sink) { sink_storage() = std::move(sink); }

void log_message(LogLevel level, const std::string& message) {
  static std::mutex mutex;
  std::lock_guard lock(mutex);
  if (const auto& sink = sink_storage()) {
    sink(level, message);
    return;
  }
  const auto unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::fprintf(stderr, "%s\n",
               format_log_line(level, message, unix_ms).c_str());
}

}  // namespace bat::common
