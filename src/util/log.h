// Minimal leveled logger with a fixed Info threshold. Not a general-purpose
// logging framework by design.
#pragma once

#include <sstream>
#include <string>

namespace socl::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Minimum level (Info); messages below it are dropped.
LogLevel log_level();

/// Emits a single line `[LEVEL] message` to stderr if level passes the
/// threshold. Thread-safe (single formatted write).
void log_message(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream out;
  (out << ... << std::forward<Args>(args));
  return out.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() <= LogLevel::kDebug) {
    log_message(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
  }
}
template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::kInfo) {
    log_message(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
  }
}
template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::kWarn) {
    log_message(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
  }
}
template <typename... Args>
void log_error(Args&&... args) {
  log_message(LogLevel::kError, detail::concat(std::forward<Args>(args)...));
}

}  // namespace socl::util
