#include "util/log.h"

#include <cstdio>

namespace socl::util {
namespace {

constexpr LogLevel kMinLevel = LogLevel::kInfo;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return kMinLevel; }

void log_message(LogLevel level, const std::string& message) {
  if (level < kMinLevel) return;
  std::fprintf(stderr, "[%s] %s\n", level_name(level), message.c_str());
}

}  // namespace socl::util
