#include "util/logging.h"

#include <cstdio>

namespace brisa::util {

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?????";
}

}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, const char* component,
                   const std::string& text) {
  if (!enabled(level)) return;
  std::fprintf(stderr, "[        -] %s %-12s %s\n", level_name(level),
               component, text.c_str());
}

}  // namespace brisa::util
