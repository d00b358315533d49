// Minimal leveled logger.
//
// Experiments normally run with level `kWarn` to keep benchmark output
// clean; tests raise it when debugging.
#pragma once

#include <sstream>
#include <string>

namespace brisa::util {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Process-wide logging configuration. Not thread-safe by design: the
/// simulation is single-threaded and experiments configure logging up-front.
class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }
  [[nodiscard]] bool enabled(LogLevel level) const { return level >= level_; }

  void write(LogLevel level, const char* component, const std::string& text);

 private:
  Logger() = default;

  LogLevel level_ = LogLevel::kWarn;
};

namespace detail {

class LogLine {
 public:
  LogLine(LogLevel level, const char* component)
      : level_(level), component_(component) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { Logger::instance().write(level_, component_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* component_;
  std::ostringstream stream_;
};

}  // namespace detail

}  // namespace brisa::util

#define BRISA_LOG(level, component)                                 \
  if (!::brisa::util::Logger::instance().enabled(level)) {          \
  } else                                                            \
    ::brisa::util::detail::LogLine(level, component)

#define BRISA_TRACE(component) BRISA_LOG(::brisa::util::LogLevel::kTrace, component)
#define BRISA_DEBUG(component) BRISA_LOG(::brisa::util::LogLevel::kDebug, component)
#define BRISA_INFO(component) BRISA_LOG(::brisa::util::LogLevel::kInfo, component)
#define BRISA_WARN(component) BRISA_LOG(::brisa::util::LogLevel::kWarn, component)
#define BRISA_ERROR(component) BRISA_LOG(::brisa::util::LogLevel::kError, component)
