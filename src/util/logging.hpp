#pragma once
// Minimal levelled logger. All SENECA libraries log through this so that
// examples, benches and tests can redirect output uniformly.

#include <functional>
#include <sstream>
#include <string>

namespace seneca::util {

enum class LogLevel { kInfo, kWarn, kError };

/// Emit a message (appends '\n'). Thread-safe.
void log_message(LogLevel level, const std::string& msg);

/// Redirects log output; nullptr restores the default stdout/stderr
/// writer. The swap is serialized against concurrent log_message calls
/// (the sink is guarded by the logger's mutex), so a sink installed from
/// one thread is never invoked torn from another.
using LogSink = std::function<void(LogLevel, const std::string&)>;
void set_log_sink(LogSink sink);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, stream_.str()); }
  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::kError); }

}  // namespace seneca::util
