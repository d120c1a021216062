#include "util/logging.hpp"

#include <cstdio>
#include <utility>

#include "util/mutex.hpp"

namespace seneca::util {

namespace {
// Serializes both the writes themselves (no interleaved lines) and the
// sink swap: set_log_sink racing log_message would otherwise read a
// std::function mid-assignment.
Mutex g_log_mutex;
LogSink g_sink GUARDED_BY(g_log_mutex);

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?????";
  }
}
}  // namespace

void set_log_sink(LogSink sink) {
  LockGuard lock(g_log_mutex);
  g_sink = std::move(sink);
}

void log_message(LogLevel level, const std::string& msg) {
  LockGuard lock(g_log_mutex);
  if (g_sink) {
    g_sink(level, msg);
    return;
  }
  std::fprintf(level >= LogLevel::kWarn ? stderr : stdout, "[seneca %s] %s\n",
               level_tag(level), msg.c_str());
}

}  // namespace seneca::util
