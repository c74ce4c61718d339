#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace mbq {

namespace {
/// The minimum level emitted to stderr.
constexpr LogLevel kMinLevel = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
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

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) < static_cast<int>(kMinLevel)) return;
  std::string text = stream_.str();
  std::fprintf(stderr, "%s\n", text.c_str());
}

void CheckFailed(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "[FATAL %s:%d] CHECK failed: %s\n", file, line, expr);
  std::abort();
}

}  // namespace internal_logging
}  // namespace mbq
