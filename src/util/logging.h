#ifndef MBQ_UTIL_LOGGING_H_
#define MBQ_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace mbq {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

namespace internal_logging {

/// Collects one log statement and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Prints the failed expression to stderr and aborts.
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr);

}  // namespace internal_logging
}  // namespace mbq

/// Usage: MBQ_INFO() << "imported " << n << " nodes";
#define MBQ_LOG_STREAM(level)                                    \
  ::mbq::internal_logging::LogMessage(::mbq::LogLevel::k##level, \
                                      __FILE__, __LINE__)        \
      .stream()

#define MBQ_DEBUG() MBQ_LOG_STREAM(Debug)
#define MBQ_INFO() MBQ_LOG_STREAM(Info)
#define MBQ_WARN() MBQ_LOG_STREAM(Warn)
#define MBQ_ERROR() MBQ_LOG_STREAM(Error)

/// Internal invariant check, active in all build types. Prints the failed
/// expression and aborts; used for programmer errors, never for input
/// validation (which returns Status).
#define MBQ_CHECK(cond)                                               \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::mbq::internal_logging::CheckFailed(__FILE__, __LINE__, #cond); \
    }                                                                 \
  } while (0)

/// MBQ_CHECK that also prints `msg`, a std::string built only on failure,
/// so the abort names what the check caught.
#define MBQ_CHECK_MSG(cond, msg)                                           \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::mbq::internal_logging::CheckFailed(                                \
          __FILE__, __LINE__, (std::string(#cond) + ": " + (msg)).c_str()); \
    }                                                                      \
  } while (0)

#endif  // MBQ_UTIL_LOGGING_H_
