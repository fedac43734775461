// Lightweight leveled logging.
//
// The runtime and benches log object lifecycle events (creation, evolution,
// rebinds). Logging defaults to kWarning so tests and benchmarks stay quiet;
// examples raise it to kInfo to narrate what the system is doing.
//
// A line below the level costs one level check: DCDO_LOG tests the level
// before it builds a LogLine, so neither the stream nor the operands of a
// suppressed line are ever evaluated.
#pragma once

#include <sstream>
#include <string>

namespace dcdo {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Process-wide minimum level; messages below it are discarded.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Emits one formatted line to stderr (thread-safe).
void LogMessage(LogLevel level, const std::string& message);

namespace internal {
// One line at or above the level, emitted when the statement ends.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { LogMessage(level_, stream_.str()); }
  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Turns the streamed LogLine into void, so both arms of DCDO_LOG's
// conditional have one type. `&` binds looser than `<<`, so the whole
// stream chain is its operand.
struct LogVoidify {
  void operator&(const LogLine&) {}
};
}  // namespace internal

// Usable anywhere a statement is, including an unbraced if/else.
#define DCDO_LOG(level)                                          \
  (::dcdo::LogLevel::level < ::dcdo::GetLogLevel())              \
      ? (void)0                                                  \
      : ::dcdo::internal::LogVoidify() &                         \
            ::dcdo::internal::LogLine(::dcdo::LogLevel::level)

}  // namespace dcdo
