// Minimal leveled, structured logging.  The library itself logs only
// through this interface so applications can silence or redirect
// diagnostics.
//
// Two shapes: free-form `log(level, message)` for one-off lines, and
// structured `log_kv(level, event, {fields...})` which renders
// `event key=value ...` — the form every long-running tool (the shard
// server) uses so lines stay grep- and machine-friendly.  Either
// way a line is assembled in full and handed to the OS in a single
// write, so concurrent threads never interleave mid-line.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

namespace cpsinw::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the global minimum level that is emitted (default: kWarn, so the
/// library is quiet unless something is wrong).
void set_log_level(LogLevel level);

/// Returns the current global minimum level.
[[nodiscard]] LogLevel log_level();

/// Parses a --log-level flag value ("debug", "info", "warn", "error").
/// Returns false (and leaves `out` untouched) on anything else.
[[nodiscard]] bool parse_log_level(const std::string& text, LogLevel* out);

/// Emits a message to stderr when `level` >= the global minimum.
void log(LogLevel level, const std::string& message);

/// Convenience wrappers.
void log_debug(const std::string& message);
void log_info(const std::string& message);
void log_warn(const std::string& message);
void log_error(const std::string& message);

/// One key=value pair of a structured log line.  Values are formatted at
/// the call site by the constructors; anything containing spaces,
/// quotes, or '=' is double-quoted (with '\\' escapes) on output so
/// lines stay unambiguous to split.
struct LogField {
  std::string key;
  std::string value;

  LogField(std::string k, std::string v)
      : key(std::move(k)), value(std::move(v)) {}
  LogField(std::string k, const char* v) : key(std::move(k)), value(v) {}
  LogField(std::string k, bool v)
      : key(std::move(k)), value(v ? "true" : "false") {}
  LogField(std::string k, int v)
      : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, long v)
      : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, long long v)
      : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, unsigned v)
      : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, unsigned long v)
      : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, unsigned long long v)
      : key(std::move(k)), value(std::to_string(v)) {}
  LogField(std::string k, double v);
};

/// Emits `[cpsinw:LEVEL] event key=value ...` as one atomic stderr write
/// when `level` >= the global minimum.
void log_kv(LogLevel level, const std::string& event,
            std::initializer_list<LogField> fields);

}  // namespace cpsinw::util
