// Structured, thread-safe logging for the EVA engine.
//
// Every call site emits an *event* (a short dotted name like
// "pretrain.step") plus typed key=value fields — no printf-style format
// strings, so the same call renders both as a human-readable stderr line
//
//   [eva 12.431s] INFO  pretrain.step step=25 loss=2.314 tok_s=18234
//
// and, when EVA_LOG_FILE is set, as one JSON object per line (JSONL)
//
//   {"ts_s":12.431,"level":"info","event":"pretrain.step","step":25,...}
//
// Both timestamps are seconds on obs::now_us()'s axis (trace.hpp), so a
// line falls inside the spans that were open when it was logged.
//
// Environment control (read once at first use; reload_log_env() re-reads
// for tests):
//   EVA_LOG_LEVEL  trace|debug|info|warn|error|off   (default: info)
//   EVA_LOG_FILE   path of the JSONL sink            (default: none)
//
// Calls below the active level cost one relaxed atomic load. All sinks
// are serialized on an internal mutex, so concurrent workers (the
// parallel_for pool) can log without interleaving lines.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>

namespace eva::obs {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// One typed key=value pair attached to a log event. Implicitly
/// constructible from integral, floating-point and string-ish values so
/// call sites can write {{"step", step}, {"loss", loss}}.
struct LogField {
  enum class Kind { kInt, kFloat, kString };

  template <class T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  LogField(std::string_view k, T v)
      : key(k), kind(Kind::kInt), i(static_cast<std::int64_t>(v)) {}

  template <class T, std::enable_if_t<std::is_floating_point_v<T>, int> = 0>
  LogField(std::string_view k, T v)
      : key(k), kind(Kind::kFloat), f(static_cast<double>(v)) {}

  LogField(std::string_view k, std::string_view v)
      : key(k), kind(Kind::kString), s(v) {}
  LogField(std::string_view k, const char* v)
      : key(k), kind(Kind::kString), s(v) {}

  std::string_view key;
  Kind kind;
  std::int64_t i = 0;
  double f = 0.0;
  std::string_view s{};
};

using LogFields = std::initializer_list<LogField>;

[[nodiscard]] LogLevel log_level();
void set_log_level(LogLevel lvl);
[[nodiscard]] bool log_enabled(LogLevel lvl);

[[nodiscard]] const char* level_name(LogLevel lvl);
/// Parse "debug", "WARN", ... ; returns `fallback` for anything else.
[[nodiscard]] LogLevel parse_log_level(std::string_view name,
                                       LogLevel fallback);

/// Emit one event. No-op (cheaply) below the active level.
void log(LogLevel lvl, std::string_view event, LogFields fields = {});

inline void log_debug(std::string_view event, LogFields fields = {}) {
  log(LogLevel::kDebug, event, fields);
}
inline void log_info(std::string_view event, LogFields fields = {}) {
  log(LogLevel::kInfo, event, fields);
}
inline void log_warn(std::string_view event, LogFields fields = {}) {
  log(LogLevel::kWarn, event, fields);
}
inline void log_error(std::string_view event, LogFields fields = {}) {
  log(LogLevel::kError, event, fields);
}

/// Rate-limited emission keyed by `event`: occurrence 1 is logged, then
/// every `every`-th. A "count" field carrying the total number of
/// occurrences so far is appended automatically. Use for per-item
/// failure paths (e.g. SPICE non-convergence) that would otherwise spam.
void log_every_n(LogLevel lvl, std::string_view event, std::uint64_t every,
                 LogFields fields = {});

/// Point the JSONL sink at `path` (append). An empty path closes it.
void set_log_file(const std::string& path);

/// Mirror-to-stderr control (on by default). Tests and benches that own
/// stdout/stderr formatting can turn the console sink off and keep the
/// JSONL sink.
void set_log_stderr(bool on);

/// Re-read EVA_LOG_LEVEL / EVA_LOG_FILE. For tests.
void reload_log_env();

}  // namespace eva::obs
