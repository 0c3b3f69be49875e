#include "obs/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace eva::obs {

namespace {

struct LogState {
  std::atomic<int> level{static_cast<int>(LogLevel::kInfo)};
  std::atomic<bool> to_stderr{true};
  std::mutex mu;                 // serializes sink writes + file swaps
  std::FILE* file = nullptr;     // JSONL sink (owned)
  std::map<std::string, std::uint64_t, std::less<>> rate_counts;

  LogState() { load_env(); }

  ~LogState() {
    std::lock_guard<std::mutex> lk(mu);
    if (file) std::fclose(file);
  }

  void load_env() {
    if (const char* lv = std::getenv("EVA_LOG_LEVEL")) {
      level.store(static_cast<int>(parse_log_level(lv, LogLevel::kInfo)),
                  std::memory_order_relaxed);
    }
    if (const char* lf = std::getenv("EVA_LOG_FILE")) {
      open_file(lf);
    }
  }

  void open_file(const std::string& path) {
    std::lock_guard<std::mutex> lk(mu);
    if (file) {
      std::fclose(file);
      file = nullptr;
    }
    if (!path.empty()) file = std::fopen(path.c_str(), "a");
  }
};

LogState& state() {
  static LogState s;
  return s;
}

void append_value_text(std::string& out, const LogField& f) {
  switch (f.kind) {
    case LogField::Kind::kInt: out += std::to_string(f.i); break;
    case LogField::Kind::kFloat: json_number_into(out, f.f); break;
    case LogField::Kind::kString: out.append(f.s); break;
  }
}

void append_value_json(std::string& out, const LogField& f) {
  switch (f.kind) {
    case LogField::Kind::kInt: json_number_into(out, f.i); break;
    case LogField::Kind::kFloat: json_number_into(out, f.f); break;
    case LogField::Kind::kString: json_string_into(out, f.s); break;
  }
}

void emit(LogLevel lvl, std::string_view event, LogFields fields,
          const std::uint64_t* rate_count) {
  // Seconds on the obs time axis, so a line lands inside the spans that
  // were open when it was logged.
  const double ts = static_cast<double>(now_us()) / 1e6;
  LogState& s = state();

  std::string line;
  if (s.to_stderr.load(std::memory_order_relaxed)) {
    char head[64];
    std::snprintf(head, sizeof head, "[eva %10.3fs] %-5s ", ts,
                  level_name(lvl));
    line += head;
    line.append(event);
    for (const auto& f : fields) {
      line += ' ';
      line.append(f.key);
      line += '=';
      append_value_text(line, f);
    }
    if (rate_count) line += " count=" + std::to_string(*rate_count);
    line += '\n';
  }

  std::lock_guard<std::mutex> lk(s.mu);
  if (!line.empty()) std::fwrite(line.data(), 1, line.size(), stderr);
  if (!s.file) return;
  // The JSONL record is built only while the file sink is open.
  std::string json = "{\"ts_s\":";
  json_number_into(json, ts);
  json += ",\"level\":\"";
  json += level_name(lvl);
  json += "\",\"event\":";
  json_string_into(json, event);
  for (const auto& f : fields) {
    json += ',';
    json_string_into(json, f.key);
    json += ':';
    append_value_json(json, f);
  }
  if (rate_count) json += ",\"count\":" + std::to_string(*rate_count);
  json += "}\n";
  std::fwrite(json.data(), 1, json.size(), s.file);
  std::fflush(s.file);
}

}  // namespace

LogLevel log_level() {
  return static_cast<LogLevel>(state().level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel lvl) {
  state().level.store(static_cast<int>(lvl), std::memory_order_relaxed);
}

bool log_enabled(LogLevel lvl) {
  return static_cast<int>(lvl) >=
         state().level.load(std::memory_order_relaxed);
}

const char* level_name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

LogLevel parse_log_level(std::string_view name, LogLevel fallback) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return fallback;
}

void log(LogLevel lvl, std::string_view event, LogFields fields) {
  if (lvl == LogLevel::kOff || !log_enabled(lvl)) return;
  emit(lvl, event, fields, nullptr);
}

void log_every_n(LogLevel lvl, std::string_view event, std::uint64_t every,
                 LogFields fields) {
  if (lvl == LogLevel::kOff || !log_enabled(lvl)) return;
  if (every == 0) every = 1;
  std::uint64_t count;
  {
    LogState& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.rate_counts.find(event);
    if (it == s.rate_counts.end()) {
      it = s.rate_counts.emplace(std::string(event), 0).first;
    }
    count = ++it->second;
  }
  if (count != 1 && count % every != 0) return;
  emit(lvl, event, fields, &count);
}

void set_log_file(const std::string& path) { state().open_file(path); }

void set_log_stderr(bool on) {
  state().to_stderr.store(on, std::memory_order_relaxed);
}

void reload_log_env() { state().load_env(); }

}  // namespace eva::obs
