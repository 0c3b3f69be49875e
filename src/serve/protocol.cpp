#include "serve/protocol.hpp"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "obs/json.hpp"

namespace eva::serve {

namespace {

/// Minimal recursive-descent-free scanner for one flat JSON object.
/// Accepts string / number / true / false / null values only; nesting is
/// a parse error (the protocol is intentionally flat). A `reply` scanner
/// reads what our own writers send back instead: strings are bounded
/// only by the line, and a nested object or array is kept as raw text.
class FlatJsonScanner {
 public:
  explicit FlatJsonScanner(std::string_view s, bool reply = false)
      : s_(s), reply_(reply) {}

  struct Field {
    std::string key;
    enum class Kind { kString, kNumber, kBool, kNull, kNested } kind =
        Kind::kNull;
    std::string str;
    double num = 0.0;
    bool b = false;
  };

  /// Drives the scan; calls on_field for each key/value pair. Returns
  /// false with err_ set on malformed input.
  template <class Fn>
  bool scan(Fn on_field) {
    skip_ws();
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return finish();
    for (;;) {
      Field f;
      if (!parse_string(f.key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      if (!parse_value(f)) return false;
      on_field(f);
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume('}')) return finish();
      return fail("expected ',' or '}'");
    }
  }

  [[nodiscard]] const std::string& error() const { return err_; }

 private:
  bool finish() {
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing bytes after object");
    return true;
  }

  bool fail(const char* why) {
    if (err_.empty()) err_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out, std::size_t max_len = kMaxString) {
    if (!consume('"')) return fail("expected string");
    if (reply_) max_len = s_.size();
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return fail("dangling escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // Only BMP escapes; decoded to '?' — the protocol's string
            // fields are ASCII identifiers, not free text.
            if (pos_ + 4 > s_.size()) return fail("bad \\u escape");
            pos_ += 4;
            out += '?';
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
      if (out.size() > max_len) return fail("string too long");
    }
    return fail("unterminated string");
  }

  bool parse_value(Field& f) {
    if (pos_ >= s_.size()) return fail("missing value");
    const char c = s_[pos_];
    if (c == '"') {
      f.kind = Field::Kind::kString;
      // A cache_put payload is a whole response, not an identifier: it
      // gets the large bound, every other string keeps the tight one.
      return parse_string(f.str,
                          f.key == "value" ? kMaxCacheValue : kMaxString);
    }
    if (c == '{' || c == '[') {
      if (!reply_) return fail("nested values not allowed");
      return parse_nested(f);
    }
    if (s_.substr(pos_, 4) == "true") {
      f.kind = Field::Kind::kBool;
      f.b = true;
      pos_ += 4;
      return true;
    }
    if (s_.substr(pos_, 5) == "false") {
      f.kind = Field::Kind::kBool;
      f.b = false;
      pos_ += 5;
      return true;
    }
    if (s_.substr(pos_, 4) == "null") {
      f.kind = Field::Kind::kNull;
      pos_ += 4;
      return true;
    }
    // Number.
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string num(s_.substr(start, pos_ - start));
    char* end = nullptr;
    f.num = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return fail("malformed number");
    f.kind = Field::Kind::kNumber;
    return true;
  }

  /// One nested object or array, strings and all, kept as raw text.
  bool parse_nested(Field& f) {
    const std::size_t start = pos_;
    std::string skipped;
    for (int depth = 0; pos_ < s_.size();) {
      const char c = s_[pos_];
      if (c == '"') {
        if (!parse_string(skipped)) return false;
        continue;
      }
      ++pos_;
      if (c == '{' || c == '[') ++depth;
      if ((c == '}' || c == ']') && --depth == 0) {
        f.kind = Field::Kind::kNested;
        f.str = std::string(s_.substr(start, pos_ - start));
        return true;
      }
    }
    return fail("unterminated nested value");
  }

  static constexpr std::size_t kMaxString = 256;
  std::string_view s_;
  bool reply_;
  std::size_t pos_ = 0;
  std::string err_;
};

/// Lowercased alphanumerics only, so "Op-Amp", "opamp" and "OPAMP" all
/// name the same type over the wire.
std::string normalize_type(std::string_view name) {
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

std::optional<circuit::CircuitType> parse_type(std::string_view name) {
  const std::string want = normalize_type(name);
  if (want.empty()) return std::nullopt;
  for (int i = 0; i < circuit::kNumCircuitTypes; ++i) {
    const auto t = static_cast<circuit::CircuitType>(i);
    if (normalize_type(circuit::type_name(t)) == want) return t;
  }
  return std::nullopt;
}

/// Wire numbers are doubles, and converting one outside the target
/// type's range is undefined: clamp first. NaN maps to the minimum.
template <class Int>
Int clamp_cast(double v) {
  using Lim = std::numeric_limits<Int>;
  if (!(v > static_cast<double>(Lim::min()))) return Lim::min();
  if (v >= static_cast<double>(Lim::max()) + 1.0) return Lim::max();
  return static_cast<Int>(v);
}

std::optional<Priority> parse_priority(std::string_view name) {
  if (name == "high") return Priority::kHigh;
  if (name == "normal") return Priority::kNormal;
  if (name == "low") return Priority::kLow;
  return std::nullopt;
}

}  // namespace

std::optional<ParsedLine> parse_line(std::string_view line,
                                     std::string* error) {
  ParsedLine out;
  Request& req = out.req;
  std::string field_err;
  FlatJsonScanner scanner(line);
  const bool ok = scanner.scan([&](const FlatJsonScanner::Field& f) {
    using Kind = FlatJsonScanner::Field::Kind;
    if (f.key == "cmd" && f.kind == Kind::kString) {
      if (f.str == "stats") {
        out.kind = ParsedLine::Kind::kStats;
      } else if (f.str == "generate") {
        out.kind = ParsedLine::Kind::kGenerate;
      } else if (f.str == "cache_get") {
        out.kind = ParsedLine::Kind::kCacheGet;
      } else if (f.str == "cache_put") {
        out.kind = ParsedLine::Kind::kCachePut;
      } else if (field_err.empty()) {
        field_err = "unknown cmd: " + f.str;
      }
    } else if (f.key == "key" && f.kind == Kind::kString) {
      out.key = f.str;
    } else if (f.key == "value" && f.kind == Kind::kString) {
      out.value = f.str;
    } else if (f.key == "type" && f.kind == Kind::kString) {
      if (const auto t = parse_type(f.str)) {
        req.type = *t;
      } else if (field_err.empty()) {
        field_err = "unknown circuit type: " + f.str;
      }
    } else if (f.key == "n" && f.kind == Kind::kNumber) {
      req.n = clamp_cast<int>(f.num);
    } else if (f.key == "temperature" && f.kind == Kind::kNumber) {
      req.temperature = static_cast<float>(f.num);
    } else if (f.key == "deadline_ms" && f.kind == Kind::kNumber) {
      req.deadline_ms = f.num;
    } else if (f.key == "priority" && f.kind == Kind::kString) {
      if (const auto p = parse_priority(f.str)) {
        req.priority = *p;
      } else if (field_err.empty()) {
        field_err = "unknown priority: " + f.str;
      }
    } else if (f.key == "seed" && f.kind == Kind::kNumber) {
      // Negative seeds select the service stream (0). Seeds at or above
      // 2^64 saturate, so a client asking for a fixed seed gets one.
      req.seed = clamp_cast<std::uint64_t>(f.num);
    }
    // Unknown keys are ignored (forward compatibility).
  });
  if (!ok || !field_err.empty()) {
    if (error) *error = field_err.empty() ? scanner.error() : field_err;
    return std::nullopt;
  }
  if (out.kind == ParsedLine::Kind::kGenerate && req.n < 1) {
    if (error) *error = "n must be >= 1";
    return std::nullopt;
  }
  if ((out.kind == ParsedLine::Kind::kCacheGet ||
       out.kind == ParsedLine::Kind::kCachePut) &&
      out.key.empty()) {
    if (error) *error = "cache command needs a key";
    return std::nullopt;
  }
  if (out.kind == ParsedLine::Kind::kCachePut && out.value.empty()) {
    if (error) *error = "cache_put needs a value";
    return std::nullopt;
  }
  return out;
}

std::optional<Request> parse_request(std::string_view line,
                                     std::string* error) {
  const auto parsed = parse_line(line, error);
  if (!parsed) return std::nullopt;
  if (parsed->kind != ParsedLine::Kind::kGenerate) {
    if (error) *error = "not a generation request";
    return std::nullopt;
  }
  return parsed->req;
}

std::string item_to_json(const Item& item, std::uint64_t request_id) {
  std::string out = "{\"request_id\": ";
  obs::json_number_into(out, static_cast<std::int64_t>(request_id));
  out += ", \"netlist\": ";
  obs::json_string_into(out, item.netlist);
  out += ", \"decoded\": ";
  out += item.decoded ? "true" : "false";
  out += ", \"valid\": ";
  out += item.valid ? "true" : "false";
  out += ", \"fom\": ";
  obs::json_number_into(out, item.fom);
  out += ", \"cached\": ";
  out += item.cached ? "true" : "false";
  out += "}";
  return out;
}

std::string done_to_json(const Response& r) {
  std::string out = "{\"done\": true, \"status\": ";
  obs::json_string_into(out, status_name(r.status));
  out += ", \"request_id\": ";
  obs::json_number_into(out,
                        static_cast<std::int64_t>(r.timeline.request_id));
  out += ", \"items\": ";
  obs::json_number_into(out, static_cast<std::int64_t>(r.items.size()));
  out += ", \"latency_ms\": ";
  obs::json_number_into(out, r.latency_ms);
  if (r.status == Status::kRejected) {
    out += ", \"retry_after_ms\": ";
    obs::json_number_into(out, r.retry_after_ms);
  }
  // Stage attribution travels on every scheduled terminator (ok: all
  // stages; timeout: the queue wait that consumed the budget).
  // Rejected/shutdown never entered the queue — no stages to report.
  if (r.status == Status::kOk || r.status == Status::kTimeout) {
    out += ", \"tokens\": ";
    obs::json_number_into(out, r.timeline.tokens);
    out += ", \"stages\": {\"queue_ms\": ";
    obs::json_number_into(out, r.timeline.ms(Stage::kQueue));
    out += ", \"decode_ms\": ";
    obs::json_number_into(out, r.timeline.ms(Stage::kDecode));
    out += ", \"cache_ms\": ";
    obs::json_number_into(out, r.timeline.ms(Stage::kCache));
    out += ", \"verify_ms\": ";
    obs::json_number_into(out, r.timeline.ms(Stage::kVerify));
    out += "}";
  }
  out += "}";
  return out;
}

std::string bad_request_json(std::string_view error) {
  std::string out = "{\"done\": true, \"status\": \"bad_request\", \"error\": ";
  obs::json_string_into(out, error);
  out += "}";
  return out;
}

std::optional<Terminator> read_terminator(std::string_view line) {
  using Kind = FlatJsonScanner::Field::Kind;
  Terminator t;
  bool done = false;
  std::string stages;
  FlatJsonScanner scanner(line, /*reply=*/true);
  const bool ok = scanner.scan([&](const FlatJsonScanner::Field& f) {
    if (f.key == "done" && f.kind == Kind::kBool) {
      done = f.b;
    } else if (f.key == "status" && f.kind == Kind::kString) {
      t.status = f.str;
    } else if (f.key == "stages" && f.kind == Kind::kNested) {
      stages = f.str;
    } else if (f.kind == Kind::kNumber) {
      if (f.key == "retry_after_ms") t.retry_after_ms = f.num;
      if (f.key == "latency_ms") t.latency_ms = f.num;
      if (f.key == "tokens") t.tokens = f.num;
    }
  });
  if (!ok || !done) return std::nullopt;
  if (!stages.empty()) {
    Terminator::Stages st;
    FlatJsonScanner(stages).scan([&](const FlatJsonScanner::Field& f) {
      if (f.key == "queue_ms") st.queue_ms = f.num;
      if (f.key == "decode_ms") st.decode_ms = f.num;
      if (f.key == "cache_ms") st.cache_ms = f.num;
      if (f.key == "verify_ms") st.verify_ms = f.num;
    });
    t.stages = st;
  }
  return t;
}

ResponseEnd read_response(
    net::LineReader& in, net::Clock::time_point deadline,
    const std::function<void(const std::string&)>& on_line,
    Terminator* done) {
  std::string line;
  for (;;) {
    const auto rc = in.read_line(line, deadline);
    if (rc == net::LineReader::Result::kTimeout) return ResponseEnd::kTimeout;
    if (rc != net::LineReader::Result::kLine) return ResponseEnd::kClosed;
    if (line.empty()) continue;
    if (line.front() != '{' || line.back() != '}') return ResponseEnd::kTorn;
    on_line(line);
    if (auto t = read_terminator(line)) {
      if (done) *done = std::move(*t);
      return ResponseEnd::kDone;
    }
  }
}

}  // namespace eva::serve
