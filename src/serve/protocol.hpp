// Wire protocol of the serving front end (DESIGN.md §10): JSON-lines
// over a byte stream. One request object per line:
//
//   {"type":"OpAmp","n":4,"temperature":0.9,"deadline_ms":500,
//    "priority":"high","seed":42}
//
// (every field optional; defaults: OpAmp, n=1, T=1.0, no deadline,
// normal priority, service-stream seed). The server answers with one
// JSON line per generated topology, each echoing the request id
//
//   {"request_id":17,"netlist":"M1 ...","decoded":true,"valid":true,
//    "fom":231.8,"cached":false}
//
// followed by exactly one terminator line carrying the request status,
// id, and the per-stage latency attribution (RequestTimeline):
//
//   {"done":true,"status":"ok","request_id":17,"items":4,
//    "latency_ms":12.7,"tokens":188,
//    "stages":{"queue_ms":0.4,"decode_ms":10.9,"cache_ms":0.1,
//              "verify_ms":1.2}}
//   {"done":true,"status":"rejected","request_id":18,"items":0,
//    "latency_ms":0.0,"retry_after_ms":50}
//
// An introspection command {"cmd":"stats"} (serve/stats.hpp) answers
// with a single terminator line carrying the live metrics snapshot.
// Malformed request lines — including unknown "cmd" values — get
// {"done":true,"status":"bad_request","error":"..."} and the connection
// stays open. The parser accepts only flat objects (no nesting) — the
// protocol never needs more, and a bounded grammar is the right posture
// for untrusted input.
//
// The shared-cache tier (serve/sidecar.hpp) speaks the same JSON-lines
// grammar with two more commands, answered only by the sidecar process
// (a replica or the router answers them with bad_request):
//
//   {"cmd":"cache_get","key":"t0:n4:T1:s42"}
//   {"cmd":"cache_put","key":"t0:n4:T1:s42","value":"<escaped payload>"}
//
// The "value" string (a whole multi-line response payload, JSON-escaped)
// is the one protocol field allowed to exceed the 256-byte string cap —
// it is bounded by kMaxCacheValue instead.
//
// The client half (read_terminator, read_response) lives next to the
// writers: the router, eva_loadgen and eva_serve_client read through it.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "serve/net.hpp"
#include "serve/service.hpp"

namespace eva::serve {

/// Upper bound on a "value" field (cache_put payload). Anything larger
/// is a parse error; the sidecar additionally refuses to store values
/// near this bound (stored:false) instead of failing the connection.
inline constexpr std::size_t kMaxCacheValue = 1 << 18;

/// What one protocol line asks for: a generation request (the default),
/// a live stats snapshot ({"cmd":"stats"}), or a shared-cache operation
/// ({"cmd":"cache_get"/"cache_put"}, sidecar only).
struct ParsedLine {
  enum class Kind { kGenerate, kStats, kCacheGet, kCachePut };
  Kind kind = Kind::kGenerate;
  Request req;        // meaningful when kind == kGenerate
  std::string key;    // meaningful for cache commands
  std::string value;  // meaningful for kCachePut
};

/// Parse one protocol line. On failure returns nullopt and, when `error`
/// is non-null, a human-readable reason. Never throws.
[[nodiscard]] std::optional<ParsedLine> parse_line(std::string_view line,
                                                   std::string* error);

/// Parse one *generation* request line (parse_line restricted to
/// Kind::kGenerate; a stats command is reported as an error).
[[nodiscard]] std::optional<Request> parse_request(std::string_view line,
                                                   std::string* error);

/// One generated topology as a JSON line (no trailing newline). The
/// request id is echoed so interleaved readers can attribute items.
[[nodiscard]] std::string item_to_json(const Item& item,
                                       std::uint64_t request_id = 0);

/// The request terminator as a JSON line (no trailing newline),
/// carrying the request id and per-stage breakdown from r.timeline.
[[nodiscard]] std::string done_to_json(const Response& r);

/// Terminator for a request that never reached the service (parse
/// failure).
[[nodiscard]] std::string bad_request_json(std::string_view error);

/// What a client reads off a terminator line.
struct Terminator {
  struct Stages {
    double queue_ms = 0.0, decode_ms = 0.0, cache_ms = 0.0, verify_ms = 0.0;
  };
  std::string status;
  std::optional<double> retry_after_ms;  // rejected and unavailable lines
  double latency_ms = 0.0;
  double tokens = 0.0;
  std::optional<Stages> stages;  // ok and timeout lines

  /// A rejected or unavailable answer: the request did no work, and a
  /// client may send it again after retry_after_ms.
  [[nodiscard]] bool backpressure() const {
    return status == "rejected" || status == "unavailable";
  }
};

/// The terminator `line` carries, or nullopt when it is not one (an
/// item line, or not a JSON object). Reads whole replies, nested
/// objects (stats, stages) included.
[[nodiscard]] std::optional<Terminator> read_terminator(std::string_view line);

/// How read_response ended.
enum class ResponseEnd {
  kDone,     // the terminator arrived
  kTorn,     // a line that is not one {...} object
  kTimeout,  // `deadline` passed first
  kClosed,   // EOF, a read error or an over-long line
};

/// Read one response: hand each line, up to and including its
/// terminator, to `on_line`, and the terminator to `*done` when non-null.
/// Empty lines are skipped; a torn line is not handed on. The
/// connection is unusable after anything but kDone.
[[nodiscard]] ResponseEnd read_response(
    net::LineReader& in, net::Clock::time_point deadline,
    const std::function<void(const std::string&)>& on_line,
    Terminator* done = nullptr);

}  // namespace eva::serve
