// Shared socket plumbing for the serving fleet (server, router, cache
// sidecar) and its clients (tools/eva_loadgen, tools/eva_serve_client):
// hardened write/read helpers and deadline-aware client connects.
// Everything here is robust against the failure modes the chaos gate
// injects — partial writes, EINTR/EAGAIN, peers that vanish mid-line
// (EPIPE/ECONNRESET), and peers that stall forever.
#pragma once

#include <chrono>
#include <string>
#include <string_view>

namespace eva::serve::net {

using Clock = std::chrono::steady_clock;

/// Ignore SIGPIPE process-wide. A write to a half-closed socket must
/// surface as EPIPE from send(), never as a process-killing signal —
/// every serving binary and client calls this first. Idempotent.
void ignore_sigpipe();

/// Write all of `data`, absorbing EINTR and short writes; on
/// EAGAIN/EWOULDBLOCK waits for writability (bounded by `timeout_ms`
/// per poll, -1 = wait forever). Returns false when the peer is gone
/// (EPIPE/ECONNRESET/...) or the wait timed out.
[[nodiscard]] bool send_all(int fd, std::string_view data,
                            int timeout_ms = -1);

/// send_all of `line` + '\n'.
[[nodiscard]] bool send_line(int fd, std::string_view line,
                             int timeout_ms = -1);

/// Connect to host:port with a bounded wait (non-blocking connect +
/// poll). Returns the connected fd (blocking mode restored) or -1; a
/// port outside 0-65535 is -1 without a connect.
[[nodiscard]] int connect_with_deadline(const std::string& host, int port,
                                        double timeout_ms);

/// connect_with_deadline, tried again every 100 ms until `window_ms`
/// has passed: for a client launched beside its server, which may not
/// be listening yet. Returns the connected fd or -1.
[[nodiscard]] int connect_retrying(const std::string& host, int port,
                                   double window_ms);

/// Buffered '\n'-framed line reader over one fd with an absolute
/// deadline per read_line call. A line longer than `max_line` bytes is
/// treated as a protocol error (the connection is unusable after it).
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_line = 1 << 20)
      : fd_(fd), max_line_(max_line) {}

  enum class Result { kLine, kEof, kTimeout, kError, kTooLong };

  /// Block until one full line is available (stripped of '\n'/"\r\n"),
  /// EOF, an error, or `deadline` passes.
  [[nodiscard]] Result read_line(std::string& line, Clock::time_point deadline);

  /// Bytes buffered past the last returned line (diagnostics).
  [[nodiscard]] std::size_t buffered() const { return buf_.size(); }

 private:
  int fd_;
  std::size_t max_line_;
  std::string buf_;
};

}  // namespace eva::serve::net
