// Scoped spans serialized to the chrome://tracing "trace event" JSON
// format, so a pretrain or PPO run can be opened in Perfetto / chrome
// tracing (load the file written to EVA_TRACE_FILE).
//
// Recording is per-thread: each thread appends complete-duration events
// ("ph":"X") to its own buffer (one short uncontended lock per span), and
// the writer stitches all buffers into one JSON object at export. Buffers
// live for the process lifetime, so spans from pool workers that have
// already exited still reach the file.
//
// Cost model: when tracing is disabled (EVA_TRACE_FILE unset) a Span is
// one relaxed atomic load and a branch — cheap enough to leave in the
// GEMM dispatch and parallel-region hot paths. Span names must be string
// literals (they are stored as pointers, not copied).
#pragma once

#include <cstdint>
#include <string>

namespace eva::obs {

/// Microseconds on the process's one obs time axis, which starts at its
/// first reading: span "ts", log "ts_s" and histogram windows all read it.
[[nodiscard]] std::uint64_t now_us() noexcept;

[[nodiscard]] bool trace_enabled() noexcept;
/// Programmatic override (tests, selective tracing of one phase).
void set_trace_enabled(bool on);

namespace detail {
void trace_record(const char* name, std::uint64_t t0_us) noexcept;
/// Request-attributed event: serialized under the synthetic "requests"
/// process (pid 2) with tid = request_id, so Perfetto shows one lane per
/// in-flight request, and with {"request_id":N} in the event args.
void trace_record_request(const char* name, std::uint64_t t0_us,
                          std::uint64_t request_id) noexcept;
}  // namespace detail

/// RAII span: measures construction -> destruction as one trace event on
/// the current thread. `name` must outlive the program (string literal).
///
/// The two-argument form attributes the span to a request id: the event
/// lands on that request's own lane (pid 2, tid = id) instead of the
/// recording thread's, which is how the serving layer renders a
/// per-request stage waterfall (queue -> decode -> verify -> write).
class Span {
 public:
  explicit Span(const char* name) noexcept
      : name_(trace_enabled() ? name : nullptr),
        t0_(name_ ? now_us() : 0) {}
  Span(const char* name, std::uint64_t request_id) noexcept
      : name_(trace_enabled() ? name : nullptr),
        t0_(name_ ? now_us() : 0),
        request_id_(request_id),
        has_request_(true) {}
  ~Span() {
    if (!name_) return;
    if (has_request_) {
      detail::trace_record_request(name_, t0_, request_id_);
    } else {
      detail::trace_record(name_, t0_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_;
  std::uint64_t request_id_ = 0;
  bool has_request_ = false;
};

/// All recorded events as a chrome "trace event format" JSON object:
/// {"traceEvents":[{"name":...,"ph":"X","pid":1,"tid":N,"ts":...,
/// "dur":...},...],"displayTimeUnit":"ms"}.
[[nodiscard]] std::string trace_to_json();

/// Write trace_to_json() to `path`. Returns false on I/O failure.
bool write_trace(const std::string& path);

/// Drop all buffered events. For tests.
void clear_trace();

}  // namespace eva::obs
