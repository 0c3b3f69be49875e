#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/io.hpp"

namespace eva::obs {

namespace {

using Clock = std::chrono::steady_clock;

struct TraceEvent {
  const char* name;
  std::uint64_t ts_us;
  std::uint64_t dur_us;
  std::uint64_t request_id;  // meaningful iff has_request
  bool has_request;
};

/// Per-thread event buffer. Owned by the global state (so it survives
/// thread exit); the thread keeps only a raw pointer. Bounded so a
/// traced long run cannot exhaust memory — overflow counts as dropped.
struct ThreadBuf {
  static constexpr std::size_t kMaxEvents = 1u << 18;
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::atomic<bool> enabled{false};
  std::mutex mu;  // guards bufs
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  std::atomic<std::uint32_t> next_tid{1};

  TraceState() {
    const char* path = std::getenv("EVA_TRACE_FILE");
    enabled.store(path && *path, std::memory_order_relaxed);
  }
};

TraceState& state() {
  static TraceState* s = [] {
    auto* st = new TraceState();  // leaked: spans may outlive static dtors
    detail::export_at_exit();
    return st;
  }();
  return *s;
}

ThreadBuf& thread_buf() {
  thread_local ThreadBuf* buf = [] {
    auto owned = std::make_unique<ThreadBuf>();
    TraceState& st = state();
    owned->tid = st.next_tid.fetch_add(1, std::memory_order_relaxed);
    ThreadBuf* raw = owned.get();
    std::lock_guard<std::mutex> lk(st.mu);
    st.bufs.push_back(std::move(owned));
    return raw;
  }();
  return *buf;
}

}  // namespace

std::uint64_t now_us() noexcept {
  static const Clock::time_point t0 = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

bool trace_enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}

namespace detail {

namespace {

void record_event(const TraceEvent& e) noexcept {
  ThreadBuf& buf = thread_buf();
  std::lock_guard<std::mutex> lk(buf.mu);
  if (buf.events.size() >= ThreadBuf::kMaxEvents) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back(e);
}

}  // namespace

void trace_record(const char* name, std::uint64_t t0_us) noexcept {
  const std::uint64_t now = now_us();
  record_event(TraceEvent{name, t0_us, now - t0_us, 0, false});
}

void trace_record_request(const char* name, std::uint64_t t0_us,
                          std::uint64_t request_id) noexcept {
  const std::uint64_t now = now_us();
  record_event(TraceEvent{name, t0_us, now - t0_us, request_id, true});
}

}  // namespace detail

std::string trace_to_json() {
  TraceState& st = state();
  // Two synthetic processes: pid 1 carries thread-lane events, pid 2
  // carries request-lane events (tid = request id), so Perfetto groups
  // per-request stage waterfalls separately from the thread timelines.
  std::string out =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"threads\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"requests\"}}";
  bool first = false;
  std::uint64_t dropped = 0;
  std::lock_guard<std::mutex> lk(st.mu);
  for (const auto& buf : st.bufs) {
    std::lock_guard<std::mutex> blk(buf->mu);
    dropped += buf->dropped;
    for (const TraceEvent& e : buf->events) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"name\":";
      json_string_into(out, e.name);
      if (e.has_request) {
        out += ",\"ph\":\"X\",\"pid\":2,\"tid\":";
        out += std::to_string(e.request_id);
      } else {
        out += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
        out += std::to_string(buf->tid);
      }
      out += ",\"ts\":";
      out += std::to_string(e.ts_us);
      out += ",\"dur\":";
      out += std::to_string(e.dur_us);
      if (e.has_request) {
        out += ",\"args\":{\"request_id\":";
        out += std::to_string(e.request_id);
        out += "}";
      }
      out += "}";
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"";
  if (dropped > 0) {
    out += ",\"otherData\":{\"dropped_events\":" + std::to_string(dropped) +
           "}";
  }
  out += "}\n";
  return out;
}

bool write_trace(const std::string& path) {
  // Temp + rename so a crash mid-export never leaves half-written JSON.
  return atomic_write_file(path, trace_to_json());
}

void clear_trace() {
  TraceState& st = state();
  std::lock_guard<std::mutex> lk(st.mu);
  for (auto& buf : st.bufs) {
    std::lock_guard<std::mutex> blk(buf->mu);
    buf->events.clear();
    buf->dropped = 0;
  }
}

}  // namespace eva::obs
