#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"

namespace eva::serve {

namespace {

/// Write all of `data` (EINTR/EAGAIN/partial-write safe via
/// net::send_all). Under the serve_slow_client fault the payload
/// trickles out in tiny chunks with pauses, exercising client-side read
/// loops. Returns false when the peer went away.
bool write_all(int fd, std::string_view data, bool slow) {
  if (!slow) return net::send_all(fd, data);
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t want = std::min<std::size_t>(7, data.size() - off);
    if (!net::send_all(fd, data.substr(off, want))) return false;
    off += want;
    if (off < data.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return true;
}

bool send_line(int fd, std::string line, bool slow) {
  line += '\n';
  return write_all(fd, line, slow);
}

}  // namespace

JsonLineServer::JsonLineServer(GenerationService& service, ServerConfig cfg)
    : service_(&service),
      // Admitted work completes before the sockets carrying it are torn
      // down: drain between "stop accepting" and "close connections".
      lines_("serve", std::move(cfg.bind_addr), cfg.port, cfg.idle_ms,
             [this] { service_->drain(); }) {}

JsonLineServer::~JsonLineServer() { stop(); }

int JsonLineServer::listen_and_start() {
  service_->start();  // before the first connection can submit to it
  return lines_.start([this](int fd) -> LineServer::LineHandler {
    static obs::Counter& dropped = obs::counter("serve.accept_faults");
    if (fault::enabled() && fault::should_fire("serve_accept")) {
      // Injected accept failure: the client sees an immediate close and
      // must retry — exercises client reconnect paths.
      dropped.add();
      return {};
    }
    const bool slow =
        fault::enabled() && fault::should_fire("serve_slow_client");
    return std::bind_front(&JsonLineServer::answer, this, fd, slow);
  });
}

void JsonLineServer::run() { lines_.run(); }

void JsonLineServer::stop() { lines_.stop(); }

bool JsonLineServer::answer(int fd, bool slow, const std::string&,
                            const ParsedLine& parsed) {
  if (parsed.kind == ParsedLine::Kind::kStats) {
    // Introspection: answered inline from the metrics registry and the
    // service's live state — never queued behind generation.
    return send_line(fd, stats_response_json(*service_), slow);
  }
  if (parsed.kind != ParsedLine::Kind::kGenerate) {
    return send_line(
        fd, bad_request_json("cache commands are answered by the sidecar"),
        slow);
  }
  // Network fault sites, fired per generation request so occurrence
  // counting is deterministic (the router's failover, the chaos gate,
  // and test_router all key off these):
  //   replica_crash      the whole process dies, as under SIGKILL
  //   serve_conn_drop    hang up without answering
  //   serve_stall        sit on the request, then answer normally
  if (fault::enabled()) {
    if (fault::should_fire("replica_crash")) {
      obs::log_warn("fault.replica_crash_exit");
      std::_Exit(137);
    }
    if (fault::should_fire("serve_conn_drop")) return false;
    if (fault::should_fire("serve_stall")) {
      lines_.pause(env_double("EVA_SERVE_STALL_FAULT_MS", 2000.0, 0.0));
    }
  }
  auto ticket = service_->submit(parsed.req);
  Response resp = ticket.response.get();
  // The response-write stage closes the request timeline: measured here
  // (the only place that sees the socket), recorded into the
  // serve.stage.write_ms window and the request's Perfetto lane.
  static obs::SlidingHistogram& write_h =
      obs::sliding_histogram("serve.stage.write_ms");
  const auto w0 = std::chrono::steady_clock::now();
  bool open = true;
  {
    obs::Span write_span("serve.request.write", ticket.id);
    // serve_partial_write: truncate the first response line mid-byte and
    // hang up — the reader must treat the torn line as a transport
    // failure, never as a parseable response.
    if (fault::enabled() && fault::should_fire("serve_partial_write")) {
      const std::string first = resp.items.empty()
                                    ? done_to_json(resp)
                                    : item_to_json(resp.items[0], ticket.id);
      (void)write_all(fd, std::string_view(first).substr(0, first.size() / 2),
                      slow);
      open = false;
    }
    if (open) {
      for (const Item& item : resp.items) {
        if (!send_line(fd, item_to_json(item, ticket.id), slow)) {
          open = false;
          break;
        }
      }
    }
    if (open) open = send_line(fd, done_to_json(resp), slow);
  }
  write_h.record(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - w0)
                     .count());
  return open;
}

}  // namespace eva::serve
