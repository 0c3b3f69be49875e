#include "serve/server.hpp"

#include <chrono>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"
#include "util/fault.hpp"

namespace eva::serve {

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
    return std::bind_front(&JsonLineServer::answer, this, fd);
  });
}

void JsonLineServer::run() { lines_.run(); }

void JsonLineServer::stop() { lines_.stop(); }

bool JsonLineServer::answer(int fd, const std::string&,
                            const ParsedLine& parsed) {
  if (parsed.kind == ParsedLine::Kind::kStats) {
    // Introspection: answered inline from the metrics registry and the
    // service's live state — never queued behind generation.
    return net::send_line(fd, stats_response_json(*service_));
  }
  if (parsed.kind != ParsedLine::Kind::kGenerate) {
    return net::send_line(
        fd, bad_request_json("cache commands are answered by the sidecar"));
  }
  // serve_conn_drop: hang up without answering. Fired per generation
  // request, so occurrence counting is deterministic.
  if (fault::enabled() && fault::should_fire("serve_conn_drop")) return false;
  auto ticket = service_->submit(parsed.req);
  Response resp = ticket.response.get();
  // The response-write stage closes the request timeline: measured here
  // (the only place that sees the socket), recorded into the
  // serve.stage.write_ms window and the request's Perfetto lane.
  static obs::Histogram& write_h = obs::histogram("serve.stage.write_ms");
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
      (void)net::send_all(fd,
                          std::string_view(first).substr(0, first.size() / 2));
      open = false;
    }
    if (open) {
      for (const Item& item : resp.items) {
        if (!net::send_line(fd, item_to_json(item, ticket.id))) {
          open = false;
          break;
        }
      }
    }
    if (open) open = net::send_line(fd, done_to_json(resp));
  }
  write_h.record(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - w0)
                     .count());
  return open;
}

}  // namespace eva::serve
