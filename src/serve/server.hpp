// The replica's JSON-lines TCP front end for GenerationService
// (DESIGN.md §10).
//
// The socket layer (accept loop, a thread per connection, framing,
// parsing, the idle timeout, ordered stop) is the shared LineServer
// (serve/line_server.hpp); this class adds only the replica's answers.
// Each connection is served request-at-a-time: a request line is
// submitted to the service and its response items are streamed back,
// followed by a terminator line (see serve/protocol.hpp). The
// concurrency story lives in the service queue, not in the socket
// layer.
//
// Shutdown: stop() (or SIGTERM observed by run()) stops accepting,
// drains the service (completing all admitted requests), then closes
// the remaining connections and joins their threads.
//
// Fault sites (EVA_FAULT, util/fault.hpp): `serve_accept` drops a
// freshly accepted connection (drawn on the acceptor, in accept order);
// `serve_conn_drop` hangs up after reading a request without answering;
// `serve_partial_write` emits a truncated response line then hangs up.
// The last two exercise the router's failover and retry paths and
// client-side retry (eva_loadgen --retry) deterministically.
#pragma once

#include <string>

#include "serve/line_server.hpp"
#include "serve/service.hpp"

namespace eva::serve {

struct ServerConfig {
  std::string bind_addr = "127.0.0.1";
  int port = 7077;  // 0 = ephemeral (bound port returned by listen_and_start)
  /// Per-connection idle read timeout: a connection that delivers no
  /// bytes for this long is closed (serve.idle_timeouts counter). 0
  /// disables. eva_serve_main reads it from EVA_SERVE_IDLE_MS.
  double idle_ms = 0.0;
};

class JsonLineServer {
 public:
  /// The service must outlive the server.
  JsonLineServer(GenerationService& service, ServerConfig cfg = {});
  ~JsonLineServer();

  JsonLineServer(const JsonLineServer&) = delete;
  JsonLineServer& operator=(const JsonLineServer&) = delete;

  /// Bind + listen + start the acceptor thread. Returns the bound port.
  /// Throws eva::ConfigError when the socket cannot be bound.
  int listen_and_start();

  /// Block until a stop is requested (SIGTERM/SIGINT via train/signal,
  /// or stop() from another thread), then shut down gracefully.
  void run();

  /// Programmatic shutdown: stop accepting, drain the service, join all
  /// threads. Idempotent and thread-safe.
  void stop();

  [[nodiscard]] int port() const { return lines_.port(); }

 private:
  /// Answer one parsed line on `fd`; false hangs up.
  bool answer(int fd, const std::string& line, const ParsedLine& parsed);

  GenerationService* service_;
  LineServer lines_;
};

}  // namespace eva::serve
