// The JSON-lines TCP front end of every serving tier: the replica
// (serve/server.hpp), the router (serve/router.hpp) and the cache
// sidecar (serve/sidecar.hpp) (DESIGN.md §10, §13). A tier supplies only
// its per-line protocol handler; the core owns the rest:
//
//  * bind + listen, and an acceptor thread that polls the listener every
//    100 ms, so a SIGTERM via train/signal is observed promptly;
//  * a thread per connection. The acceptor joins the threads of closed
//    connections on each poll round, so live threads (each holding a
//    stack mapping) stay bounded by the connections actually open;
//  * '\n' framing (net::LineReader): a trailing '\r' is stripped, empty
//    lines are skipped, and a line over 1 MiB hangs up the connection;
//  * parsing: a malformed line is answered with bad_request and the
//    connection stays open, so outside input is validated in one place;
//  * the idle timeout: a connection that delivers no bytes for idle_ms
//    is closed, so a stalled client cannot pin a thread forever;
//  * an ordered stop: stop accepting, run the tier's hook (the replica
//    drains its service, the router joins its prober), then close the
//    connections and join their threads.
//
// Counters and log events carry the tier name ("serve", "router",
// "cache"): <tier>.connections, <tier>.idle_timeouts, <tier>.listening,
// <tier>.idle_timeout, <tier>.stopped.
#pragma once

#include <atomic>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace eva::serve {

class LineServer {
 public:
  /// Answers one well-formed line of its connection; returns false to
  /// hang up. `line` is the raw text (the router forwards it verbatim)
  /// and `parsed` its parse, which the handler may consume.
  using LineHandler =
      std::function<bool(const std::string& line, ParsedLine& parsed)>;
  /// Called on the acceptor thread for each new connection, in accept
  /// order, with its socket. Returns the connection's line handler, or
  /// an empty one to close the connection unserved.
  using Accept = std::function<LineHandler(int fd)>;

  /// `tier` names the counters, log events and bind errors. idle_ms <= 0
  /// disables the idle timeout. Once started, stop() runs `between`
  /// after accepting has stopped and before the connections are closed.
  LineServer(std::string tier, std::string bind_addr, int port,
             double idle_ms, std::function<void()> between = {});
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Bind + listen + start the acceptor. Returns the bound port. Throws
  /// eva::ConfigError when the port lies outside 0-65535 or the socket
  /// cannot be bound.
  int start(Accept accept);

  /// Block until stop() begins or SIGTERM/SIGINT arrives (train/signal),
  /// then stop().
  void run();

  /// Sleep for `ms`, waking every 20 ms to return early once stop()
  /// begins.
  void pause(double ms) const;

  /// Stop accepting, run `between` (if started), then shut every
  /// connection down and join its thread. The first call does the work;
  /// later calls wait for it to finish.
  void stop();

  [[nodiscard]] bool stopping() const { return stopping_.load(); }
  [[nodiscard]] int port() const { return port_; }

 private:
  struct Connection {
    int fd = -1;  // -1 once the connection is closed and its thread done
    std::thread thread;
  };

  void accept_loop(const Accept& accept);
  void serve(Connection& conn, int fd, const LineHandler& handler);

  const std::string tier_;
  const std::string bind_addr_;
  const int requested_port_;
  const double idle_ms_;
  const std::function<void()> between_;
  obs::Counter& connections_;
  obs::Counter& idle_timeouts_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::once_flag stop_once_;
  std::mutex conn_mu_;
  std::list<Connection> conns_;  // guarded by conn_mu_
  std::thread acceptor_;
};

}  // namespace eva::serve
