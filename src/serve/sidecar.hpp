// Shared-cache sidecar: the fleet's second cache tier (DESIGN.md §13).
//
// Each replica's ResultCache memoizes WL-canonical evaluations *inside*
// one process; the sidecar promotes idempotent whole responses to a tier
// every replica's traffic shares. The router consults it before
// dispatch (keyed by type × n × temperature × seed — exactly the fields
// that make a seeded request deterministic) and fills it after the
// first ok response, so a warm hit produced on any replica warms the
// whole fleet, and a replica crash does not cool the cache.
//
// It is a separate process (eva_cache_main) speaking the same JSON-lines
// protocol as the replicas, extended with two commands
// (serve/protocol.hpp):
//
//   {"cmd":"cache_get","key":K}         -> {"done":true,...,"hit":true,
//                                           "value":"<escaped payload>"}
//                                          or "hit":false
//   {"cmd":"cache_put","key":K,"value":V} -> {"done":true,...,"stored":true}
//   {"cmd":"stats"}                     -> size/capacity/hit counters
//
// Consistency contract: read-your-writes. cache_put answers only after
// the entry is resident, so a router thread that observed "stored":true
// (or simply issued the put on the same connection) hits on its next
// get. Values near kMaxCacheValue are refused ("stored":false) rather
// than erroring the connection; the store is a bounded LRU, so the
// sidecar degrades by forgetting, never by growing without limit.
#pragma once

#include <cstdint>
#include <string>

#include "serve/line_server.hpp"
#include "serve/result_cache.hpp"

namespace eva::serve {

struct SidecarConfig {
  std::string bind_addr = "127.0.0.1";
  int port = 7190;               // 0 = ephemeral
  std::size_t max_entries = 4096;   // LRU bound (EVA_CACHE_ENTRIES)
  std::size_t max_value_bytes = (1 << 18) - 1024;  // refuse larger values
  double idle_ms = 0.0;          // per-connection idle read timeout; 0 = off
};

class CacheSidecar {
 public:
  explicit CacheSidecar(SidecarConfig cfg = {});
  ~CacheSidecar();

  CacheSidecar(const CacheSidecar&) = delete;
  CacheSidecar& operator=(const CacheSidecar&) = delete;

  /// Bind + listen + start the acceptor thread; returns the bound port.
  /// Throws eva::ConfigError when the socket cannot be bound.
  int listen_and_start();

  /// Block until SIGTERM/SIGINT (train/signal) or stop().
  void run();

  /// Stop accepting, close every connection, join all threads.
  void stop();

  [[nodiscard]] int port() const { return lines_.port(); }
  [[nodiscard]] std::size_t size() const;

 private:
  /// Answer one parsed line on `fd`; false hangs up.
  bool answer(int fd, const std::string& line, ParsedLine& parsed);

  SidecarConfig cfg_;
  /// cache.hits / cache.misses / cache.evictions, cache.size gauge.
  BoundedLru<std::string, std::string> cache_;

  LineServer lines_;  // last: its connection threads use the cache above
};

}  // namespace eva::serve
