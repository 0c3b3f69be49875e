// Fault-tolerant multi-replica router (DESIGN.md §13).
//
// The router is the fleet's TCP front end: it speaks the same JSON-lines
// protocol as a single replica (clients cannot tell the difference) and
// consistent-hashes each generation request across N replica backends by
// its WL-relevant key — circuit type × seed bucket — so identical seeded
// requests land on the same replica and ride its local ResultCache.
//
// Robustness machinery, all deterministic enough to assert on in tests:
//
//  * Health: a prober thread round-trips {"cmd":"stats"} against every
//    replica each health_interval_ms; probe outcomes feed the same
//    per-replica circuit breaker as data-path failures.
//  * Circuit breaker per replica: `threshold` consecutive failures trip
//    it open; after cooldown_ms one half-open trial is allowed, whose
//    success closes it (router.breaker_trips / _recoveries counters).
//  * Failover + retry: each request walks the hash ring's preference
//    order once, one replica at a time on the connection handler's own
//    thread, under a bounded attempt budget with exponential backoff +
//    deterministic jitter (serve/backoff.hpp). connect/IO/timeout
//    failures move on to the next replica. Whole-response buffering
//    means a replica dying mid-response is invisible to the client: it
//    either gets the complete response from a survivor or a clean
//    terminator — never a torn line.
//  * Load shedding: above max_inflight client requests the router
//    answers {"status":"rejected","retry_after_ms":...} immediately —
//    fleet overload surfaces as clean backpressure before queues grow.
//  * Shared cache tier: when cache_addr names a sidecar (serve/
//    sidecar.hpp), idempotent requests (seed != 0) are looked up before
//    dispatch and filled after the first ok response, so a warm hit on
//    any replica warms the fleet. Cache failures are soft: a dead
//    sidecar degrades to a miss, never to a failed request.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/backoff.hpp"
#include "serve/line_server.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace eva::serve {

/// Consistent hash ring over an arbitrary subset of replica indices.
/// Each member contributes `vnodes` pseudo-random points; a key is owned
/// by the first point clockwise from its hash. Because members hash
/// independently, removing one member remaps exactly the keys it owned
/// and no others — the property RouterRingRemap asserts.
class HashRing {
 public:
  HashRing(const std::vector<std::size_t>& members, int vnodes = 64);

  /// The member owning `key`.
  [[nodiscard]] std::size_t primary(std::uint64_t key) const;

  /// All members in failover order for `key`: the owner first, then ring
  /// successors, each member exactly once.
  [[nodiscard]] std::vector<std::size_t> preference(std::uint64_t key) const;

 private:
  std::vector<std::pair<std::uint64_t, std::size_t>> points_;  // sorted
  std::size_t n_members_;
};

/// The ring key of a generation request: circuit type × seed bucket.
/// Seeded requests (deterministic, cacheable) bucket by seed so repeats
/// stick to one replica's warm cache; `spread` substitutes for the
/// bucket when seed == 0 (the router uses a counter to spread those).
[[nodiscard]] std::uint64_t request_ring_key(int type_tag, std::uint64_t seed,
                                             std::uint64_t spread);

/// Per-replica circuit breaker: closed -> open after `threshold`
/// consecutive failures; open -> half-open after cooldown_ms (allow()
/// admits exactly one trial); half-open -> closed on success, back to
/// open on failure. Time is passed in, so tests run it on a fake clock.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(int threshold, double cooldown_ms)
      : threshold_(threshold), cooldown_ms_(cooldown_ms) {}

  /// May a request be sent now? In the open state this performs the
  /// open -> half-open transition once the cooldown has elapsed.
  [[nodiscard]] bool allow(std::chrono::steady_clock::time_point now);

  /// Returns true when this success *recovered* the breaker (it was not
  /// closed before).
  bool record_success();

  /// Returns true when this failure *tripped* the breaker open (it was
  /// closed or half-open before).
  bool record_failure(std::chrono::steady_clock::time_point now);

  [[nodiscard]] State state() const;
  /// "closed", "open" or "half_open", as the router's stats name it.
  [[nodiscard]] static const char* state_name(State s);

 private:
  mutable std::mutex mu_;
  int threshold_;
  double cooldown_ms_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  bool trial_inflight_ = false;
  std::chrono::steady_clock::time_point opened_at_{};
};

struct RouterConfig {
  std::string bind_addr = "127.0.0.1";
  int port = 7070;                    // 0 = ephemeral
  std::vector<std::string> backends;  // "host:port" per replica
  std::string cache_addr;             // "host:port" sidecar; "" = no cache
  int vnodes = 64;
  double health_interval_ms = 250.0;  // EVA_ROUTER_HEALTH_MS
  double probe_timeout_ms = 500.0;    // stats-probe budget
  double replica_timeout_ms = 5000.0; // per-attempt budget EVA_ROUTER_TIMEOUT_MS
  int max_attempts = 4;               // dispatch attempts per request
  BackoffPolicy backoff{/*base_ms=*/5.0, /*max_ms=*/100.0};
  int breaker_threshold = 3;          // consecutive failures -> open
  double breaker_cooldown_ms = 1000.0;
  std::size_t max_inflight = 256;     // shed above (EVA_ROUTER_MAX_INFLIGHT)
  double shed_retry_after_ms = 50.0;
  double idle_ms = 0.0;               // client-side idle read timeout; 0 = off
  std::uint64_t seed = 1;             // backoff jitter stream
};

class Router {
 public:
  explicit Router(RouterConfig cfg);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind + listen + start the acceptor and health-prober threads.
  /// Returns the bound port. Throws eva::ConfigError on a bad config or
  /// unbindable socket.
  int listen_and_start();

  /// Block until SIGTERM/SIGINT (train/signal) or stop().
  void run();

  /// Stop accepting, shut open connections, join all threads. Idempotent.
  void stop();

  [[nodiscard]] int port() const { return lines_.port(); }

  /// Live per-replica view for tests and the stats command.
  struct ReplicaSnapshot {
    std::string addr;
    CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
    bool healthy = false;  // last probe round-tripped
    std::uint64_t failures = 0;
    std::uint64_t successes = 0;
  };
  [[nodiscard]] std::vector<ReplicaSnapshot> replica_snapshots() const;

 private:
  struct Replica {
    std::string host;
    int port = 0;
    std::string addr;
    CircuitBreaker breaker;
    std::atomic<bool> healthy{false};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> successes{0};
    Replica(std::string h, int p, std::string a, int threshold,
            double cooldown_ms)
        : host(std::move(h)), port(p), addr(std::move(a)),
          breaker(threshold, cooldown_ms) {}
  };

  /// One buffered replica exchange (see router.cpp).
  struct ForwardOutcome;

  void health_loop();
  /// Answer one parsed client line on `fd`; false hangs up.
  bool answer(int fd, const std::string& line, const ParsedLine& parsed);
  /// Serve one parsed generation request end-to-end; returns the full
  /// multi-line payload to write to the client.
  [[nodiscard]] std::string dispatch(const ParsedLine& parsed,
                                     const std::string& line);
  [[nodiscard]] ForwardOutcome forward_once(Replica& r,
                                            const std::string& line,
                                            double timeout_ms);
  void note_success(Replica& r);
  void note_failure(Replica& r);
  [[nodiscard]] bool probe(Replica& r);
  [[nodiscard]] std::string stats_json() const;
  [[nodiscard]] std::string cache_key(const Request& req) const;
  [[nodiscard]] bool cache_get(const std::string& key, std::string* payload);
  void cache_put(const std::string& key, const std::string& payload);
  [[nodiscard]] bool cache_connect_locked();
  void cache_drop_locked();

  RouterConfig cfg_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<HashRing> ring_;
  std::atomic<std::uint64_t> spread_{0};   // ring spread for unseeded requests
  std::atomic<long> inflight_{0};          // client requests being served

  // Sidecar client: one persistent connection, mutex-serialized (the
  // round trips are tiny loopback exchanges). Failures drop the
  // connection and degrade to a miss; the next op reconnects.
  std::mutex cache_mu_;
  int cache_fd_ = -1;
  std::unique_ptr<net::LineReader> cache_reader_;

  // Last: their threads use everything above.
  LineServer lines_;
  std::thread prober_;
};

/// Parse "host:port[,host:port...]" (EVA_ROUTER_BACKENDS). Entries
/// without a colon or with a bad port are dropped.
[[nodiscard]] std::vector<std::string> parse_backend_list(
    std::string_view spec);

}  // namespace eva::serve
