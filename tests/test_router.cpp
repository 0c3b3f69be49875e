// Fleet-serving suite (DESIGN.md §13): consistent-hash ring remap
// bounds, backoff jitter bounds, circuit-breaker state machine on a fake
// clock, and live loopback fleets built from scripted fake replicas —
// failover on dropped/torn connections, breaker trip + half-open
// recovery via the health prober, router-level load shedding (also of
// requests that arrive together), the shared cache sidecar (miss -> fill
// -> cross-replica hit), real JsonLineServer replicas under injected
// serve_conn_drop / serve_partial_write faults, the shared line server's
// thread reaping and idle timeout on the router and the sidecar, and the
// refusal of ports outside 0-65535.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "circuit/classify.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "obs/metrics.hpp"
#include "serve/backoff.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/sidecar.hpp"
#include "train/signal.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

using namespace eva;
using namespace eva::serve;
using Clock = std::chrono::steady_clock;

// --- scripted fake replica ---------------------------------------------------

/// Minimal JSON-lines server whose behaviour per request is scripted, so
/// failover/breaker assertions are exact. Every instance tags
/// its item line with its id, which survives the router's relay — the
/// test reads which replica actually answered off the response payload.
class FakeReplica {
 public:
  enum class Mode {
    kOk,       // item + ok terminator
    kDrop,     // read the request, close without answering
    kPartial,  // half an item line, then close (torn write)
    kReject,   // rejected terminator with retry_after_ms
    kStall,    // sleep stall_ms, then answer ok
  };

  explicit FakeReplica(int id, Mode mode = Mode::kOk) : id_(id), mode_(mode) {
    net::ignore_sigpipe();
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 16);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
    acceptor_ = std::thread([this] { accept_loop(); });
  }

  ~FakeReplica() {
    stopping_.store(true);
    if (acceptor_.joinable()) acceptor_.join();
    ::close(listen_fd_);
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& t : handlers_) {
      if (t.joinable()) t.join();
    }
  }

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] std::string addr() const {
    return "127.0.0.1:" + std::to_string(port_);
  }
  [[nodiscard]] int served() const { return served_.load(); }
  void set_mode(Mode m) { mode_.store(m); }
  void set_stall_ms(int ms) { stall_ms_.store(ms); }

 private:
  void accept_loop() {
    while (!stopping_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      std::lock_guard<std::mutex> lk(mu_);
      handlers_.emplace_back([this, fd] { handle(fd); });
    }
  }

  void handle(int fd) {
    std::string buf;
    char chunk[2048];
    bool open = true;
    while (open && !stopping_.load()) {
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 20);
      if (rc < 0) break;
      if (rc == 0) continue;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while (open && (nl = buf.find('\n')) != std::string::npos) {
        const std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (line.empty()) continue;
        if (line.find("\"cmd\"") != std::string::npos) {
          // kDrop models a dead replica: probes fail like data traffic.
          // Every other mode answers probes so the prober keeps the
          // breaker closed and only the data path misbehaves.
          if (mode_.load() == Mode::kDrop) {
            open = false;
            continue;
          }
          open = net::send_line(
              fd, "{\"done\": true, \"status\": \"ok\", \"cmd\": \"stats\"}");
          continue;
        }
        served_.fetch_add(1);
        const std::string item = "{\"request_id\": 1, \"replica\": " +
                                 std::to_string(id_) +
                                 ", \"netlist\": \"fake\", \"decoded\": true, "
                                 "\"valid\": true, \"fom\": 1, "
                                 "\"cached\": false}";
        const std::string done =
            "{\"done\": true, \"status\": \"ok\", \"request_id\": 1, "
            "\"items\": 1, \"latency_ms\": 1}";
        switch (mode_.load()) {
          case Mode::kOk:
            open = net::send_line(fd, item) && net::send_line(fd, done);
            break;
          case Mode::kDrop:
            open = false;
            break;
          case Mode::kPartial:
            (void)net::send_all(fd,
                                std::string_view(item).substr(0, item.size() / 2));
            open = false;
            break;
          case Mode::kReject:
            open = net::send_line(
                fd,
                "{\"done\": true, \"status\": \"rejected\", \"request_id\": 1, "
                "\"items\": 0, \"latency_ms\": 0, \"retry_after_ms\": 7}");
            break;
          case Mode::kStall: {
            const auto until =
                Clock::now() + std::chrono::milliseconds(stall_ms_.load());
            while (Clock::now() < until && !stopping_.load()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            open = net::send_line(fd, item) && net::send_line(fd, done);
            break;
          }
        }
      }
    }
    ::close(fd);
  }

  int id_;
  std::atomic<Mode> mode_;
  std::atomic<int> stall_ms_{500};
  std::atomic<int> served_{0};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::mutex mu_;
  std::vector<std::thread> handlers_;
};

/// Send `line` on a connected socket, read until the terminator, return
/// every response line.
std::vector<std::string> send_and_read(int fd, const std::string& line,
                                       double timeout_ms = 5000.0) {
  std::vector<std::string> lines;
  if (net::send_line(fd, line)) {
    net::LineReader reader(fd);
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(timeout_ms));
    std::string resp;
    while (reader.read_line(resp, deadline) == net::LineReader::Result::kLine) {
      lines.push_back(resp);
      if (resp.find("\"done\"") != std::string::npos) break;
    }
  }
  return lines;
}

/// One client round trip through the router: connect, then send_and_read().
std::vector<std::string> round_trip(int port, const std::string& line,
                                    double timeout_ms = 5000.0) {
  const int fd = net::connect_with_deadline("127.0.0.1", port, 2000.0);
  if (fd < 0) return {};
  auto lines = send_and_read(fd, line, timeout_ms);
  ::close(fd);
  return lines;
}

bool payload_mentions(const std::vector<std::string>& lines,
                      const std::string& needle) {
  for (const auto& l : lines) {
    if (l.find(needle) != std::string::npos) return true;
  }
  return false;
}

RouterConfig fast_router(std::vector<std::string> backends) {
  RouterConfig cfg;
  cfg.port = 0;
  cfg.backends = std::move(backends);
  cfg.health_interval_ms = 50.0;
  cfg.probe_timeout_ms = 300.0;
  cfg.replica_timeout_ms = 2000.0;
  cfg.backoff = BackoffPolicy{1.0, 5.0};  // keep test failovers snappy
  cfg.breaker_cooldown_ms = 200.0;
  return cfg;
}

/// A seed whose ring placement puts replica index `want` first, given
/// the router's own hash (type OpAmp, the config's vnodes). Lets tests
/// pin which backend is "primary" for a request.
std::uint64_t seed_with_primary(std::size_t n_backends, std::size_t want,
                                int vnodes) {
  std::vector<std::size_t> members(n_backends);
  for (std::size_t i = 0; i < n_backends; ++i) members[i] = i;
  const HashRing ring(members, vnodes);
  const int tag = static_cast<int>(circuit::CircuitType::OpAmp);
  for (std::uint64_t seed = 1; seed < 10000; ++seed) {
    if (ring.primary(request_ring_key(tag, seed, 0)) == want) return seed;
  }
  return 1;  // unreachable for any sane ring
}

// --- hash ring ---------------------------------------------------------------

TEST(HashRingTest, PreferenceCoversAllMembersPrimaryFirst) {
  const HashRing ring({0, 1, 2, 3}, 32);
  for (std::uint64_t k = 0; k < 200; ++k) {
    const std::uint64_t key = eva::splitmix64(k);
    const auto pref = ring.preference(key);
    ASSERT_EQ(pref.size(), 4u);
    EXPECT_EQ(pref[0], ring.primary(key));
    EXPECT_EQ(std::set<std::size_t>(pref.begin(), pref.end()).size(), 4u);
  }
}

TEST(HashRingTest, RemovingAMemberRemapsOnlyItsKeys) {
  const std::vector<std::size_t> all = {0, 1, 2, 3, 4};
  const std::vector<std::size_t> without2 = {0, 1, 3, 4};
  const HashRing full(all, 64);
  const HashRing partial(without2, 64);
  const int n_keys = 20000;
  int owned_by_2 = 0;
  for (int i = 0; i < n_keys; ++i) {
    const std::uint64_t key = eva::splitmix64(0xABCDEF + i);
    const std::size_t before = full.primary(key);
    const std::size_t after = partial.primary(key);
    if (before == 2) {
      ++owned_by_2;
      EXPECT_NE(after, 2u);
    } else {
      // The minimal-remap property: keys not owned by the removed
      // member do not move at all.
      EXPECT_EQ(after, before) << "key " << i << " moved gratuitously";
    }
  }
  // Ownership is roughly balanced: the removed member held ~1/5.
  EXPECT_GT(owned_by_2, n_keys / 10);
  EXPECT_LT(owned_by_2, n_keys * 2 / 5);
}

TEST(HashRingTest, SeededRequestsPinReplicasUnseededSpread) {
  const int tag = static_cast<int>(circuit::CircuitType::OpAmp);
  // Same seed -> same key regardless of spread; unseeded requests follow
  // the spread counter instead.
  EXPECT_EQ(request_ring_key(tag, 42, 0), request_ring_key(tag, 42, 99));
  EXPECT_NE(request_ring_key(tag, 0, 1), request_ring_key(tag, 0, 2));
  // Different circuit types with one seed land on different keys.
  EXPECT_NE(request_ring_key(0, 42, 0), request_ring_key(1, 42, 0));
}

// --- backoff -----------------------------------------------------------------

TEST(BackoffTest, DelaysAreJitteredBoundedAndDeterministic) {
  const BackoffPolicy p{10.0, 80.0};
  EXPECT_EQ(p.delay_ms(0, 1), 0.0);
  double prev_cap = 0.0;
  for (int k = 1; k <= 6; ++k) {
    const double cap = std::min(80.0, 10.0 * (1 << (k - 1)));
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      const double d = p.delay_ms(k, seed);
      EXPECT_GE(d, cap * 0.5) << "k=" << k;
      EXPECT_LT(d, cap) << "k=" << k;
      EXPECT_EQ(d, p.delay_ms(k, seed)) << "jitter must be deterministic";
    }
    EXPECT_GE(cap, prev_cap);
    prev_cap = cap;
  }
}

// --- circuit breaker ---------------------------------------------------------

TEST(CircuitBreakerTest, TripHalfOpenRecoverSequence) {
  CircuitBreaker b(3, 100.0);
  const auto t0 = Clock::now();
  EXPECT_TRUE(b.allow(t0));
  EXPECT_FALSE(b.record_failure(t0));
  EXPECT_FALSE(b.record_failure(t0));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.record_failure(t0));  // third consecutive failure trips
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(b.allow(t0 + std::chrono::milliseconds(50)));  // still cooling
  // Cooldown elapsed: exactly one half-open trial is admitted.
  const auto t1 = t0 + std::chrono::milliseconds(150);
  EXPECT_TRUE(b.allow(t1));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(b.allow(t1)) << "only one trial in half-open";
  EXPECT_TRUE(b.record_success());  // trial succeeded: recovered
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_FALSE(b.record_success()) << "success while closed is not a recovery";
}

TEST(CircuitBreakerTest, FailedTrialReopens) {
  CircuitBreaker b(2, 50.0);
  const auto t0 = Clock::now();
  EXPECT_FALSE(b.record_failure(t0));
  EXPECT_TRUE(b.record_failure(t0));
  const auto t1 = t0 + std::chrono::milliseconds(60);
  EXPECT_TRUE(b.allow(t1));
  EXPECT_TRUE(b.record_failure(t1));  // trial failed: re-tripped
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  // A second cooldown still leads to recovery eventually.
  const auto t2 = t1 + std::chrono::milliseconds(60);
  EXPECT_TRUE(b.allow(t2));
  EXPECT_TRUE(b.record_success());
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
}

// --- backend list parsing ----------------------------------------------------

TEST(RouterConfigTest, ParseBackendList) {
  const auto got =
      parse_backend_list(" 127.0.0.1:7077, 10.0.0.2:7078 ,bad,host:0,:1,x:");
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "127.0.0.1:7077");
  EXPECT_EQ(got[1], "10.0.0.2:7078");
  EXPECT_TRUE(parse_backend_list("").empty());
}

TEST(RouterConfigTest, BadConfigThrows) {
  RouterConfig none;
  EXPECT_THROW(Router r(none), ConfigError);
  RouterConfig bad;
  bad.backends = {"nonsense"};
  EXPECT_THROW(Router r(bad), ConfigError);
}

// --- live fleets of fake replicas -------------------------------------------

TEST(RouterFleetTest, FailoverOnConnDropReachesSurvivor) {
  FakeReplica a(0, FakeReplica::Mode::kDrop);
  FakeReplica b(1, FakeReplica::Mode::kOk);
  auto cfg = fast_router({a.addr(), b.addr()});
  Router router(cfg);
  const int port = router.listen_and_start();

  const auto lines = round_trip(port, "{\"n\": 1, \"seed\": 3}");
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(payload_mentions(lines, "\"replica\": 1"))
      << "response must come from the surviving replica";
  EXPECT_TRUE(lines.back().find("\"status\": \"ok\"") != std::string::npos);
  router.stop();
}

TEST(RouterFleetTest, TornReplicaWriteNeverReachesTheClient) {
  FakeReplica a(0, FakeReplica::Mode::kPartial);
  FakeReplica b(1, FakeReplica::Mode::kPartial);
  FakeReplica c(2, FakeReplica::Mode::kOk);
  auto cfg = fast_router({a.addr(), b.addr(), c.addr()});
  cfg.max_attempts = 6;
  Router router(cfg);
  const int port = router.listen_and_start();

  for (int i = 0; i < 4; ++i) {
    const auto lines = round_trip(
        port, "{\"n\": 1, \"seed\": " + std::to_string(40 + i) + "}");
    ASSERT_FALSE(lines.empty());
    for (const auto& l : lines) {
      ASSERT_FALSE(l.empty());
      // Whole-response buffering: a replica that died mid-line must be
      // invisible — every line the client sees is a complete object.
      EXPECT_EQ(l.front(), '{');
      EXPECT_EQ(l.back(), '}');
    }
    EXPECT_TRUE(lines.back().find("\"done\"") != std::string::npos);
  }
  router.stop();
}

TEST(RouterFleetTest, AllReplicasDownResolvesUnavailable) {
  FakeReplica a(0, FakeReplica::Mode::kDrop);
  FakeReplica b(1, FakeReplica::Mode::kDrop);
  auto cfg = fast_router({a.addr(), b.addr()});
  cfg.max_attempts = 3;
  Router router(cfg);
  const int port = router.listen_and_start();

  const auto lines = round_trip(port, "{\"n\": 1, \"seed\": 9}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].find("\"status\": \"unavailable\"") !=
              std::string::npos);
  EXPECT_TRUE(lines[0].find("\"retry_after_ms\"") != std::string::npos);
  router.stop();
}

TEST(RouterFleetTest, TimedOutReplicaIsNotSentTheRequestAgain) {
  // A lone replica that outlasts the forward timeout, with more attempts
  // than replicas: it is still working on the first copy, so the router
  // gives up rather than send it the same request twice more.
  FakeReplica a(0, FakeReplica::Mode::kStall);
  a.set_stall_ms(1500);
  auto cfg = fast_router({a.addr()});
  cfg.max_attempts = 3;
  cfg.replica_timeout_ms = 300.0;
  Router router(cfg);
  const int port = router.listen_and_start();

  const auto lines = round_trip(port, "{\"n\": 1, \"seed\": 9}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].find("\"status\": \"unavailable\"") !=
              std::string::npos)
      << lines[0];
  EXPECT_EQ(a.served(), 1);
  router.stop();
}

TEST(RouterFleetTest, TimedOutPrimaryFailsOverToTheOtherReplica) {
  FakeReplica a(0, FakeReplica::Mode::kStall);
  a.set_stall_ms(1500);
  FakeReplica b(1, FakeReplica::Mode::kOk);
  auto cfg = fast_router({a.addr(), b.addr()});
  cfg.max_attempts = 3;
  cfg.replica_timeout_ms = 300.0;
  Router router(cfg);
  const int port = router.listen_and_start();

  const std::uint64_t s0 = seed_with_primary(2, 0, cfg.vnodes);
  const auto lines =
      round_trip(port, "{\"n\": 1, \"seed\": " + std::to_string(s0) + "}");
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(payload_mentions(lines, "\"replica\": 1"));
  EXPECT_TRUE(lines.back().find("\"status\": \"ok\"") != std::string::npos);
  EXPECT_EQ(a.served(), 1);
  EXPECT_EQ(b.served(), 1);
  router.stop();
}

TEST(RouterFleetTest, RejectionPassesThroughWithoutFailover) {
  FakeReplica a(0, FakeReplica::Mode::kReject);
  FakeReplica b(1, FakeReplica::Mode::kReject);
  auto cfg = fast_router({a.addr(), b.addr()});
  Router router(cfg);
  const int port = router.listen_and_start();

  const auto lines = round_trip(port, "{\"n\": 1, \"seed\": 4}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].find("\"status\": \"rejected\"") != std::string::npos);
  EXPECT_TRUE(lines[0].find("\"retry_after_ms\": 7") != std::string::npos);
  // Backpressure is not a replica fault: exactly one attempt was made.
  EXPECT_EQ(a.served() + b.served(), 1);
  router.stop();
}

TEST(RouterFleetTest, BreakerTripsOnDeadReplicaAndProberRecovers) {
  FakeReplica a(0, FakeReplica::Mode::kOk);
  FakeReplica b(1, FakeReplica::Mode::kOk);
  auto cfg = fast_router({a.addr(), b.addr()});
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown_ms = 150.0;
  cfg.health_interval_ms = 40.0;
  Router router(cfg);
  const int port = router.listen_and_start();

  auto wait_for = [&](std::size_t idx, auto pred) {
    const auto give_up = Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < give_up) {
      const auto snap = router.replica_snapshots()[idx];
      if (pred(snap)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  };
  ASSERT_TRUE(wait_for(0, [](const Router::ReplicaSnapshot& s) {
    return s.healthy && s.breaker == CircuitBreaker::State::kClosed;
  })) << "first probe round must mark the replica healthy";

  // Kill replica 0's behaviour entirely (probes and data both hang up):
  // consecutive probe failures trip the threshold-2 breaker with no
  // client traffic at all.
  a.set_mode(FakeReplica::Mode::kDrop);
  ASSERT_TRUE(wait_for(0, [](const Router::ReplicaSnapshot& s) {
    return s.breaker == CircuitBreaker::State::kOpen && !s.healthy;
  })) << "probe failures must trip the breaker";

  // Requests pinned to the dead replica fail over to the survivor.
  const std::uint64_t s0 = seed_with_primary(2, 0, cfg.vnodes);
  const auto lines =
      round_trip(port, "{\"n\": 1, \"seed\": " + std::to_string(s0) + "}");
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(payload_mentions(lines, "\"replica\": 1"));

  // Heal the replica: after the cooldown the prober's half-open trial
  // succeeds and the breaker closes — recovery needs no data traffic.
  a.set_mode(FakeReplica::Mode::kOk);
  EXPECT_TRUE(wait_for(0, [](const Router::ReplicaSnapshot& s) {
    return s.breaker == CircuitBreaker::State::kClosed && s.healthy;
  })) << "prober must recover a healed replica";
  router.stop();
}

TEST(RouterFleetTest, ShedsAboveMaxInflight) {
  FakeReplica a(0, FakeReplica::Mode::kStall);
  a.set_stall_ms(400);
  auto cfg = fast_router({a.addr()});
  cfg.max_inflight = 1;
  cfg.shed_retry_after_ms = 33.0;
  Router router(cfg);
  const int port = router.listen_and_start();

  std::thread slow([&] {
    const auto lines = round_trip(port, "{\"n\": 1, \"seed\": 5}");
    EXPECT_FALSE(lines.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto lines = round_trip(port, "{\"n\": 1, \"seed\": 6}");
  slow.join();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].find("\"status\": \"rejected\"") != std::string::npos);
  EXPECT_TRUE(lines[0].find("\"shed_by\": \"router\"") != std::string::npos);
  EXPECT_TRUE(lines[0].find("\"retry_after_ms\": 33") != std::string::npos);
  router.stop();
}

TEST(RouterFleetTest, SimultaneousArrivalsAdmitOnlyMaxInflight) {
  FakeReplica a(0, FakeReplica::Mode::kStall);
  a.set_stall_ms(2000);
  auto cfg = fast_router({a.addr()});
  cfg.max_inflight = 1;
  cfg.replica_timeout_ms = 10000.0;  // outlast the stall: no retried forward
  Router router(cfg);
  const int port = router.listen_and_start();

  // Every client connects, then all send together, so the requests race
  // through admission while the one admitted request stalls.
  constexpr int kClients = 16;
  std::latch start(kClients);
  std::vector<std::vector<std::string>> replies(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const int fd = net::connect_with_deadline("127.0.0.1", port, 2000.0);
      start.arrive_and_wait();
      if (fd < 0) return;
      replies[static_cast<std::size_t>(i)] = send_and_read(
          fd, "{\"n\": 1, \"seed\": " + std::to_string(100 + i) + "}");
      ::close(fd);
    });
  }
  for (auto& c : clients) c.join();

  int shed = 0;
  for (const auto& lines : replies) {
    shed += payload_mentions(lines, "\"shed_by\": \"router\"");
  }
  EXPECT_EQ(a.served(), 1);
  EXPECT_EQ(shed, kClients - 1);
  router.stop();
}

// --- shared cache tier -------------------------------------------------------

TEST(CacheSidecarTest, ProtocolRoundTrip) {
  CacheSidecar cache({/*bind_addr=*/"127.0.0.1", /*port=*/0,
                      /*max_entries=*/4, /*max_value_bytes=*/256,
                      /*idle_ms=*/0.0});
  const int port = cache.listen_and_start();
  const int fd = net::connect_with_deadline("127.0.0.1", port, 1000.0);
  ASSERT_GE(fd, 0);
  net::LineReader reader(fd);
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  std::string line;

  ASSERT_TRUE(net::send_line(fd, "{\"cmd\": \"cache_get\", \"key\": \"k1\"}"));
  ASSERT_EQ(reader.read_line(line, deadline), net::LineReader::Result::kLine);
  EXPECT_TRUE(line.find("\"hit\": false") != std::string::npos);

  ASSERT_TRUE(net::send_line(
      fd, "{\"cmd\": \"cache_put\", \"key\": \"k1\", \"value\": \"vv\\n\"}"));
  ASSERT_EQ(reader.read_line(line, deadline), net::LineReader::Result::kLine);
  EXPECT_TRUE(line.find("\"stored\": true") != std::string::npos);

  // Read-your-writes on the very next command.
  ASSERT_TRUE(net::send_line(fd, "{\"cmd\": \"cache_get\", \"key\": \"k1\"}"));
  ASSERT_EQ(reader.read_line(line, deadline), net::LineReader::Result::kLine);
  EXPECT_TRUE(line.find("\"hit\": true") != std::string::npos);
  EXPECT_TRUE(line.find("\"value\": \"vv\\n\"") != std::string::npos)
      << line;

  // Oversized values are refused, not fatal.
  std::string big(1000, 'x');
  ASSERT_TRUE(net::send_line(
      fd, "{\"cmd\": \"cache_put\", \"key\": \"k2\", \"value\": \"" + big +
              "\"}"));
  ASSERT_EQ(reader.read_line(line, deadline), net::LineReader::Result::kLine);
  EXPECT_TRUE(line.find("\"stored\": false") != std::string::npos);

  ASSERT_TRUE(net::send_line(fd, "{\"cmd\": \"stats\"}"));
  ASSERT_EQ(reader.read_line(line, deadline), net::LineReader::Result::kLine);
  EXPECT_TRUE(line.find("\"cache_sidecar\"") != std::string::npos);
  EXPECT_TRUE(line.find("\"size\": 1") != std::string::npos);

  // Generation requests belong to replicas.
  ASSERT_TRUE(net::send_line(fd, "{\"n\": 1}"));
  ASSERT_EQ(reader.read_line(line, deadline), net::LineReader::Result::kLine);
  EXPECT_TRUE(line.find("\"status\": \"bad_request\"") != std::string::npos);

  ::close(fd);
  cache.stop();
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheSidecarTest, PortOutOfRangeThrowsNamingTheTier) {
  // 70000 would wrap to 4464 if narrowed to 16 bits; it must be refused.
  for (const int port : {70000, -1}) {
    CacheSidecar cache({/*bind_addr=*/"127.0.0.1", port,
                        /*max_entries=*/4, /*max_value_bytes=*/256,
                        /*idle_ms=*/0.0});
    try {
      (void)cache.listen_and_start();
      ADD_FAILURE() << "port " << port << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("cache"), std::string::npos)
          << e.what();
    }
  }
}

TEST(NetTest, ConnectRefusesPortOutOfRange) {
  CacheSidecar cache({/*bind_addr=*/"127.0.0.1", /*port=*/0,
                      /*max_entries=*/4, /*max_value_bytes=*/256,
                      /*idle_ms=*/0.0});
  const int port = cache.listen_and_start();
  const int fd = net::connect_with_deadline("127.0.0.1", port, 1000.0);
  ASSERT_GE(fd, 0);
  ::close(fd);
  // Same low 16 bits as the listening port: narrowing would connect.
  EXPECT_EQ(net::connect_with_deadline("127.0.0.1", port + 65536, 1000.0), -1);
  EXPECT_EQ(net::connect_with_deadline("127.0.0.1", -port, 1000.0), -1);
  cache.stop();
}

TEST(CacheSidecarTest, LruEvictsBeyondCapacity) {
  CacheSidecar cache({/*bind_addr=*/"127.0.0.1", /*port=*/0,
                      /*max_entries=*/2, /*max_value_bytes=*/256,
                      /*idle_ms=*/0.0});
  const int port = cache.listen_and_start();
  const int fd = net::connect_with_deadline("127.0.0.1", port, 1000.0);
  ASSERT_GE(fd, 0);
  net::LineReader reader(fd);
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  std::string line;
  for (const char* k : {"a", "b", "c"}) {
    ASSERT_TRUE(net::send_line(fd, std::string("{\"cmd\": \"cache_put\", "
                                               "\"key\": \"") +
                                       k + "\", \"value\": \"v\"}"));
    ASSERT_EQ(reader.read_line(line, deadline),
              net::LineReader::Result::kLine);
  }
  EXPECT_EQ(cache.size(), 2u);
  // "a" was least recently used and is gone; "c" is resident.
  ASSERT_TRUE(net::send_line(fd, "{\"cmd\": \"cache_get\", \"key\": \"a\"}"));
  ASSERT_EQ(reader.read_line(line, deadline), net::LineReader::Result::kLine);
  EXPECT_TRUE(line.find("\"hit\": false") != std::string::npos);
  ASSERT_TRUE(net::send_line(fd, "{\"cmd\": \"cache_get\", \"key\": \"c\"}"));
  ASSERT_EQ(reader.read_line(line, deadline), net::LineReader::Result::kLine);
  EXPECT_TRUE(line.find("\"hit\": true") != std::string::npos);
  ::close(fd);
  cache.stop();
}

/// Lines in /proc/self/maps: each live thread holds a stack and a guard
/// mapping, so an unjoined thread per closed connection shows here.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(CacheSidecarTest, FinishedConnectionThreadsAreReaped) {
  CacheSidecar cache({/*bind_addr=*/"127.0.0.1", /*port=*/0,
                      /*max_entries=*/4, /*max_value_bytes=*/256,
                      /*idle_ms=*/0.0});
  const int port = cache.listen_and_start();
  const std::string stats = "{\"cmd\": \"stats\"}";
  // Each round_trip is one connection: connect, send, read one line,
  // close. Warm-up first, so allocator arenas and the thread-stack cache
  // settle.
  for (int i = 0; i < 50; ++i) ASSERT_FALSE(round_trip(port, stats).empty());
  const std::size_t before = mapping_count();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_FALSE(round_trip(port, stats).empty()) << "exchange " << i;
  }
  const std::size_t after = mapping_count();
  // Unjoined threads would add two mappings per connection (~2,000).
  EXPECT_LT(after, before + 200) << before << " -> " << after;
  cache.stop();
}

/// Connect and stay silent: true when the server hangs up (EOF) within
/// five seconds.
bool closed_while_silent(int port) {
  const int fd = net::connect_with_deadline("127.0.0.1", port, 1000.0);
  if (fd < 0) return false;
  std::string line;
  const auto rc = net::LineReader(fd).read_line(
      line, Clock::now() + std::chrono::seconds(5));
  ::close(fd);
  return rc == net::LineReader::Result::kEof;
}

/// Send `line` `rounds` times on one connection, `gap_ms` apart, so the
/// exchange outlasts the idle timeout: true when every send is answered.
bool answered_while_talking(int port, const std::string& line, int rounds,
                            int gap_ms) {
  const int fd = net::connect_with_deadline("127.0.0.1", port, 1000.0);
  if (fd < 0) return false;
  net::LineReader reader(fd);
  bool ok = true;
  for (int i = 0; ok && i < rounds; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
    std::string resp;
    ok = net::send_line(fd, line) &&
         reader.read_line(resp, Clock::now() + std::chrono::seconds(2)) ==
             net::LineReader::Result::kLine;
  }
  ::close(fd);
  return ok;
}

TEST(CacheSidecarTest, IdleConnectionIsClosedAfterTimeout) {
  CacheSidecar cache({/*bind_addr=*/"127.0.0.1", /*port=*/0,
                      /*max_entries=*/4, /*max_value_bytes=*/256,
                      /*idle_ms=*/150.0});
  const int port = cache.listen_and_start();
  const auto before = obs::counter("cache.idle_timeouts").value();
  EXPECT_TRUE(closed_while_silent(port));
  EXPECT_GT(obs::counter("cache.idle_timeouts").value(), before);
  // 6 x 60 ms of traffic outlasts the 150 ms timeout without idling.
  EXPECT_TRUE(answered_while_talking(port, "{\"cmd\": \"stats\"}", 6, 60));
  cache.stop();
}

TEST(RouterFleetTest, IdleConnectionIsClosedAfterTimeout) {
  FakeReplica a(0, FakeReplica::Mode::kOk);
  auto cfg = fast_router({a.addr()});
  cfg.idle_ms = 150.0;
  Router router(cfg);
  const int port = router.listen_and_start();
  const auto before = obs::counter("router.idle_timeouts").value();
  EXPECT_TRUE(closed_while_silent(port));
  EXPECT_GT(obs::counter("router.idle_timeouts").value(), before);
  EXPECT_TRUE(answered_while_talking(port, "{\"cmd\": \"stats\"}", 6, 60));
  router.stop();
}

TEST(RouterFleetTest, CacheMissFillThenCrossReplicaHit) {
  CacheSidecar cache({/*bind_addr=*/"127.0.0.1", /*port=*/0,
                      /*max_entries=*/64, /*max_value_bytes=*/1 << 16,
                      /*idle_ms=*/0.0});
  const int cache_port = cache.listen_and_start();
  FakeReplica a(0, FakeReplica::Mode::kOk);
  FakeReplica b(1, FakeReplica::Mode::kOk);
  auto cfg = fast_router({a.addr(), b.addr()});
  cfg.cache_addr = "127.0.0.1:" + std::to_string(cache_port);
  Router router(cfg);
  const int port = router.listen_and_start();

  const std::string req = "{\"n\": 1, \"seed\": 77}";
  const auto first = round_trip(port, req);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(cache.size(), 1u) << "first ok response must fill the sidecar";
  const int served_after_first = a.served() + b.served();
  EXPECT_EQ(served_after_first, 1);

  // Kill both replicas: the identical request must now be served purely
  // from the shared cache — byte-identical payload, no replica traffic.
  a.set_mode(FakeReplica::Mode::kDrop);
  b.set_mode(FakeReplica::Mode::kDrop);
  const auto second = round_trip(port, req);
  EXPECT_EQ(second, first);
  EXPECT_EQ(a.served() + b.served(), served_after_first)
      << "a cache hit must not touch any replica";

  // An unseeded request is not idempotent and must bypass the cache.
  const auto third = round_trip(port, "{\"n\": 1}");
  ASSERT_EQ(third.size(), 1u);
  EXPECT_TRUE(third[0].find("\"status\": \"unavailable\"") !=
              std::string::npos);
  router.stop();
  cache.stop();
}

// --- real replicas under injected faults ------------------------------------

TEST(RouterFleetTest, RealReplicasFailoverUnderInjectedFaults) {
  train::clear_stop();
  nn::Tokenizer tok({4, 4, 2, 2, 2, 2, 2, 2});
  Rng rng(7);
  nn::TransformerLM model(nn::ModelConfig::tiny(tok.vocab_size()), rng);
  ServiceConfig scfg;
  scfg.batch_width = 4;
  scfg.sample.max_len = 48;
  GenerationService svc_a(model, tok, scfg);
  GenerationService svc_b(model, tok, scfg);
  ServerConfig server_cfg;
  server_cfg.port = 0;
  JsonLineServer server_a(svc_a, server_cfg);
  JsonLineServer server_b(svc_b, server_cfg);
  const int port_a = server_a.listen_and_start();
  const int port_b = server_b.listen_and_start();

  auto cfg = fast_router({"127.0.0.1:" + std::to_string(port_a),
                          "127.0.0.1:" + std::to_string(port_b)});
  cfg.max_attempts = 6;
  Router router(cfg);
  const int port = router.listen_and_start();

  // The first two generation requests that reach a replica hang up
  // without answering, the third tears its first response line in half.
  // Both servers share the process-wide spec; whichever replica the ring
  // picks, the router must absorb the fault and answer from a retry.
  fault::set_spec("serve_conn_drop:1,serve_conn_drop:2,serve_partial_write:3");
  for (int i = 0; i < 4; ++i) {
    const auto lines = round_trip(
        port, "{\"n\": 1, \"seed\": " + std::to_string(100 + i) + "}", 10000.0);
    ASSERT_FALSE(lines.empty()) << "request " << i;
    for (const auto& l : lines) {
      ASSERT_FALSE(l.empty());
      EXPECT_EQ(l.front(), '{');
      EXPECT_EQ(l.back(), '}');
    }
    EXPECT_TRUE(lines.back().find("\"status\": \"ok\"") != std::string::npos)
        << "request " << i << " got: " << lines.back();
  }
  fault::set_spec("");
  router.stop();
  server_a.stop();
  server_b.stop();
}

}  // namespace
