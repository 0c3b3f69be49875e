#include "serve/router.hpp"

#include <unistd.h>

#include <algorithm>
#include <functional>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "train/signal.hpp"
#include "util/error.hpp"

namespace eva::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::steady_clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

bool split_addr(std::string_view addr, std::string* host, int* port) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= addr.size()) {
    return false;
  }
  int p = 0;
  for (std::size_t i = colon + 1; i < addr.size(); ++i) {
    const char c = addr[i];
    if (c < '0' || c > '9') return false;
    p = p * 10 + (c - '0');
    if (p > 65535) return false;
  }
  if (p < 1) return false;
  *host = std::string(addr.substr(0, colon));
  *port = p;
  return true;
}

/// Terminator the router synthesizes when it sheds a request before
/// dispatch. Same shape as a replica rejection, attributed to the router.
std::string shed_json(double retry_after_ms) {
  std::string out =
      "{\"done\": true, \"status\": \"rejected\", \"request_id\": 0, "
      "\"items\": 0, \"latency_ms\": 0, \"retry_after_ms\": ";
  obs::json_number_into(out, retry_after_ms);
  out += ", \"shed_by\": \"router\"}";
  return out;
}

/// Terminator for a request whose attempt budget is exhausted: every
/// admitted request resolves with a clean line, never a hang or a tear.
std::string unavailable_json(int attempts, const std::string& error,
                             double retry_after_ms) {
  std::string out =
      "{\"done\": true, \"status\": \"unavailable\", \"request_id\": 0, "
      "\"items\": 0, \"latency_ms\": 0, \"attempts\": ";
  obs::json_number_into(out, static_cast<std::int64_t>(attempts));
  out += ", \"retry_after_ms\": ";
  obs::json_number_into(out, retry_after_ms);
  out += ", \"error\": ";
  obs::json_string_into(out, error);
  out += "}";
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// HashRing

HashRing::HashRing(const std::vector<std::size_t>& members, int vnodes)
    : n_members_(members.size()) {
  const int vn = std::max(1, vnodes);
  points_.reserve(members.size() * static_cast<std::size_t>(vn));
  for (const std::size_t m : members) {
    // Each member's points depend only on its own identity, so removing
    // a member leaves every other member's points — and therefore every
    // other member's keys — exactly where they were.
    for (int v = 0; v < vn; ++v) {
      const std::uint64_t salt =
          (static_cast<std::uint64_t>(m) + 1) * 0x9E3779B97F4A7C15ULL +
          static_cast<std::uint64_t>(v);
      points_.emplace_back(splitmix64(salt), m);
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::size_t HashRing::primary(std::uint64_t key) const {
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const auto& pt, std::uint64_t k) { return pt.first < k; });
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->second;
}

std::vector<std::size_t> HashRing::preference(std::uint64_t key) const {
  std::vector<std::size_t> order;
  order.reserve(n_members_);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const auto& pt, std::uint64_t k) { return pt.first < k; });
  std::size_t idx = static_cast<std::size_t>(it - points_.begin());
  for (std::size_t seen = 0;
       seen < points_.size() && order.size() < n_members_; ++seen) {
    const std::size_t m = points_[(idx + seen) % points_.size()].second;
    if (std::find(order.begin(), order.end(), m) == order.end()) {
      order.push_back(m);
    }
  }
  return order;
}

std::uint64_t request_ring_key(int type_tag, std::uint64_t seed,
                               std::uint64_t spread) {
  const std::uint64_t bucket = seed != 0 ? seed : ~spread;
  return splitmix64(
      static_cast<std::uint64_t>(type_tag) * 0xBF58476D1CE4E5B9ULL ^
      splitmix64(bucket));
}

// ---------------------------------------------------------------------------
// CircuitBreaker

bool CircuitBreaker::allow(std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lk(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen: {
      const double waited =
          std::chrono::duration<double, std::milli>(now - opened_at_).count();
      if (waited < cooldown_ms_) return false;
      state_ = State::kHalfOpen;
      trial_inflight_ = true;  // this caller is the trial
      return true;
    }
    case State::kHalfOpen:
      if (trial_inflight_) return false;
      trial_inflight_ = true;
      return true;
  }
  return false;  // unreachable
}

bool CircuitBreaker::record_success() {
  std::lock_guard<std::mutex> lk(mu_);
  const bool recovered = state_ != State::kClosed;
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  trial_inflight_ = false;
  return recovered;
}

bool CircuitBreaker::record_failure(std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lk(mu_);
  trial_inflight_ = false;
  if (state_ == State::kHalfOpen) {
    state_ = State::kOpen;
    opened_at_ = now;
    return true;  // the trial failed: back to open
  }
  if (state_ == State::kOpen) return false;  // already open (prober race)
  if (++consecutive_failures_ >= threshold_) {
    state_ = State::kOpen;
    opened_at_ = now;
    return true;
  }
  return false;
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lk(mu_);
  return state_;
}

const char* CircuitBreaker::state_name(State s) {
  switch (s) {
    case State::kClosed: return "closed";
    case State::kOpen: return "open";
    case State::kHalfOpen: return "half_open";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Router

/// Outcome of one buffered replica exchange. kOk and kReject carry a
/// complete, relayable payload; everything else is retryable (the client
/// has seen none of it).
struct Router::ForwardOutcome {
  enum class Kind { kOk, kReject, kTransport, kTimeout };
  Kind kind = Kind::kTransport;
  std::string payload;  // full multi-line response, each line '\n'-terminated
  std::string error;
};

Router::Router(RouterConfig cfg)
    : cfg_(std::move(cfg)),
      lines_("router", cfg_.bind_addr, cfg_.port, cfg_.idle_ms, [this] {
        if (prober_.joinable()) prober_.join();
      }) {
  std::vector<std::size_t> members;
  for (const std::string& b : cfg_.backends) {
    std::string host;
    int port = 0;
    if (!split_addr(b, &host, &port)) {
      throw ConfigError("router: bad backend address: " + b);
    }
    replicas_.push_back(std::make_unique<Replica>(
        std::move(host), port, b, cfg_.breaker_threshold,
        cfg_.breaker_cooldown_ms));
    members.push_back(replicas_.size() - 1);
  }
  if (replicas_.empty()) {
    throw ConfigError("router: no backends configured (EVA_ROUTER_BACKENDS)");
  }
  if (!cfg_.cache_addr.empty()) {
    std::string host;
    int port = 0;
    if (!split_addr(cfg_.cache_addr, &host, &port)) {
      throw ConfigError("router: bad cache address: " + cfg_.cache_addr);
    }
  }
  ring_ = std::make_unique<HashRing>(members, cfg_.vnodes);
}

Router::~Router() { stop(); }

int Router::listen_and_start() {
  const int port = lines_.start([this](int fd) -> LineServer::LineHandler {
    return std::bind_front(&Router::answer, this, fd);
  });
  prober_ = std::thread([this] { health_loop(); });
  return port;
}

void Router::run() {
  lines_.run();
  stop();
}

void Router::stop() {
  lines_.stop();
  std::lock_guard<std::mutex> lk(cache_mu_);
  cache_drop_locked();
}

std::vector<Router::ReplicaSnapshot> Router::replica_snapshots() const {
  std::vector<ReplicaSnapshot> out;
  out.reserve(replicas_.size());
  for (const auto& r : replicas_) {
    ReplicaSnapshot s;
    s.addr = r->addr;
    s.breaker = r->breaker.state();
    s.healthy = r->healthy.load();
    s.failures = r->failures.load();
    s.successes = r->successes.load();
    out.push_back(std::move(s));
  }
  return out;
}

void Router::health_loop() {
  while (!lines_.stopping() && !train::stop_requested()) {
    for (auto& r : replicas_) {
      if (lines_.stopping()) break;
      // allow() doubles as the open -> half-open transition: the prober
      // is the half-open trial, so a replica recovers without waiting
      // for data traffic to gamble on it.
      if (!r->breaker.allow(Clock::now())) {
        r->healthy.store(false);
        continue;
      }
      const bool ok = probe(*r);
      r->healthy.store(ok);
      if (ok) {
        note_success(*r);
      } else {
        note_failure(*r);
      }
    }
    lines_.pause(cfg_.health_interval_ms);
  }
}

bool Router::probe(Replica& r) {
  const int fd =
      net::connect_with_deadline(r.host, r.port, cfg_.probe_timeout_ms);
  if (fd < 0) return false;
  net::LineReader reader(fd);
  const bool ok =
      net::send_line(fd, "{\"cmd\": \"stats\"}") &&
      read_response(reader, Clock::now() + ms_duration(cfg_.probe_timeout_ms),
                    [](const std::string&) {}) == ResponseEnd::kDone;
  ::close(fd);
  return ok;
}

void Router::note_success(Replica& r) {
  r.successes.fetch_add(1);
  if (r.breaker.record_success()) {
    obs::counter("router.breaker_recoveries").add();
    obs::log_info("router.breaker_close", {{"replica", r.addr}});
  }
}

void Router::note_failure(Replica& r) {
  r.failures.fetch_add(1);
  if (r.breaker.record_failure(Clock::now())) {
    obs::counter("router.breaker_trips").add();
    obs::log_warn("router.breaker_open", {{"replica", r.addr}});
  }
}

bool Router::answer(int fd, const std::string& line,
                    const ParsedLine& parsed) {
  static obs::Counter& requests = obs::counter("router.requests");
  static obs::Counter& shed = obs::counter("router.shed");
  static obs::Histogram& dispatch_h = obs::histogram("router.dispatch_ms");
  if (parsed.kind == ParsedLine::Kind::kStats) {
    return net::send_line(fd, stats_json());
  }
  if (parsed.kind != ParsedLine::Kind::kGenerate) {
    return net::send_line(
        fd, bad_request_json("cache commands are answered by the sidecar"));
  }
  requests.add();
  // Load shedding: above max_inflight the router answers with clean
  // backpressure immediately instead of queueing behind a congested
  // fleet — the client's retry policy takes it from there. Admission is
  // the increment itself, so concurrent connections cannot all pass a
  // check made before any of them counted.
  if (inflight_.fetch_add(1) >= static_cast<long>(cfg_.max_inflight)) {
    inflight_.fetch_sub(1);
    shed.add();
    return net::send_line(fd, shed_json(cfg_.shed_retry_after_ms));
  }
  const auto t0 = Clock::now();
  std::string payload = dispatch(parsed, line);
  dispatch_h.record(
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  inflight_.fetch_sub(1);
  return net::send_all(fd, payload);
}

std::string Router::dispatch(const ParsedLine& parsed, const std::string& line) {
  static obs::Counter& retries = obs::counter("router.retries");
  static obs::Counter& cache_hits = obs::counter("router.cache_hits");
  static obs::Counter& cache_misses = obs::counter("router.cache_misses");
  static obs::Counter& cache_fills = obs::counter("router.cache_fills");
  static obs::Counter& unavailable = obs::counter("router.unavailable");

  const Request& req = parsed.req;
  const bool cacheable = !cfg_.cache_addr.empty() && req.seed != 0;
  std::string key;
  if (cacheable) {
    key = cache_key(req);
    std::string payload;
    if (cache_get(key, &payload)) {
      cache_hits.add();
      return payload;
    }
    cache_misses.add();
  }

  const std::uint64_t rk = request_ring_key(
      static_cast<int>(req.type), req.seed, spread_.fetch_add(1));
  const std::vector<std::size_t> pref = ring_->preference(rk);

  ForwardOutcome last;
  last.error = "no replica available";
  // Replicas whose forward of this request timed out: they may still be
  // working on it, so it is not sent to them again.
  std::vector<bool> timed_out(replicas_.size(), false);
  int attempt = 0;
  while (attempt < cfg_.max_attempts) {
    const std::size_t idx = pref[static_cast<std::size_t>(attempt) % pref.size()];
    Replica& r = *replicas_[idx];
    ++attempt;
    if (timed_out[idx] || !r.breaker.allow(Clock::now())) {
      // Timed out already or breaker open: move on without burning
      // backoff time — when no replica is left this degrades to an
      // immediate clean error.
      continue;
    }
    ForwardOutcome o = forward_once(r, line, cfg_.replica_timeout_ms);
    if (o.kind == ForwardOutcome::Kind::kTimeout) timed_out[idx] = true;
    if (o.kind == ForwardOutcome::Kind::kOk ||
        o.kind == ForwardOutcome::Kind::kReject) {
      note_success(r);
      if (o.kind == ForwardOutcome::Kind::kOk && cacheable) {
        cache_fills.add();
        cache_put(key, o.payload);
      }
      return std::move(o.payload);
    }
    note_failure(r);
    last = std::move(o);
    if (attempt < cfg_.max_attempts) {
      retries.add();
      lines_.pause(cfg_.backoff.delay_ms(attempt, cfg_.seed ^ rk));
    }
  }

  unavailable.add();
  obs::log_every_n(obs::LogLevel::kWarn, "router.unavailable", 10,
                   {{"error", last.error}});
  std::string out =
      unavailable_json(attempt, last.error, cfg_.shed_retry_after_ms);
  out += '\n';
  return out;
}

Router::ForwardOutcome Router::forward_once(Replica& r,
                                            const std::string& line,
                                            double timeout_ms) {
  ForwardOutcome out;
  const auto deadline = Clock::now() + ms_duration(timeout_ms);
  const int fd = net::connect_with_deadline(
      r.host, r.port, std::min(timeout_ms, 1000.0));
  if (fd < 0) {
    out.error = "connect failed: " + r.addr;
    return out;
  }
  net::LineReader reader(fd);
  Terminator done;
  // The whole response is buffered before the client sees one byte, and
  // every buffered line must look like a complete JSON object: a replica
  // dying mid-line (serve_partial_write) is a transport failure here,
  // never a torn line downstream.
  const auto buffer = [&out](const std::string& resp) {
    out.payload += resp;
    out.payload += '\n';
  };
  if (!net::send_line(fd, line)) {
    out.error = "write failed: " + r.addr;
  } else {
    switch (read_response(reader, deadline, buffer, &done)) {
      case ResponseEnd::kDone:
        if (done.status == "shutdown") {
          // The replica is draining and did no work: retryable.
          out.error = "replica draining: " + r.addr;
        } else {
          out.kind = done.status == "rejected" ? ForwardOutcome::Kind::kReject
                                               : ForwardOutcome::Kind::kOk;
        }
        break;
      case ResponseEnd::kTorn:
        out.error = "malformed replica line: " + r.addr;
        break;
      case ResponseEnd::kTimeout:
        out.kind = ForwardOutcome::Kind::kTimeout;
        out.error = "replica timeout: " + r.addr;
        break;
      case ResponseEnd::kClosed:
        out.error = "connection closed mid-response: " + r.addr;
        break;
    }
  }
  if (out.kind != ForwardOutcome::Kind::kOk &&
      out.kind != ForwardOutcome::Kind::kReject) {
    out.payload.clear();  // partial responses never leave the router
  }
  ::close(fd);
  return out;
}

std::string Router::stats_json() const {
  std::string out =
      "{\"done\": true, \"status\": \"ok\", \"cmd\": \"stats\", "
      "\"router\": {\"backends\": ";
  obs::json_number_into(out, static_cast<std::int64_t>(replicas_.size()));
  out += ", \"inflight\": ";
  obs::json_number_into(out, static_cast<std::int64_t>(inflight_.load()));
  const auto emit_counter = [&out](const char* field, const char* name) {
    out += ", \"";
    out += field;
    out += "\": ";
    obs::json_number_into(out, obs::counter(name).value());
  };
  emit_counter("requests", "router.requests");
  emit_counter("shed", "router.shed");
  emit_counter("retries", "router.retries");
  emit_counter("breaker_trips", "router.breaker_trips");
  emit_counter("breaker_recoveries", "router.breaker_recoveries");
  emit_counter("cache_hits", "router.cache_hits");
  emit_counter("cache_misses", "router.cache_misses");
  emit_counter("unavailable", "router.unavailable");
  out += ", \"replicas\": [";
  bool first = true;
  for (const auto& snap : replica_snapshots()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"addr\": ";
    obs::json_string_into(out, snap.addr);
    out += ", \"breaker\": \"";
    out += CircuitBreaker::state_name(snap.breaker);
    out += "\", \"healthy\": ";
    out += snap.healthy ? "true" : "false";
    out += ", \"failures\": ";
    obs::json_number_into(out, static_cast<std::int64_t>(snap.failures));
    out += ", \"successes\": ";
    obs::json_number_into(out, static_cast<std::int64_t>(snap.successes));
    out += "}";
  }
  out += "]}}";
  return out;
}

// ---------------------------------------------------------------------------
// Shared-cache client

std::string Router::cache_key(const Request& req) const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "t%d:n%d:T%.6g:s%llu",
                static_cast<int>(req.type), req.n,
                static_cast<double>(req.temperature),
                static_cast<unsigned long long>(req.seed));
  return buf;
}

bool Router::cache_connect_locked() {
  if (cache_fd_ >= 0) return true;
  std::string host;
  int port = 0;
  if (!split_addr(cfg_.cache_addr, &host, &port)) return false;
  const int fd = net::connect_with_deadline(host, port, cfg_.probe_timeout_ms);
  if (fd < 0) {
    obs::log_every_n(obs::LogLevel::kWarn, "router.cache_unreachable", 20,
                     {{"addr", cfg_.cache_addr}});
    return false;
  }
  cache_fd_ = fd;
  cache_reader_ = std::make_unique<net::LineReader>(fd);
  return true;
}

void Router::cache_drop_locked() {
  if (cache_fd_ >= 0) {
    ::close(cache_fd_);
    cache_fd_ = -1;
  }
  cache_reader_.reset();
}

bool Router::cache_get(const std::string& key, std::string* payload) {
  std::lock_guard<std::mutex> lk(cache_mu_);
  // One retry: the persistent connection may have gone stale (sidecar
  // restart) — reconnect once, then degrade to a miss.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!cache_connect_locked()) return false;
    std::string req = "{\"cmd\": \"cache_get\", \"key\": ";
    obs::json_string_into(req, key);
    req += "}";
    if (!net::send_line(cache_fd_, req)) {
      cache_drop_locked();
      continue;
    }
    std::string resp;
    const auto rc = cache_reader_->read_line(
        resp, Clock::now() + ms_duration(cfg_.probe_timeout_ms));
    if (rc != net::LineReader::Result::kLine) {
      cache_drop_locked();
      continue;
    }
    std::string err;
    auto parsed = parse_line(resp, &err);
    if (!parsed || parsed->kind != ParsedLine::Kind::kCacheGet) return false;
    if (parsed->value.empty()) return false;  // miss
    *payload = std::move(parsed->value);
    return true;
  }
  return false;
}

void Router::cache_put(const std::string& key, const std::string& payload) {
  if (payload.empty() || payload.size() >= kMaxCacheValue - 2048) return;
  std::lock_guard<std::mutex> lk(cache_mu_);
  if (!cache_connect_locked()) return;
  std::string req = "{\"cmd\": \"cache_put\", \"key\": ";
  obs::json_string_into(req, key);
  req += ", \"value\": ";
  obs::json_string_into(req, payload);
  req += "}";
  if (!net::send_line(cache_fd_, req)) {
    cache_drop_locked();
    return;
  }
  // Read-your-writes: the sidecar acks only once the entry is resident,
  // so waiting for the ack here means the next get (from any router
  // thread) hits.
  std::string resp;
  const auto rc = cache_reader_->read_line(
      resp, Clock::now() + ms_duration(cfg_.probe_timeout_ms));
  if (rc != net::LineReader::Result::kLine) cache_drop_locked();
}

std::vector<std::string> parse_backend_list(std::string_view spec) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view item = spec.substr(start, end - start);
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t')) {
      item.remove_prefix(1);
    }
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t')) {
      item.remove_suffix(1);
    }
    std::string host;
    int port = 0;
    if (!item.empty() && split_addr(item, &host, &port)) {
      out.emplace_back(item);
    }
    if (end == spec.size()) break;
    start = end + 1;
  }
  return out;
}

}  // namespace eva::serve
