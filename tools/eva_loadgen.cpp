// eva_loadgen: open-loop load harness for eva_serve_main (DESIGN.md
// "Request timelines & load harness") — the serving regression gate.
//
// Arrivals are an open-loop Poisson process: request send times are
// drawn up front from exponential inter-arrival gaps at --rate and a
// dispatcher releases each request at its scheduled instant regardless
// of how the server is doing — so, unlike a closed-loop client, a slow
// server accumulates queueing delay instead of silently throttling the
// offered load. Each worker owns one persistent connection; client-side
// dispatch skew (scheduled -> actually sent) is measured and reported so
// an undersized worker pool cannot masquerade as server latency.
//
// The workload mixes priorities, deadlines, circuit types, and warm/cold
// cache behaviour (--warm-frac requests reuse a small seed pool, so the
// server's WL-canonical-hash ResultCache sees repeats; the rest use
// unique seeds and always miss). Results are written as BENCH-style JSON
// (--out): offered vs. achieved vs. goodput rates, status counts,
// client- and server-side end-to-end percentiles, per-stage
// (queue/decode/cache/verify) percentiles from the terminator-line
// timelines, the stage-sum vs. e2e coverage ratio, and the server's own
// {"cmd":"stats"} snapshot fetched after the run.
//
// Usage:
//   eva_loadgen [--host H] [--port P] [--rate R] [--duration S]
//               [--n N] [--temperature T] [--deadline-ms D]
//               [--high-frac F] [--low-frac F] [--types a,b,...]
//               [--warm-frac F] [--warm-seeds K] [--conns C]
//               [--retry N] [--retry-base-ms B]
//               [--seed S] [--out PATH] [--strict]
//
// --retry N re-sends a request up to N more times when its terminator
// is "rejected"/"unavailable" (waiting the larger of the server's
// retry_after_ms hint and an exponential-backoff delay from
// serve/backoff.hpp — the same policy the router applies internally) or
// when the transport fails mid-response (reconnect + resend). Every
// response line is also checked for protocol integrity (read_response,
// serve/protocol.hpp): a line that is not a complete JSON object counts
// as "malformed" in the output JSON, and any malformed line fails the
// run — the chaos gate's zero-corruption assertion.
//
// Exit code: 0 when every request got a terminator and no line was
// malformed; with --strict, also requires every terminator to be "ok"
// (the CI gate runs at a low rate where timeouts/rejects mean a
// regression).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "serve/backoff.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"

namespace {

namespace net = eva::serve::net;
using Clock = net::Clock;
using eva::serve::ResponseEnd;

constexpr double kConnectWindowMs = 5000.0;
constexpr auto kNoDeadline = Clock::time_point::max();

// --- config ------------------------------------------------------------------

using eva::mean;
using eva::parse_double;
using eva::parse_int;

struct Config {
  std::string host = "127.0.0.1";
  int port = 7077;
  double rate = 4.0;         // req/s offered
  double duration_s = 5.0;
  int n = 1;                 // topologies per request
  double temperature = 0.0;  // 0 = server default
  double deadline_ms = 0.0;  // 0 = none
  double high_frac = 0.1;    // priority mix: high / low / rest normal
  double low_frac = 0.1;
  std::vector<std::string> types;  // circuit-type mix (round-robin); empty
                                   // = server default type
  double warm_frac = 0.5;    // fraction reusing the warm seed pool
  int warm_seeds = 8;        // pool size: smaller = warmer
  int conns = 16;
  int retry = 0;
  double retry_base_ms = 25.0;  // backoff base for --retry
  std::uint64_t seed = 1;    // arrival + mix RNG
  std::string out = "BENCH_loadgen.json";
  bool strict = false;
};

// --- per-request record ------------------------------------------------------

struct Shot {
  double sched_s = 0.0;   // scheduled send time, relative to run start
  std::string payload;    // request line
};

struct Outcome {
  eva::serve::Terminator done;  // status "" = transport failure
  double client_ms = 0.0;   // send -> terminator observed
  double skew_ms = 0.0;     // scheduled -> actually sent (client-side lag)
  int items_valid = 0;
  int retries = 0;    // extra attempts this request consumed
  int malformed = 0;  // response lines that were not complete JSON objects
};

struct Aggregate {
  std::mutex mu;
  std::vector<Outcome> outcomes;
};

/// util/stats' percentile, with 0 for an empty series.
double percentile_or_0(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : eva::percentile(xs, p);
}

void percentiles_json(FILE* f, const char* key,
                      const std::vector<double>& xs) {
  std::fprintf(f,
               "\"%s\": {\"count\": %zu, \"mean\": %.6g, \"p50\": %.6g, "
               "\"p90\": %.6g, \"p99\": %.6g, \"max\": %.6g}",
               key, xs.size(), mean(xs), percentile_or_0(xs, 50.0),
               percentile_or_0(xs, 90.0), percentile_or_0(xs, 99.0),
               xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end()));
}

// --- worker ------------------------------------------------------------------

struct Dispatcher {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<Shot, Clock::time_point>> ready;  // shot + due time
  bool closed = false;
};

void worker_loop(const Config& cfg, int widx, Dispatcher& disp,
                 Aggregate& agg) {
  const eva::serve::BackoffPolicy backoff{cfg.retry_base_ms, 1000.0};
  int fd = net::connect_retrying(cfg.host, cfg.port, kConnectWindowMs);
  net::LineReader reader(fd);
  std::uint64_t attempt_seq = 0;
  const auto backoff_ms = [&](int attempt) {
    return backoff.delay_ms(attempt + 1,
                            cfg.seed ^ static_cast<std::uint64_t>(widx) << 32 ^
                                ++attempt_seq);
  };
  for (;;) {
    std::pair<Shot, Clock::time_point> job;
    {
      std::unique_lock<std::mutex> lk(disp.mu);
      disp.cv.wait(lk, [&] { return disp.closed || !disp.ready.empty(); });
      if (disp.ready.empty()) break;  // closed and drained
      job = std::move(disp.ready.front());
      disp.ready.pop_front();
    }
    Outcome oc;
    oc.skew_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           job.second)
                     .count();
    const auto t0 = Clock::now();
    const auto count_valid = [&oc](const std::string& line) {
      if (line.find("\"valid\": true") != std::string::npos) ++oc.items_valid;
    };
    for (int attempt = 0; attempt <= cfg.retry; ++attempt) {
      if (attempt > 0) ++oc.retries;
      if (fd < 0) {  // lazy reconnect
        fd = net::connect_retrying(cfg.host, cfg.port, kConnectWindowMs);
        reader = net::LineReader(fd);
      }
      if (fd < 0) break;
      oc.done = {};
      oc.items_valid = 0;
      ResponseEnd end = ResponseEnd::kClosed;
      if (net::send_line(fd, job.first.payload)) {
        end = eva::serve::read_response(reader, kNoDeadline, count_valid,
                                        &oc.done);
      }
      // A torn line (e.g. a replica killed mid-write) is protocol
      // corruption and fails the whole run.
      if (end == ResponseEnd::kTorn) ++oc.malformed;
      if (end != ResponseEnd::kDone) {
        // Transport failure: drop the connection so the retry (or the
        // next job) reconnects from scratch.
        ::close(fd);
        fd = -1;
        if (attempt < cfg.retry) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(backoff_ms(attempt)));
        }
        continue;
      }
      oc.client_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      // Backpressure terminators are retryable while budget remains,
      // waiting the larger of the server's hint and the backoff delay.
      if (oc.done.backpressure() && attempt < cfg.retry) {
        const double wait_ms = std::max(oc.done.retry_after_ms.value_or(0.0),
                                        backoff_ms(attempt));
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(wait_ms));
        continue;
      }
      break;
    }
    std::lock_guard<std::mutex> lk(agg.mu);
    agg.outcomes.push_back(std::move(oc));
  }
  if (fd >= 0) ::close(fd);
}

// --- payload synthesis -------------------------------------------------------

std::string make_payload(const Config& cfg, std::mt19937_64& rng,
                         std::size_t index) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::string p = "{\"n\": " + std::to_string(cfg.n);
  if (cfg.temperature > 0.0) {
    p += ", \"temperature\": " + std::to_string(cfg.temperature);
  }
  if (cfg.deadline_ms > 0.0) {
    p += ", \"deadline_ms\": " + std::to_string(cfg.deadline_ms);
  }
  const double pr = uni(rng);
  if (pr < cfg.high_frac) {
    p += ", \"priority\": \"high\"";
  } else if (pr < cfg.high_frac + cfg.low_frac) {
    p += ", \"priority\": \"low\"";
  }
  if (!cfg.types.empty()) {
    p += ", \"type\": \"" + cfg.types[index % cfg.types.size()] + "\"";
  }
  // Warm requests draw seeds from a small pool: the first occurrence of
  // each pooled seed is a cold miss, every repeat is a canonical-hash
  // cache hit. Cold requests use unique seeds and always miss.
  std::uint64_t seed;
  if (uni(rng) < cfg.warm_frac && cfg.warm_seeds > 0) {
    seed = 1 + (rng() % static_cast<std::uint64_t>(cfg.warm_seeds));
  } else {
    seed = 1'000'000 + index;
  }
  p += ", \"seed\": " + std::to_string(seed) + "}";
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  net::ignore_sigpipe();
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--host") cfg.host = next();
    else if (arg == "--port") cfg.port = parse_int(next(), cfg.port);
    else if (arg == "--rate") cfg.rate = parse_double(next(), cfg.rate);
    else if (arg == "--duration")
      cfg.duration_s = parse_double(next(), cfg.duration_s);
    else if (arg == "--n") cfg.n = parse_int(next(), cfg.n, 1);
    else if (arg == "--temperature")
      cfg.temperature = parse_double(next(), cfg.temperature);
    else if (arg == "--deadline-ms")
      cfg.deadline_ms = parse_double(next(), cfg.deadline_ms);
    else if (arg == "--high-frac")
      cfg.high_frac = parse_double(next(), cfg.high_frac);
    else if (arg == "--low-frac")
      cfg.low_frac = parse_double(next(), cfg.low_frac);
    else if (arg == "--warm-frac")
      cfg.warm_frac = parse_double(next(), cfg.warm_frac);
    else if (arg == "--warm-seeds")
      cfg.warm_seeds = parse_int(next(), cfg.warm_seeds);
    else if (arg == "--conns") cfg.conns = parse_int(next(), cfg.conns, 1);
    else if (arg == "--retry") cfg.retry = parse_int(next(), cfg.retry, 0);
    else if (arg == "--retry-base-ms")
      cfg.retry_base_ms = parse_double(next(), cfg.retry_base_ms);
    else if (arg == "--seed") cfg.seed = static_cast<std::uint64_t>(
        std::strtoull(next(), nullptr, 10));
    else if (arg == "--out") cfg.out = next();
    else if (arg == "--strict") cfg.strict = true;
    else if (arg == "--types") {
      std::string list = next();
      std::size_t pos = 0, comma;
      while ((comma = list.find(',', pos)) != std::string::npos) {
        cfg.types.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
      }
      if (pos < list.size()) cfg.types.push_back(list.substr(pos));
    } else {
      std::fprintf(stderr, "eva_loadgen: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!(cfg.rate > 0.0) || !(cfg.duration_s > 0.0)) {
    std::fprintf(stderr, "eva_loadgen: --rate and --duration must be > 0\n");
    return 2;
  }

  // Deterministic arrival schedule: exponential inter-arrival gaps.
  std::mt19937_64 rng(cfg.seed);
  std::exponential_distribution<double> gap(cfg.rate);
  std::vector<Shot> shots;
  double t = gap(rng);
  while (t < cfg.duration_s && shots.size() < 200'000) {
    Shot s;
    s.sched_s = t;
    s.payload = make_payload(cfg, rng, shots.size());
    shots.push_back(std::move(s));
    t += gap(rng);
  }
  std::fprintf(stderr,
               "eva_loadgen: offering %zu requests over %.1fs (%.2f rps) to "
               "%s:%d with %d connections\n",
               shots.size(), cfg.duration_s, cfg.rate, cfg.host.c_str(),
               cfg.port, cfg.conns);

  Dispatcher disp;
  Aggregate agg;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.conns));
  for (int i = 0; i < cfg.conns; ++i) {
    workers.emplace_back([&, i] { worker_loop(cfg, i, disp, agg); });
  }

  // Open-loop dispatch: release each shot at its scheduled instant, no
  // matter how many are still in flight.
  const auto start = Clock::now();
  for (Shot& s : shots) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s.sched_s));
    std::this_thread::sleep_until(due);
    {
      std::lock_guard<std::mutex> lk(disp.mu);
      disp.ready.emplace_back(std::move(s), due);
    }
    disp.cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lk(disp.mu);
    disp.closed = true;
  }
  disp.cv.notify_all();
  for (auto& w : workers) w.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Post-run: the server's own live snapshot, embedded verbatim.
  std::string stats_line;
  if (const int fd = net::connect_retrying(cfg.host, cfg.port,
                                           kConnectWindowMs);
      fd >= 0) {
    net::LineReader reader(fd);
    if (net::send_line(fd, "{\"cmd\":\"stats\"}")) {
      (void)eva::serve::read_response(
          reader, kNoDeadline,
          [&stats_line](const std::string& line) { stats_line = line; });
    }
    ::close(fd);
  }

  // Aggregate.
  std::vector<double> client_ms, server_ms, skew_ms;
  std::vector<double> queue_ms, decode_ms, cache_ms, verify_ms, sum_ms;
  std::size_t n_ok = 0, n_timeout = 0, n_rejected = 0, n_other = 0,
              n_transport = 0;
  long long n_retries = 0, n_malformed = 0;
  long long valid_items = 0;
  double tokens = 0.0;
  for (const Outcome& oc : agg.outcomes) {
    skew_ms.push_back(oc.skew_ms);
    n_retries += oc.retries;
    n_malformed += oc.malformed;
    const std::string& status = oc.done.status;
    if (status.empty()) {
      ++n_transport;
      continue;
    }
    if (status == "ok") {
      ++n_ok;
      client_ms.push_back(oc.client_ms);
      server_ms.push_back(oc.done.latency_ms);
      valid_items += oc.items_valid;
      tokens += oc.done.tokens;
      if (const auto& st = oc.done.stages) {
        queue_ms.push_back(st->queue_ms);
        decode_ms.push_back(st->decode_ms);
        cache_ms.push_back(st->cache_ms);
        verify_ms.push_back(st->verify_ms);
        sum_ms.push_back(st->queue_ms + st->decode_ms + st->cache_ms +
                         st->verify_ms);
      }
    } else if (status == "timeout") {
      ++n_timeout;
    } else if (status == "rejected") {
      ++n_rejected;
    } else {
      ++n_other;
    }
  }
  // Stage coverage: how much of the server-reported e2e the four stages
  // explain (should be ~1.0 — the acceptance bar for the attribution).
  const double stage_coverage =
      server_ms.empty() || mean(server_ms) <= 0.0
          ? 0.0
          : mean(sum_ms) / mean(server_ms);

  FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "eva_loadgen: cannot write %s\n", cfg.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"context\": {\"tool\": \"eva_loadgen\", ");
  std::fprintf(f,
               "\"rate_rps\": %.6g, \"duration_s\": %.6g, \"n\": %d, "
               "\"deadline_ms\": %.6g, \"high_frac\": %.6g, \"low_frac\": "
               "%.6g, \"warm_frac\": %.6g, \"warm_seeds\": %d, \"conns\": "
               "%d, \"seed\": %llu},\n",
               cfg.rate, cfg.duration_s, cfg.n, cfg.deadline_ms,
               cfg.high_frac, cfg.low_frac, cfg.warm_frac, cfg.warm_seeds,
               cfg.conns, static_cast<unsigned long long>(cfg.seed));
  std::fprintf(f, "  \"results\": {\n");
  std::fprintf(f, "    \"offered\": %zu,\n", shots.size());
  std::fprintf(f, "    \"offered_rps\": %.6g,\n",
               static_cast<double>(shots.size()) / cfg.duration_s);
  std::fprintf(f,
               "    \"counts\": {\"ok\": %zu, \"timeout\": %zu, \"rejected\": "
               "%zu, \"other\": %zu, \"transport_error\": %zu, \"malformed\": "
               "%lld, \"retries\": %lld},\n",
               n_ok, n_timeout, n_rejected, n_other, n_transport, n_malformed,
               n_retries);
  std::fprintf(f, "    \"goodput_rps\": %.6g,\n",
               wall_s > 0.0 ? static_cast<double>(n_ok) / wall_s : 0.0);
  std::fprintf(f, "    \"valid_circuits\": %lld,\n", valid_items);
  std::fprintf(f, "    \"valid_circuits_per_sec\": %.6g,\n",
               wall_s > 0.0 ? static_cast<double>(valid_items) / wall_s : 0.0);
  std::fprintf(f, "    \"tokens\": %.6g,\n", tokens);
  std::fprintf(f, "    \"wall_s\": %.6g,\n", wall_s);
  std::fprintf(f, "    ");
  percentiles_json(f, "e2e_client_ms", client_ms);
  std::fprintf(f, ",\n    ");
  percentiles_json(f, "e2e_server_ms", server_ms);
  std::fprintf(f, ",\n    ");
  percentiles_json(f, "dispatch_skew_ms", skew_ms);
  std::fprintf(f, ",\n    \"stages\": {");
  percentiles_json(f, "queue_ms", queue_ms);
  std::fprintf(f, ", ");
  percentiles_json(f, "decode_ms", decode_ms);
  std::fprintf(f, ", ");
  percentiles_json(f, "cache_ms", cache_ms);
  std::fprintf(f, ", ");
  percentiles_json(f, "verify_ms", verify_ms);
  std::fprintf(f, ", ");
  percentiles_json(f, "stage_sum_ms", sum_ms);
  std::fprintf(f, "},\n");
  std::fprintf(f, "    \"stage_coverage\": %.6g\n  }", stage_coverage);
  if (!stats_line.empty()) {
    std::fprintf(f, ",\n  \"server_stats\": %s", stats_line.c_str());
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);

  std::fprintf(stderr,
               "eva_loadgen: ok=%zu timeout=%zu rejected=%zu other=%zu "
               "transport=%zu malformed=%lld retries=%lld goodput=%.2f rps "
               "p50=%.1fms p99=%.1fms stage_coverage=%.3f -> %s\n",
               n_ok, n_timeout, n_rejected, n_other, n_transport, n_malformed,
               n_retries,
               wall_s > 0.0 ? static_cast<double>(n_ok) / wall_s : 0.0,
               percentile_or_0(client_ms, 50.0),
               percentile_or_0(client_ms, 99.0),
               stage_coverage, cfg.out.c_str());

  // Protocol corruption is never acceptable, at any strictness level.
  if (n_malformed > 0) return 1;
  const bool all_answered = n_transport == 0 &&
                            agg.outcomes.size() == shots.size();
  if (!all_answered) return 1;
  if (cfg.strict && (n_timeout + n_rejected + n_other) > 0) return 1;
  return 0;
}
