// Serving-layer suite (DESIGN.md §10): GenerationService scheduling
// semantics (future round-trip, strict priorities, deadline expiry,
// queue-full backpressure, graceful drain), ResultCache LRU bound and
// recency, canonical-hash memoization (cache hits on
// resubmission of identical topologies), the JSON-lines wire protocol,
// a live TCP loopback round trip, the hardened ids_to_netlist_checked
// path under adversarial token sequences, WL canonical-hash properties,
// and the periodic metrics flusher.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuit/canon.hpp"
#include "data/builder.hpp"
#include "data/generators.hpp"
#include "nn/sampler.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "obs/metrics.hpp"
#include "json_check.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/stats.hpp"
#include "serve/timeline.hpp"
#include "train/signal.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace {

using namespace eva;
using namespace eva::serve;

nn::Tokenizer small_tokenizer() {
  return nn::Tokenizer({4, 4, 2, 2, 2, 2, 2, 2});
}

/// Tiny model + service fixture. Each test gets a fresh service so the
/// scheduler thread never outlives the test's assertions.
struct ServeFixture {
  explicit ServeFixture(ServiceConfig cfg = {})
      : tok(small_tokenizer()),
        rng(99),
        model(nn::ModelConfig::tiny(tok.vocab_size()), rng),
        service(model, tok, cfg) {}

  nn::Tokenizer tok;
  Rng rng;
  nn::TransformerLM model;
  GenerationService service;
};

ServiceConfig fast_config() {
  ServiceConfig cfg;
  cfg.batch_width = 4;
  cfg.sample.max_len = 48;  // keep tiny-model decodes snappy
  return cfg;
}

// --- GenerationService -------------------------------------------------------

TEST(Service, DefaultConfigIgnoresEnvironment) {
  // Configuration is read in eva_serve_main, never by a default member
  // initializer: a default ServiceConfig is the same in every process.
  ::setenv("EVA_QUANT", "int8", 1);
  ::setenv("EVA_SERVE_SLOW_MS", "250", 1);
  const ServiceConfig cfg;
  ::unsetenv("EVA_QUANT");
  ::unsetenv("EVA_SERVE_SLOW_MS");
  EXPECT_EQ(cfg.quant, tensor::QuantKind::kF32);
  EXPECT_EQ(cfg.slow_warn_ms, 0.0);
}

TEST(Service, FutureRoundTrip) {
  ServeFixture f(fast_config());
  f.service.start();
  Request req;
  req.n = 2;
  req.seed = 11;
  auto t = f.service.submit(req);
  Response r = t.response.get();
  EXPECT_EQ(r.status, Status::kOk);
  ASSERT_EQ(r.items.size(), 2u);
  for (const auto& item : r.items) {
    EXPECT_FALSE(item.ids.empty());
    if (item.decoded) {
      EXPECT_FALSE(item.netlist.empty());
    }
  }
  EXPECT_GT(r.latency_ms, 0.0);
  EXPECT_GT(r.finished_seq, 0u);
}

TEST(Service, PriorityOrderingAcrossLevels) {
  // Everything is queued before the scheduler starts, so pop order is
  // purely priority order regardless of submission order.
  ServeFixture f(fast_config());
  Request lo, mid, hi;
  lo.priority = Priority::kLow;
  mid.priority = Priority::kNormal;
  hi.priority = Priority::kHigh;
  lo.seed = mid.seed = hi.seed = 5;
  auto tl = f.service.submit(lo);
  auto tm = f.service.submit(mid);
  auto th = f.service.submit(hi);
  f.service.start();
  const Response rl = tl.response.get();
  const Response rm = tm.response.get();
  const Response rh = th.response.get();
  EXPECT_LT(rh.finished_seq, rm.finished_seq);
  EXPECT_LT(rm.finished_seq, rl.finished_seq);
}

TEST(Service, ExpiredDeadlineResolvesToTimeout) {
  ServeFixture f(fast_config());
  Request req;
  req.deadline_ms = 1.0;
  auto t = f.service.submit(req);  // queued: scheduler not started yet
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  f.service.start();
  Response r = t.response.get();
  EXPECT_EQ(r.status, Status::kTimeout);
  EXPECT_TRUE(r.items.empty());
}

TEST(Service, FarFutureDeadlineIsServed) {
  // 1e30 ms does not fit the clock's nanosecond count; converting it
  // unclamped overflows (undefined, and on x86 a deadline in the past).
  ServeFixture f(fast_config());
  f.service.start();
  Request req;
  req.seed = 4;
  req.deadline_ms = 1e30;
  const Response r = f.service.submit(req).response.get();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.items.size(), 1u);
}

TEST(Service, QueueFullRejectsWithRetryAfter) {
  ServiceConfig cfg = fast_config();
  cfg.queue_max = 2;
  cfg.retry_after_ms = 123.0;
  ServeFixture f(cfg);
  // Not started: the queue can only fill.
  auto t1 = f.service.submit({});
  auto t2 = f.service.submit({});
  auto t3 = f.service.submit({});
  Response r3 = t3.response.get();
  EXPECT_EQ(r3.status, Status::kRejected);
  EXPECT_DOUBLE_EQ(r3.retry_after_ms, 123.0);
  EXPECT_EQ(f.service.queue_depth(), 2u);
  f.service.drain();
  EXPECT_EQ(t1.response.get().status, Status::kOk);
  EXPECT_EQ(t2.response.get().status, Status::kOk);
}

TEST(Service, SeededResubmissionHitsCanonicalCache) {
  ServeFixture f(fast_config());
  f.service.start();
  Request req;
  req.n = 3;
  req.seed = 42;  // identical seed => identical topologies both times
  const auto hits_before = obs::counter("serve.cache_hits").value();
  Response first = f.service.submit(req).response.get();
  ASSERT_EQ(first.status, Status::kOk);
  Response second = f.service.submit(req).response.get();
  ASSERT_EQ(second.status, Status::kOk);
  const auto hits_after = obs::counter("serve.cache_hits").value();
  EXPECT_GT(hits_after, hits_before);
  ASSERT_EQ(first.items.size(), second.items.size());
  for (std::size_t i = 0; i < second.items.size(); ++i) {
    EXPECT_EQ(first.items[i].ids, second.items[i].ids);
    if (second.items[i].decoded) {
      // The evaluation was memoized by WL canonical hash.
      EXPECT_TRUE(second.items[i].cached);
      EXPECT_EQ(second.items[i].valid, first.items[i].valid);
      EXPECT_DOUBLE_EQ(second.items[i].fom, first.items[i].fom);
    }
  }
}

TEST(Service, ResponseIdenticalAcrossPoolWidths) {
  // One seeded request on a cold cache must serve the same item lines
  // whether the pool runs inline or fans decode and verify out over 8
  // workers. This request decodes 8 topologies, 4 of them simulatable,
  // so the verify fan-out has real SPICE work to split.
  const auto serve_lines = [](std::size_t width) {
    set_num_threads(width);
    const nn::Tokenizer tok = small_tokenizer();
    Rng rng(99);
    nn::TransformerLM model(nn::ModelConfig::bench_scale(tok.vocab_size()),
                            rng);
    ServiceConfig cfg;
    cfg.sample.temperature = 0.9f;
    cfg.sample.top_k = 12;
    cfg.sample.max_len = 32;
    GenerationService service(model, tok, cfg);
    service.start();
    Request req;
    req.n = 8;
    req.seed = 1364;
    req.temperature = 0.9f;
    const Response r = service.submit(req).response.get();
    EXPECT_EQ(r.status, Status::kOk);
    std::vector<std::string> lines;
    for (const Item& item : r.items) {
      lines.push_back(item_to_json(item, r.timeline.request_id));
    }
    return lines;
  };
  const std::size_t saved = num_threads();
  const auto inline_lines = serve_lines(1);
  const auto pooled_lines = serve_lines(8);
  set_num_threads(saved);
  ASSERT_EQ(inline_lines.size(), 8u);
  EXPECT_GE(std::count_if(inline_lines.begin(), inline_lines.end(),
                          [](const std::string& line) {
                            return line.find("\"valid\": true") !=
                                   std::string::npos;
                          }),
            1);
  EXPECT_EQ(pooled_lines, inline_lines);
}

TEST(Service, ConcurrentSubmitsFromPoolWorkers) {
  ServiceConfig cfg = fast_config();
  cfg.queue_max = 256;
  ServeFixture f(cfg);
  f.service.start();
  constexpr int kN = 24;
  std::vector<GenerationService::Ticket> tickets(kN);
  std::mutex mu;
  parallel_for(0, static_cast<std::size_t>(kN), [&](std::size_t i) {
    Request req;
    req.seed = 100 + i;
    auto t = f.service.submit(req);
    std::lock_guard<std::mutex> lk(mu);
    tickets[i] = std::move(t);
  });
  int ok = 0;
  for (auto& t : tickets) {
    const Response r = t.response.get();
    EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kRejected);
    if (r.status == Status::kOk) ++ok;
  }
  EXPECT_GT(ok, 0);
}

TEST(Service, DrainCompletesAdmittedThenRejectsNew) {
  ServeFixture f(fast_config());
  auto t1 = f.service.submit({});
  auto t2 = f.service.submit({});
  f.service.drain();  // never started: drain() must still complete both
  EXPECT_EQ(t1.response.get().status, Status::kOk);
  EXPECT_EQ(t2.response.get().status, Status::kOk);
  auto t3 = f.service.submit({});
  EXPECT_EQ(t3.response.get().status, Status::kShutdown);
}

TEST(Service, SigtermDrainCompletesAdmittedRequests) {
  train::clear_stop();
  ServeFixture f(fast_config());
  auto t1 = f.service.submit({});
  auto t2 = f.service.submit({});
  train::request_stop();  // what the SIGTERM handler does
  f.service.start();
  f.service.drain();
  EXPECT_EQ(t1.response.get().status, Status::kOk);
  EXPECT_EQ(t2.response.get().status, Status::kOk);
  auto t3 = f.service.submit({});
  EXPECT_EQ(t3.response.get().status, Status::kShutdown);
  train::clear_stop();
}

TEST(Service, LatencyHistogramRecordsCompletions) {
  ServeFixture f(fast_config());
  f.service.start();
  const auto before = obs::histogram("serve.e2e_ms").snapshot().count;
  (void)f.service.submit({}).response.get();
  const auto after = obs::histogram("serve.e2e_ms").snapshot().count;
  EXPECT_GT(after, before);
}

// --- Request timelines (DESIGN.md "Request timelines & load harness") --------

TEST(Timeline, StagesAttributeTheEndToEndLatency) {
  ServeFixture f(fast_config());
  f.service.start();
  Request req;
  req.n = 2;
  req.seed = 21;
  auto t = f.service.submit(req);
  Response r = t.response.get();
  ASSERT_EQ(r.status, Status::kOk);

  // The timeline carries the ticket's id and real decode work.
  EXPECT_EQ(r.timeline.request_id, t.id);
  EXPECT_GT(r.timeline.tokens, 0);
  EXPECT_GT(r.timeline.decode_steps, 0);
  EXPECT_GT(r.timeline.ms(Stage::kDecode), 0.0);

  // queue + decode + cache + verify must explain the service-side
  // latency: the stages are timed independently of latency_ms, so a
  // large gap means a stage fell out of the attribution.
  const double sum = r.timeline.service_sum_ms();
  EXPECT_GT(sum, 0.0);
  EXPECT_LE(sum, r.latency_ms * 1.05 + 1.0);
  EXPECT_GE(sum, r.latency_ms * 0.5 - 1.0);
}

TEST(Timeline, TimeoutIsAttributedToQueueWait) {
  ServeFixture f(fast_config());
  Request blocker;
  blocker.n = 6;  // park a long decode in front
  auto slow = f.service.submit(blocker);
  Request req;
  req.deadline_ms = 1.0;
  auto t = f.service.submit(req);
  // Start only once both are queued: started earlier, a preempted test
  // thread could submit `req` after the blocker had already finished.
  f.service.start();
  Response r = t.response.get();
  (void)slow.response.get();
  ASSERT_EQ(r.status, Status::kTimeout);
  // A timed-out request never decoded: its latency is pure queue wait,
  // and the terminator still carries its id.
  EXPECT_EQ(r.timeline.request_id, t.id);
  EXPECT_GT(r.timeline.ms(Stage::kQueue), 0.0);
  EXPECT_DOUBLE_EQ(r.timeline.ms(Stage::kDecode), 0.0);
  // Completing past the deadline bumps the dedicated counter.
  EXPECT_GT(obs::counter("serve.deadline_exceeded").value(), 0);
}

TEST(Timeline, StageNamesAndSlidingMetricsRecorded) {
  EXPECT_EQ(stage_name(Stage::kQueue), "queue");
  EXPECT_EQ(stage_name(Stage::kWrite), "write");
  RequestTimeline tl;
  tl.add(Stage::kDecode, 2.0);
  tl.add(Stage::kDecode, 3.0);
  tl.add(Stage::kVerify, 1.0);
  EXPECT_DOUBLE_EQ(tl.ms(Stage::kDecode), 5.0);
  EXPECT_DOUBLE_EQ(tl.service_sum_ms(), 6.0);

  const auto before = obs::histogram("serve.stage.decode_ms").snapshot().count;
  record_timeline_metrics(tl, /*all_stages=*/true);
  const auto after = obs::histogram("serve.stage.decode_ms").snapshot().count;
  EXPECT_EQ(after, before + 1);
}

TEST(Timeline, SlowWarnBudgetComesFromEnv) {
  // eva_serve_main reads the budget exactly like this: fractional ms,
  // negative or malformed values keep the default.
  const auto budget = [](double fallback) {
    return env_double("EVA_SERVE_SLOW_MS", fallback, 0.0);
  };
  ::unsetenv("EVA_SERVE_SLOW_MS");
  EXPECT_DOUBLE_EQ(budget(0.0), 0.0);
  ::setenv("EVA_SERVE_SLOW_MS", "250", 1);
  EXPECT_DOUBLE_EQ(budget(0.0), 250.0);
  ::setenv("EVA_SERVE_SLOW_MS", "garbage", 1);
  EXPECT_DOUBLE_EQ(budget(7.0), 7.0);
  ::setenv("EVA_SERVE_SLOW_MS", "-5", 1);
  EXPECT_DOUBLE_EQ(budget(7.0), 7.0);
  ::unsetenv("EVA_SERVE_SLOW_MS");
}

// --- ResultCache -------------------------------------------------------------

TEST(ResultCacheTest, PutGetAndTypeSeparation) {
  ResultCache cache(64);
  const std::uint64_t h = 0xDEADBEEFULL;
  cache.put(ResultCache::key_for(h, 0), {true, 2.5});
  const auto hit = cache.get(ResultCache::key_for(h, 0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->valid);
  EXPECT_DOUBLE_EQ(hit->fom, 2.5);
  // Same topology under a different target type is a distinct entry.
  EXPECT_FALSE(cache.get(ResultCache::key_for(h, 1)).has_value());
}

TEST(ResultCacheTest, KeysKeepTheirBits) {
  // Cache keys are mix64 of the hash and the type tag. Pinned, so a
  // change to the mix cannot silently move every key.
  EXPECT_EQ(ResultCache::key_for(0x0123456789abcdefULL, 3),
            0x1a8fed80c5952760ULL);
  EXPECT_EQ(ResultCache::key_for(0xfeedfacecafebeefULL, 10),
            0xb1e0d5c6a9926686ULL);
}

TEST(ResultCacheTest, HoldsCapacityDistinctKeys) {
  // The bound is global: a cache of 64 keeps 64 distinct keys, however
  // their hashes fall, and evicts only once a 65th arrives.
  ResultCache cache(64);
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.put(ResultCache::key_for(i, 0), {true, static_cast<double>(i)});
  }
  EXPECT_EQ(cache.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(cache.get(ResultCache::key_for(i, 0)).has_value()) << i;
  }
  cache.put(ResultCache::key_for(64, 0), {true, 64.0});
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_FALSE(cache.get(ResultCache::key_for(0, 0)).has_value());
}

TEST(ResultCacheTest, BoundedLruEvictsOldEntries) {
  ResultCache cache(16);
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.put(i * 7919 + 1, {true, static_cast<double>(i)});
  }
  EXPECT_LE(cache.size(), 16u);
  // The newest entry survives.
  EXPECT_TRUE(cache.get(63 * 7919 + 1).has_value());
}

TEST(ResultCacheTest, GetRefreshesRecency) {
  ResultCache cache(4);
  for (std::uint64_t k = 1; k <= 4; ++k) cache.put(k, {true, 0.0});
  ASSERT_TRUE(cache.get(1).has_value());  // refresh key 1
  cache.put(5, {true, 0.0});              // evicts key 2, not key 1
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
}

// --- wire protocol -----------------------------------------------------------

TEST(Protocol, ParsesFullRequest) {
  std::string err;
  const auto req = parse_request(
      R"({"type":"Ldo","n":4,"temperature":0.5,"deadline_ms":250,)"
      R"("priority":"high","seed":9})",
      &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->type, circuit::CircuitType::Ldo);
  EXPECT_EQ(req->n, 4);
  EXPECT_FLOAT_EQ(req->temperature, 0.5f);
  EXPECT_DOUBLE_EQ(req->deadline_ms, 250.0);
  EXPECT_EQ(req->priority, Priority::kHigh);
  EXPECT_EQ(req->seed, 9u);
}

TEST(Protocol, EmptyObjectYieldsDefaults) {
  std::string err;
  const auto req = parse_request("{}", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->type, circuit::CircuitType::OpAmp);
  EXPECT_EQ(req->n, 1);
  EXPECT_EQ(req->priority, Priority::kNormal);
  EXPECT_EQ(req->seed, 0u);
}

TEST(Protocol, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parse_request("", &err).has_value());
  EXPECT_FALSE(parse_request("not json", &err).has_value());
  EXPECT_FALSE(parse_request(R"({"n":)", &err).has_value());
  EXPECT_FALSE(parse_request(R"({"n":0})", &err).has_value());
  EXPECT_FALSE(parse_request(R"({"type":"NoSuchType"})", &err).has_value());
  EXPECT_FALSE(parse_request(R"({"priority":"urgent"})", &err).has_value());
  // Nesting is out of grammar by design.
  EXPECT_FALSE(parse_request(R"({"a":{"b":1}})", &err).has_value());
  EXPECT_FALSE(parse_request(R"({"a":[1,2]})", &err).has_value());
  // Trailing garbage after the object.
  EXPECT_FALSE(parse_request(R"({"n":1} extra)", &err).has_value());
  // Unbounded strings are truncated into an error, not memory.
  EXPECT_FALSE(
      parse_request("{\"type\":\"" + std::string(5000, 'x') + "\"}", &err)
          .has_value());
}

TEST(Protocol, OutOfRangeNumbersAreClamped) {
  // Wire numbers are doubles; each is clamped into its field's range
  // before the conversion, which is undefined outside it.
  std::string err;
  for (const char* big : {"1e10", "1e400"}) {
    const auto req = parse_request(std::string("{\"n\": ") + big + "}", &err);
    ASSERT_TRUE(req.has_value()) << big << ": " << err;
    EXPECT_EQ(req->n, INT_MAX) << big;
  }
  // Clamped to INT_MIN, the n >= 1 check still refuses it.
  EXPECT_FALSE(parse_request(R"({"n": -1e10})", &err).has_value());
  EXPECT_NE(err.find("n must be >= 1"), std::string::npos) << err;

  // A seed at or above 2^64 saturates instead of wrapping to 0, the
  // unseeded service stream that no cache would key.
  for (const char* big : {"1e30", "18446744073709551616", "1e400"}) {
    const auto req =
        parse_request(std::string("{\"seed\": ") + big + "}", &err);
    ASSERT_TRUE(req.has_value()) << big << ": " << err;
    EXPECT_EQ(req->seed, UINT64_MAX) << big;
  }
  const auto neg = parse_request(R"({"seed": -1e400})", &err);
  ASSERT_TRUE(neg.has_value()) << err;
  EXPECT_EQ(neg->seed, 0u);
}

TEST(Protocol, FuzzedLinesNeverThrow) {
  // Seeded fuzz over random and mutated lines: parse_line is total — a
  // value, or nullopt with a non-empty reason — and never throws.
  const std::vector<std::string> corpus = {
      R"({"type":"Ldo","n":4,"temperature":0.5,"deadline_ms":250,)"
      R"("priority":"high","seed":9})",
      R"({"n": 1e10, "seed": 1e30, "temperature": -1e400})",
      R"({"cmd": "stats"})",
      R"({"cmd": "cache_get", "key": "t0:n4:T1:s42"})",
      R"({"cmd": "cache_put", "key": "k", "value": "{"done": true}
"})",
      R"({"type": "Op-Amp", "seed": 18446744073709551616, "x": null})",
      R"({"a": "é	\", "b": true, "c": false, "n": -0.5e-3})",
  };
  const std::string alphabet =
      "{}[]\":,.+-eE0123456789 \\/ntrufalsecmdkyv\t\r\x01\x7f\xff";
  Rng rng(0xF0221);
  int accepted = 0;
  int refused = 0;
  for (int iter = 0; iter < 120000; ++iter) {
    std::string line;
    if (iter % 4 == 0) {
      const std::size_t len = rng.index(64);
      for (std::size_t i = 0; i < len; ++i) {
        line += alphabet[rng.index(alphabet.size())];
      }
    } else {
      line = corpus[rng.index(corpus.size())];
      const std::size_t edits = 1 + rng.index(4);
      for (std::size_t e = 0; e < edits && !line.empty(); ++e) {
        const std::size_t at = rng.index(line.size());
        switch (rng.index(4)) {
          case 0: line[at] = alphabet[rng.index(alphabet.size())]; break;
          case 1: line.insert(at, 1, alphabet[rng.index(alphabet.size())]);
                  break;
          case 2: line.erase(at, 1 + rng.index(3)); break;
          default: line.resize(at); break;
        }
      }
    }
    std::string err;
    std::optional<ParsedLine> out;
    try {
      out = parse_line(line, &err);
    } catch (...) {
      ADD_FAILURE() << "parse_line threw on: " << line;
      continue;
    }
    if (out) {
      ++accepted;
    } else {
      ++refused;
      if (err.empty()) ADD_FAILURE() << "no reason given for: " << line;
    }
  }
  // Both outcomes were exercised, not just the error path.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(refused, 1000);
}

TEST(Protocol, IgnoresUnknownKeys) {
  std::string err;
  const auto req = parse_request(R"({"n":2,"future_field":"yes"})", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->n, 2);
}

TEST(Protocol, EmitsItemAndTerminator) {
  Item item;
  item.netlist = "M1 \"quoted\"";
  item.decoded = true;
  item.valid = true;
  item.fom = 1.5;
  const std::string j = item_to_json(item);
  EXPECT_NE(j.find("\"valid\": true"), std::string::npos);
  EXPECT_NE(j.find("\\\"quoted\\\""), std::string::npos);

  Response r;
  r.status = Status::kRejected;
  r.retry_after_ms = 50.0;
  const std::string d = done_to_json(r);
  EXPECT_NE(d.find("\"done\": true"), std::string::npos);
  EXPECT_NE(d.find("\"rejected\""), std::string::npos);
  EXPECT_NE(d.find("retry_after_ms"), std::string::npos);
}

TEST(Protocol, ParseLineDistinguishesStatsFromGenerate) {
  std::string err;
  const auto stats = parse_line("{\"cmd\": \"stats\"}", &err);
  ASSERT_TRUE(stats.has_value()) << err;
  EXPECT_EQ(stats->kind, ParsedLine::Kind::kStats);

  const auto gen = parse_line("{\"cmd\": \"generate\", \"n\": 2}", &err);
  ASSERT_TRUE(gen.has_value()) << err;
  EXPECT_EQ(gen->kind, ParsedLine::Kind::kGenerate);
  EXPECT_EQ(gen->req.n, 2);

  // Unknown commands are a parse error, not a silent default.
  EXPECT_FALSE(parse_line("{\"cmd\": \"reboot\"}", &err).has_value());
  EXPECT_NE(err.find("unknown cmd"), std::string::npos) << err;

  // parse_request refuses a stats line: callers asking for a generation
  // request must not receive default-constructed junk.
  EXPECT_FALSE(parse_request("{\"cmd\": \"stats\"}", &err).has_value());
}

TEST(Protocol, TerminatorCarriesRequestIdAndStages) {
  Response r;
  r.status = Status::kOk;
  r.latency_ms = 12.5;
  r.timeline.request_id = 17;
  r.timeline.tokens = 96;
  r.timeline.add(Stage::kQueue, 0.5);
  r.timeline.add(Stage::kDecode, 10.0);
  const std::string d = done_to_json(r);
  EXPECT_TRUE(eva::testutil::json_valid(d)) << d;
  EXPECT_NE(d.find("\"request_id\": 17"), std::string::npos);
  EXPECT_NE(d.find("\"tokens\": 96"), std::string::npos);
  EXPECT_NE(d.find("\"queue_ms\": 0.5"), std::string::npos);
  EXPECT_NE(d.find("\"decode_ms\": 10"), std::string::npos);
  // The client half reads back what the writer wrote.
  const auto t = read_terminator(d);
  ASSERT_TRUE(t.has_value()) << d;
  EXPECT_EQ(t->status, "ok");
  EXPECT_EQ(t->latency_ms, 12.5);
  EXPECT_EQ(t->tokens, 96.0);
  EXPECT_FALSE(t->retry_after_ms.has_value());
  ASSERT_TRUE(t->stages.has_value());
  EXPECT_EQ(t->stages->queue_ms, 0.5);
  EXPECT_EQ(t->stages->decode_ms, 10.0);

  // Rejected requests never entered the queue: no stage object.
  Response rej;
  rej.status = Status::kRejected;
  rej.retry_after_ms = 40.0;
  rej.timeline.request_id = 18;
  const std::string dr = done_to_json(rej);
  EXPECT_TRUE(eva::testutil::json_valid(dr)) << dr;
  EXPECT_NE(dr.find("\"request_id\": 18"), std::string::npos);
  EXPECT_EQ(dr.find("\"stages\""), std::string::npos);
  const auto tr = read_terminator(dr);
  ASSERT_TRUE(tr.has_value()) << dr;
  EXPECT_EQ(tr->status, "rejected");
  EXPECT_EQ(tr->retry_after_ms, 40.0);
  EXPECT_FALSE(tr->stages.has_value());

  Item item;
  item.netlist = "M1";
  const std::string j = item_to_json(item, 17);
  EXPECT_NE(j.find("\"request_id\": 17"), std::string::npos);
  EXPECT_FALSE(read_terminator(j).has_value()) << j;
}

// --- Live stats snapshot ------------------------------------------------------

TEST(Stats, SnapshotIsWellFormedAndCoversTheService) {
  ServeFixture f(fast_config());
  f.service.start();
  Request req;
  req.n = 1;
  req.seed = 33;
  (void)f.service.submit(req).response.get();

  const std::string json = stats_json(f.service);
  EXPECT_TRUE(eva::testutil::json_valid(json)) << json;
  // Stage percentiles: a window and a since-start view per stage.
  for (const char* key :
       {"\"queue\"", "\"decode\"", "\"cache\"", "\"verify\"", "\"write\"",
        "\"e2e\"", "\"window\"", "\"total\"", "\"min\"", "\"p99\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing\n"
                                                 << json;
  }
  // Live service state: queue depths, occupancy, cache and request
  // counters, kernel FLOPs.
  for (const char* key :
       {"\"queue_depth\"", "\"batch_occupancy\"", "\"cache\"",
        "\"hit_rate\"", "\"requests\"", "\"submitted\"",
        "\"gemm_flops\"", "\"uptime_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing\n"
                                                 << json;
  }
  // The request above decoded through the GEMM kernels.
  const std::size_t at = json.find("\"gemm_flops\": ");
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_GT(std::strtod(json.c_str() + at + 14, nullptr), 0.0) << json;

  const std::string line = stats_response_json(f.service);
  EXPECT_TRUE(eva::testutil::json_valid(line)) << line;
  EXPECT_NE(line.find("\"done\": true"), std::string::npos);
  EXPECT_NE(line.find("\"cmd\": \"stats\""), std::string::npos);
}

TEST(Stats, QueueDepthsReflectParkedRequests) {
  ServiceConfig cfg = fast_config();
  ServeFixture f(cfg);
  // Not started: submissions park in their priority queues.
  Request lo;
  lo.priority = Priority::kLow;
  Request hi;
  hi.priority = Priority::kHigh;
  auto t1 = f.service.submit(lo);
  auto t2 = f.service.submit(lo);
  auto t3 = f.service.submit(hi);
  const auto depths = f.service.queue_depths();
  EXPECT_EQ(depths[static_cast<int>(Priority::kHigh)], 1u);
  EXPECT_EQ(depths[static_cast<int>(Priority::kLow)], 2u);
  f.service.start();
  (void)t1.response.get();
  (void)t2.response.get();
  (void)t3.response.get();
}

// --- TCP loopback ------------------------------------------------------------

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (int tries = 0; tries < 50; ++tries) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::close(fd);
  return -1;
}

bool send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::send(fd, s.data() + off, s.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read lines until `want_done` lines containing "done" arrive (or EOF).
std::vector<std::string> read_lines_until_done(int fd, int want_done) {
  std::vector<std::string> lines;
  std::string buf;
  char chunk[4096];
  int done = 0;
  while (done < want_done) {
    std::size_t nl;
    while (done < want_done && (nl = buf.find('\n')) != std::string::npos) {
      lines.push_back(buf.substr(0, nl));
      if (lines.back().find("\"done\"") != std::string::npos) ++done;
      buf.erase(0, nl + 1);
    }
    if (done >= want_done) break;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  return lines;
}

TEST(TcpServer, LoopbackRoundTripAndBadRequest) {
  train::clear_stop();
  ServeFixture f(fast_config());
  ServerConfig scfg;
  scfg.port = 0;  // ephemeral
  JsonLineServer server(f.service, scfg);
  const int port = server.listen_and_start();
  ASSERT_GT(port, 0);

  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "{\"n\":2,\"seed\":3}\nnot json\n"));
  const auto lines = read_lines_until_done(fd, 2);
  // 2 item lines + ok terminator + bad_request terminator.
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"netlist\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(lines[3].find("bad_request"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(TcpServer, StatsCommandAnsweredInlineAndUnknownCmdRejected) {
  train::clear_stop();
  ServeFixture f(fast_config());
  ServerConfig scfg;
  scfg.port = 0;
  JsonLineServer server(f.service, scfg);
  const int port = server.listen_and_start();
  ASSERT_GT(port, 0);

  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  // generate, stats, unknown cmd — all on one connection, in order.
  ASSERT_TRUE(send_all(
      fd, "{\"n\":1,\"seed\":5}\n{\"cmd\":\"stats\"}\n{\"cmd\":\"flush\"}\n"));
  const auto lines = read_lines_until_done(fd, 3);
  ASSERT_EQ(lines.size(), 4u);  // item + ok + stats + bad_request
  EXPECT_NE(lines[1].find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"stages\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"request_id\""), std::string::npos);

  const std::string& stats = lines[2];
  EXPECT_TRUE(eva::testutil::json_valid(stats)) << stats;
  EXPECT_NE(stats.find("\"cmd\": \"stats\""), std::string::npos);
  // The generate round trip above is already visible in the snapshot.
  EXPECT_NE(stats.find("\"completed\""), std::string::npos);

  EXPECT_NE(lines[3].find("bad_request"), std::string::npos);
  EXPECT_NE(lines[3].find("unknown cmd"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(TcpServer, AcceptFaultDropsFirstConnection) {
  train::clear_stop();
  fault::set_spec("serve_accept:1");
  ServeFixture f(fast_config());
  ServerConfig scfg;
  scfg.port = 0;
  JsonLineServer server(f.service, scfg);
  const int port = server.listen_and_start();

  // First connection is accepted then immediately dropped by the fault;
  // the retry goes through.
  const int fd1 = connect_loopback(port);
  ASSERT_GE(fd1, 0);
  char byte;
  // Give the acceptor a moment to process (poll granularity), then the
  // injected close surfaces as EOF.
  EXPECT_LE(::recv(fd1, &byte, 1, 0), 0);
  ::close(fd1);

  const int fd2 = connect_loopback(port);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(send_all(fd2, "{\"seed\":8}\n"));
  const auto lines = read_lines_until_done(fd2, 1);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"status\": \"ok\""), std::string::npos);
  ::close(fd2);
  server.stop();
  fault::set_spec("");
}

TEST(TcpServer, IdleConnectionIsClosedAfterTimeout) {
  train::clear_stop();
  ServeFixture f(fast_config());
  ServerConfig scfg;
  scfg.port = 0;
  scfg.idle_ms = 150.0;  // EVA_SERVE_IDLE_MS equivalent
  JsonLineServer server(f.service, scfg);
  const int port = server.listen_and_start();

  const auto before = obs::counter("serve.idle_timeouts").value();
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  // Send nothing: the server must hang up on its own, surfacing as EOF
  // here well before this generous deadline.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  char byte;
  ssize_t n = -1;
  while (std::chrono::steady_clock::now() < give_up) {
    n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
    if (n == 0) break;  // clean close from the server
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(n, 0) << "idle connection must be closed by the server";
  EXPECT_GT(obs::counter("serve.idle_timeouts").value(), before);
  ::close(fd);

  // A connection that keeps talking is never idle-closed mid-exchange.
  const int fd2 = connect_loopback(port);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(send_all(fd2, "{\"seed\":8}\n"));
  const auto lines = read_lines_until_done(fd2, 1);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"status\": \"ok\""), std::string::npos);
  ::close(fd2);
  server.stop();
}

// --- hardened ids_to_netlist --------------------------------------------------

TEST(NetlistDecodeChecked, FlagsOutOfRangeTokens) {
  const auto tok = small_tokenizer();
  const auto res =
      nn::ids_to_netlist_checked(tok, {tok.start_token(), tok.vocab_size()});
  EXPECT_EQ(res.fail, nn::NetlistDecode::Fail::kTokenOutOfRange);
  EXPECT_FALSE(res.ok());
  EXPECT_FALSE(res.message.empty());

  const auto neg = nn::ids_to_netlist_checked(tok, {-1});
  EXPECT_EQ(neg.fail, nn::NetlistDecode::Fail::kTokenOutOfRange);
}

TEST(NetlistDecodeChecked, FlagsEmptyAndTruncated) {
  const auto tok = small_tokenizer();
  EXPECT_EQ(nn::ids_to_netlist_checked(tok, {}).fail,
            nn::NetlistDecode::Fail::kEmpty);
  EXPECT_EQ(nn::ids_to_netlist_checked(tok, {nn::Tokenizer::kEos}).fail,
            nn::NetlistDecode::Fail::kEmpty);
  // A lone VSS token is in-vocab but not a decodable tour.
  const auto res = nn::ids_to_netlist_checked(tok, {tok.start_token()});
  EXPECT_EQ(res.fail, nn::NetlistDecode::Fail::kBadStructure);
}

TEST(NetlistDecodeChecked, RoundTripsValidTour) {
  const auto tok = small_tokenizer();
  Rng rng(17);
  const auto nl = data::generate(circuit::CircuitType::OpAmp, rng);
  const auto tour = circuit::encode_tour(nl, rng);
  const auto ids = tok.encode_tour(tour);
  const auto res = nn::ids_to_netlist_checked(tok, ids);
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_EQ(circuit::canonical_hash(*res.netlist), circuit::canonical_hash(nl));
}

TEST(NetlistDecodeChecked, FuzzNeverThrowsOrAborts) {
  // Adversarial fuzz: random byte soup in and around the vocab range.
  // The contract is total: some outcome, never an exception or abort.
  const auto tok = small_tokenizer();
  Rng rng(0xFADE);
  const int vocab = tok.vocab_size();
  for (int iter = 0; iter < 500; ++iter) {
    const int len = static_cast<int>(rng.uniform() * 40.0);
    std::vector<int> ids;
    ids.reserve(static_cast<std::size_t>(len));
    for (int i = 0; i < len; ++i) {
      // Mostly in-vocab, sometimes wildly out (including negatives).
      const double u = rng.uniform();
      if (u < 0.8) {
        ids.push_back(static_cast<int>(rng.uniform() * vocab));
      } else if (u < 0.9) {
        ids.push_back(vocab + static_cast<int>(rng.uniform() * 1000.0));
      } else {
        ids.push_back(-1 - static_cast<int>(rng.uniform() * 1000.0));
      }
    }
    EXPECT_NO_THROW({
      const auto res = nn::ids_to_netlist_checked(tok, ids);
      if (res.ok()) {
        EXPECT_TRUE(res.message.empty());
      } else {
        EXPECT_FALSE(res.message.empty());
      }
    });
  }
}

// --- WL canonical hash --------------------------------------------------------

/// Two-stage amplifier built with a permutation-controlled device order:
/// any order must hash identically (isomorphic netlists).
circuit::Netlist two_stage(bool flip_order, bool rewire_one_pin = false) {
  using circuit::DeviceKind;
  using circuit::IoPin;
  data::NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);
  b.io("out", IoPin::Vout1);
  auto stage1 = [&] {
    b.mos(DeviceKind::Nmos, "in", "mid", "VSS");
    b.two(DeviceKind::Resistor, "VDD", "mid");
  };
  auto stage2 = [&] {
    // The near-miss rewires exactly one pin: gate taken from "in"
    // instead of "mid" (a structurally different amplifier).
    b.mos(DeviceKind::Nmos, rewire_one_pin ? "in" : "mid", "out", "VSS");
    b.two(DeviceKind::Resistor, "VDD", "out");
  };
  if (flip_order) {
    stage2();
    stage1();
  } else {
    stage1();
    stage2();
  }
  return b.take();
}

TEST(CanonHash, IsomorphicPairsHashEqual) {
  EXPECT_EQ(circuit::canonical_hash(two_stage(false)),
            circuit::canonical_hash(two_stage(true)));
  // Property over generated circuits: encode/decode renumbers devices,
  // producing an isomorphic copy.
  for (int i = 0; i < 5; ++i) {
    Rng rng(1000 + i);
    const auto nl = data::generate(circuit::CircuitType::Comparator, rng);
    const auto res = circuit::decode_tour(circuit::encode_tour(nl, rng));
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(circuit::canonical_hash(res.netlist),
              circuit::canonical_hash(nl));
  }
}

TEST(CanonHash, NearMissSinglePinRewireDiffers) {
  EXPECT_NE(circuit::canonical_hash(two_stage(false, false)),
            circuit::canonical_hash(two_stage(false, true)));
}

TEST(CanonHash, StableAcrossThreadCounts) {
  const auto nl = two_stage(false);
  const std::size_t saved = num_threads();
  set_num_threads(1);
  const std::uint64_t h1 = circuit::canonical_hash(nl);
  set_num_threads(4);
  const std::uint64_t h4 = circuit::canonical_hash(nl);
  set_num_threads(saved);
  EXPECT_EQ(h1, h4);
}

// --- metrics export ----------------------------------------------------------

TEST(MetricsFlush, ExportNowWritesTheConfiguredFile) {
  const std::string path = ::testing::TempDir() + "eva_serve_metrics.json";
  std::remove(path.c_str());
  ::setenv("EVA_METRICS_FILE", path.c_str(), 1);

  obs::counter("serve.test_flush_marker").add(3);
  EXPECT_TRUE(obs::export_now());
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("serve.test_flush_marker"), std::string::npos);
  }
  // A later call writes the file again.
  std::remove(path.c_str());
  EXPECT_TRUE(obs::export_now());
  EXPECT_TRUE(std::ifstream(path).good());

  std::remove(path.c_str());
  ::unsetenv("EVA_METRICS_FILE");
  EXPECT_FALSE(obs::export_now());
}

}  // namespace
