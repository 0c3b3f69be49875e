#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <unordered_map>

#include "circuit/canon.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spice/engine.hpp"
#include "spice/fom.hpp"
#include "train/signal.hpp"
#include "util/parallel.hpp"

namespace eva::serve {

std::string_view status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kTimeout: return "timeout";
    case Status::kRejected: return "rejected";
    case Status::kShutdown: return "shutdown";
  }
  return "unknown";
}

namespace {

/// Milliseconds between two steady-clock points.
double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Wall-clock a callable into a timeline stage.
template <class Fn>
auto timed_stage(RequestTimeline& t, Stage s, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    t.add(s, ms_between(t0, std::chrono::steady_clock::now()));
  } else {
    auto r = fn();
    t.add(s, ms_between(t0, std::chrono::steady_clock::now()));
    return r;
  }
}

}  // namespace

namespace {

/// Repack the model into the configured inference tier before the
/// decoder is built, so every decode this service runs uses it. Returns
/// the model reference for use in the member initializer list.
nn::TransformerLM& repacked(nn::TransformerLM& model, const ServiceConfig& cfg) {
  if (model.inference_quant() != cfg.quant) {
    model.set_inference_quant(cfg.quant);
  }
  return model;
}

}  // namespace

GenerationService::GenerationService(nn::TransformerLM& model,
                                     const nn::Tokenizer& tok,
                                     ServiceConfig cfg)
    : model_(&repacked(model, cfg)),
      tok_(&tok),
      cfg_(cfg),
      cache_(cfg.cache_capacity),
      decoder_(model, tok, std::max(1, cfg.batch_width), cfg.sample),
      backend_c_(&obs::counter(
          std::string("serve.backend.") +
          tensor::quant_kind_name(cfg.quant))) {
  obs::log_info("serve.backend",
                {{"quant", tensor::quant_kind_name(cfg_.quant)}});
}

GenerationService::~GenerationService() { drain(); }

std::size_t GenerationService::depth_locked() const {
  std::size_t d = 0;
  for (const auto& q : queues_) d += q.size();
  return d;
}

GenerationService::Ticket GenerationService::submit(Request req) {
  static obs::Counter& submitted = obs::counter("serve.submitted");
  static obs::Counter& rejected = obs::counter("serve.rejected");
  static obs::Gauge& depth_g = obs::gauge("serve.queue_depth");
  submitted.add();

  auto p = std::make_shared<Pending>();
  req.n = std::clamp(req.n, 1, std::max(1, cfg_.max_n));
  if (!(req.temperature > 0.0f)) req.temperature = 1.0f;
  const int pr = std::clamp(static_cast<int>(req.priority), 0,
                            kNumPriorities - 1);
  req.priority = static_cast<Priority>(pr);
  p->req = req;
  p->admitted = std::chrono::steady_clock::now();
  if (req.deadline_ms > 0.0) {
    // Capped at ~31 years: a wire deadline can be any double, and the
    // clock's nanosecond count overflows past ~292 years.
    constexpr double kMaxDeadlineMs = 1e12;
    p->has_deadline = true;
    p->deadline =
        p->admitted + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              std::min(req.deadline_ms, kMaxDeadlineMs)));
  }

  Ticket t;
  t.response = p->promise.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    p->id = next_id_++;
    t.id = p->id;
    p->timeline.request_id = p->id;
    if (draining_ || train::stop_requested()) {
      Response r;
      r.status = Status::kShutdown;
      r.timeline.request_id = p->id;
      p->promise.set_value(std::move(r));
      return t;
    }
    if (depth_locked() >= cfg_.queue_max) {
      rejected.add();
      Response r;
      r.status = Status::kRejected;
      r.retry_after_ms = cfg_.retry_after_ms;
      r.timeline.request_id = p->id;
      p->promise.set_value(std::move(r));
      return t;
    }
    queues_[pr].push_back(p);
    depth_g.set(static_cast<double>(depth_locked()));
  }
  cv_.notify_one();
  return t;
}

void GenerationService::start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (started_) return;
  started_ = true;
  scheduler_ = std::thread([this] { run(); });
}

void GenerationService::drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
  }
  // A never-started service still owes completion to everything it
  // admitted: run the scheduler for the backlog.
  start();
  cv_.notify_all();
  // Serialize the join so concurrent drain() calls (explicit + dtor)
  // don't race on the thread handle.
  std::lock_guard<std::mutex> jlk(join_mu_);
  if (scheduler_.joinable()) scheduler_.join();
}

std::size_t GenerationService::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return depth_locked();
}

std::array<std::size_t, kNumPriorities> GenerationService::queue_depths()
    const {
  std::array<std::size_t, kNumPriorities> d{};
  std::lock_guard<std::mutex> lk(mu_);
  for (int i = 0; i < kNumPriorities; ++i) d[static_cast<std::size_t>(i)] = queues_[i].size();
  return d;
}

double GenerationService::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_at_)
      .count();
}

void GenerationService::run() {
  static obs::Gauge& depth_g = obs::gauge("serve.queue_depth");
  static obs::Counter& timeouts = obs::counter("serve.timeouts");
  Rng service_rng(cfg_.seed);
  for (;;) {
    std::shared_ptr<Pending> p;
    {
      std::unique_lock<std::mutex> lk(mu_);
      // wait_for (not wait): train::stop_requested() flips from a signal
      // handler that cannot notify the cv, so the scheduler polls it.
      while (depth_locked() == 0 && !draining_ && !train::stop_requested()) {
        cv_.wait_for(lk, std::chrono::milliseconds(20));
      }
      if (depth_locked() == 0) break;  // drain complete
      for (auto& q : queues_) {
        if (!q.empty()) {
          p = std::move(q.front());
          q.pop_front();
          break;
        }
      }
      depth_g.set(static_cast<double>(depth_locked()));
    }
    // Queue wait ends at pickup, whatever the terminal status — a
    // timeout's timeline is pure queue wait, which is exactly what makes
    // it diagnosable.
    p->timeline.add(Stage::kQueue,
                    ms_between(p->admitted, std::chrono::steady_clock::now()));
    Response r;
    if (p->has_deadline && std::chrono::steady_clock::now() > p->deadline) {
      r.status = Status::kTimeout;
      timeouts.add();
    } else {
      r = execute(*p, service_rng);
    }
    finish(*p, std::move(r));
  }
}

Response GenerationService::execute(Pending& p, Rng& service_rng) {
  // The request-attributed span puts this request's stage waterfall on
  // its own Perfetto lane (pid "requests", tid = request id).
  obs::Span span("serve.request", p.id);
  backend_c_->add();
  RequestTimeline& tl = p.timeline;
  Response r;
  nn::SampleOptions opts = cfg_.sample;
  opts.temperature = p.req.temperature;
  decoder_.set_options(opts);
  // Seeded requests are idempotent (and cache-friendly); unseeded ones
  // consume the service stream.
  Rng req_rng = p.req.seed != 0 ? Rng(p.req.seed) : service_rng.fork();
  std::vector<nn::SampleResult> results;
  {
    obs::Span decode_span("serve.request.decode", p.id);
    results = timed_stage(tl, Stage::kDecode,
                          [&] { return decoder_.decode(req_rng, p.req.n); });
  }
  const auto& dstats = decoder_.last_decode_stats();
  tl.tokens = dstats.tokens;
  tl.decode_steps = dstats.steps;

  // Verification is phased so the whole request can be batched: decode
  // every candidate, look them all up in the cache, then fan the misses'
  // Mini-SPICE evaluations across the thread pool instead of paying
  // DC + AC serially per item.
  obs::Span verify_span("serve.request.verify", p.id);
  const std::size_t n_items = results.size();
  r.items.resize(n_items);
  std::vector<std::optional<circuit::Netlist>> netlists(n_items);
  std::vector<std::uint64_t> keys(n_items, 0);

  // Token->netlist decode and the SPICE-format dump are attributed to
  // the decode stage: they are per-token, model-output-shaped work.
  timed_stage(tl, Stage::kDecode, [&] {
    for (std::size_t i = 0; i < n_items; ++i) {
      Item& item = r.items[i];
      item.ids = std::move(results[i].ids);
      auto dec = nn::ids_to_netlist_checked(*tok_, item.ids);
      if (!dec.netlist) continue;
      item.decoded = true;
      item.netlist = dec.netlist->to_spice();
      keys[i] = ResultCache::key_for(circuit::canonical_hash(*dec.netlist),
                                     static_cast<int>(p.req.type));
      netlists[i] = std::move(*dec.netlist);
    }
  });

  // Cache pass. `misses` holds one index per *unique* uncached key, in
  // request order; duplicates of an earlier miss attach to it via
  // `dup_of` and share its verdict afterwards (marked cached, exactly
  // as the second serial lookup used to hit the fresh insert).
  std::vector<std::size_t> misses;
  std::vector<std::size_t> dup_of(n_items, SIZE_MAX);
  timed_stage(tl, Stage::kCache, [&] {
    std::unordered_map<std::uint64_t, std::size_t> first_miss;
    for (std::size_t i = 0; i < n_items; ++i) {
      if (!r.items[i].decoded) continue;
      if (const auto hit = cache_.get(keys[i])) {
        r.items[i].valid = hit->valid;
        r.items[i].fom = hit->fom;
        r.items[i].cached = true;
        continue;
      }
      const auto [it, inserted] = first_miss.emplace(keys[i], i);
      if (inserted) {
        misses.push_back(i);
      } else {
        dup_of[i] = it->second;
      }
    }
  });

  // Batched verify: the evaluations (DC operating point + AC sweep each)
  // are independent per netlist, so they fan out across the thread pool;
  // obs counters inside the SPICE engine are atomic.
  if (!misses.empty()) {
    std::vector<CachedEval> evals(misses.size());
    timed_stage(tl, Stage::kVerify, [&] {
      parallel_for(0, misses.size(), [&](std::size_t k) {
        const circuit::Netlist& nl = *netlists[misses[k]];
        CachedEval ev;
        ev.valid = spice::simulatable(nl);
        if (ev.valid) {
          const auto perf = spice::evaluate_default(nl, p.req.type);
          if (perf.ok && std::isfinite(perf.fom)) ev.fom = perf.fom;
        }
        evals[k] = ev;
      });
    });
    timed_stage(tl, Stage::kCache, [&] {
      for (std::size_t k = 0; k < misses.size(); ++k) {
        const std::size_t i = misses[k];
        cache_.put(keys[i], evals[k]);
        r.items[i].valid = evals[k].valid;
        r.items[i].fom = evals[k].fom;
      }
    });
  }

  // Duplicates inherit their primary's verdict as cache hits (the insert
  // above), so no extra SPICE runs.
  for (std::size_t i = 0; i < n_items; ++i) {
    if (dup_of[i] == SIZE_MAX) continue;
    const Item& primary = r.items[dup_of[i]];
    r.items[i].valid = primary.valid;
    r.items[i].fom = primary.fom;
    r.items[i].cached = true;
  }
  r.status = Status::kOk;
  return r;
}

void GenerationService::finish(Pending& p, Response&& r) {
  static obs::Histogram& e2e_h = obs::histogram("serve.e2e_ms");
  static obs::Counter& completed = obs::counter("serve.completed");
  static obs::Counter& deadline_c = obs::counter("serve.deadline_exceeded");
  r.latency_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - p.admitted)
                     .count();
  r.finished_seq = finished_seq_.fetch_add(1) + 1;
  r.timeline = p.timeline;
  const bool ok = r.status == Status::kOk;
  if (ok) {
    e2e_h.record(r.latency_ms);
    completed.add();
  }
  record_timeline_metrics(r.timeline, /*all_stages=*/ok);

  // Slow-request diagnosis from the log alone: a request that finished
  // past its deadline, or past the configured p99 budget, warns with its
  // id and the full stage breakdown. Rate-limited (first, then every
  // 10th) so an overloaded server logs the shape of the problem, not a
  // line per request.
  const bool past_deadline =
      p.has_deadline && std::chrono::steady_clock::now() > p.deadline;
  const bool past_budget = cfg_.slow_warn_ms > 0.0 &&
                           ok && r.latency_ms > cfg_.slow_warn_ms;
  if (past_deadline) deadline_c.add();
  if (past_deadline || past_budget) {
    obs::log_every_n(
        obs::LogLevel::kWarn, "serve.slow_request", 10,
        {{"request_id", r.timeline.request_id},
         {"status", status_name(r.status)},
         {"latency_ms", r.latency_ms},
         {"deadline_ms", p.req.deadline_ms},
         {"budget_ms", cfg_.slow_warn_ms},
         {"queue_ms", r.timeline.ms(Stage::kQueue)},
         {"decode_ms", r.timeline.ms(Stage::kDecode)},
         {"cache_ms", r.timeline.ms(Stage::kCache)},
         {"verify_ms", r.timeline.ms(Stage::kVerify)},
         {"tokens", r.timeline.tokens}});
  }
  p.promise.set_value(std::move(r));
}

}  // namespace eva::serve
