// GenerationService: the serving layer's request scheduler (DESIGN.md
// §10).
//
// Owns one model + one persistent nn::BatchedDecoder and exposes an
// asynchronous API: submit(Request) returns a std::future<Response>
// immediately; a single scheduler thread pops admitted requests in
// priority order, decodes them through the batched engine, evaluates
// each decoded topology through the ResultCache (validity + SPICE FoM,
// memoized by WL canonical hash), and fulfills the promise.
//
// Admission control:
//  * bounded queue (queue_max across all priorities) — a full queue
//    rejects immediately with Status::kRejected and a retry_after_ms
//    hint (backpressure, never unbounded memory);
//  * three strict priorities (high before normal before low, FIFO within
//    a level);
//  * per-request deadlines — a request whose deadline passes while it is
//    still queued resolves to Status::kTimeout without doing any work;
//  * graceful drain — drain() (or a SIGTERM via train/signal, which the
//    scheduler polls) stops admission but completes every request
//    already admitted before the scheduler exits.
//
// Instrumentation: serve.queue_depth gauge, the serve.e2e_ms sliding
// histogram of ok latencies (window and since-start percentiles in the
// metrics export and the stats snapshot), serve.{submitted,completed,
// rejected,timeouts} counters, serve.request spans, and the
// serve.cache_* family from ResultCache.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include <array>

#include "circuit/classify.hpp"
#include "nn/sampler.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "serve/result_cache.hpp"
#include "serve/timeline.hpp"

namespace eva::obs {
class Counter;
}

namespace eva::serve {

enum class Priority : int { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr int kNumPriorities = 3;

/// Terminal state of a request. Everything except kOk means no topology
/// work was done (the items vector is empty).
enum class Status {
  kOk,         // decoded + evaluated, items populated
  kTimeout,    // deadline passed before the scheduler reached the request
  kRejected,   // queue full at submit time; retry after retry_after_ms
  kShutdown,   // submitted after drain()/SIGTERM — never admitted
};

[[nodiscard]] std::string_view status_name(Status s);

/// One generation request. `seed` selects a reproducible RNG stream for
/// the request (0 = draw from the service's own stream): identical
/// {seed, n, temperature} requests generate identical topologies, which
/// both makes requests idempotent and lets repeated workloads ride the
/// result cache.
struct Request {
  circuit::CircuitType type = circuit::CircuitType::OpAmp;
  int n = 1;                  // topologies to generate (clamped to >= 1)
  float temperature = 1.0f;
  Priority priority = Priority::kNormal;
  double deadline_ms = 0.0;   // admission-to-start budget; 0 = none
  std::uint64_t seed = 0;     // 0 = service stream
};

/// One generated topology.
struct Item {
  std::vector<int> ids;   // sampled token sequence (starts at VSS)
  std::string netlist;    // SPICE-like dump when decoded, else empty
  bool decoded = false;   // token sequence decoded to a netlist
  bool valid = false;     // simulatable (validity predicate)
  double fom = 0.0;       // figure of merit (0 when invalid)
  bool cached = false;    // evaluation came from the ResultCache
};

struct Response {
  Status status = Status::kOk;
  std::vector<Item> items;
  double retry_after_ms = 0.0;   // set when status == kRejected
  double latency_ms = 0.0;       // admission -> completion
  std::uint64_t finished_seq = 0;  // global completion order (1-based)
  /// Per-stage latency attribution. timeline.request_id equals the
  /// ticket id for every terminal status (including rejected/shutdown,
  /// whose stage values are all zero).
  RequestTimeline timeline;
};

struct ServiceConfig {
  std::size_t queue_max = 64;      // EVA_SERVE_QUEUE_MAX
  int batch_width = 8;             // decoder slots
  int max_n = 64;                  // per-request topology cap
  std::size_t cache_capacity = 4096;
  std::uint64_t seed = 7;          // service RNG stream
  double retry_after_ms = 50.0;    // backpressure hint
  nn::SampleOptions sample;        // temperature is overridden per request
  /// Inference weight tier the service repacks the model into at
  /// construction. Defaults to f32 — bit-identical tokens/logprobs to the
  /// pre-quantization serving path — so existing deployments see no
  /// silent output change. Opt into the int8 tier by setting this field
  /// (eva_serve_main reads EVA_QUANT=int8):
  /// decode throughput is weight-bandwidth-bound and the tolerance
  /// contract (DESIGN.md "Kernel backends & quantized inference") covers
  /// the FoM pipeline downstream.
  tensor::QuantKind quant = tensor::QuantKind::kF32;
  /// Latency budget for the serve.slow_request WARN log: a completed
  /// request slower than this (or one that finished past its own
  /// deadline) logs its id + per-stage breakdown, rate-limited. 0
  /// disables the budget check (deadline overruns still warn).
  /// eva_serve_main reads EVA_SERVE_SLOW_MS.
  double slow_warn_ms = 0.0;
};

class GenerationService {
 public:
  /// The model and tokenizer must outlive the service. The decoder and
  /// its slotted KV cache are allocated once, here. The model reference
  /// is mutable because construction repacks its inference weights into
  /// cfg.quant (a one-time derived-state update; parameters are never
  /// touched).
  GenerationService(nn::TransformerLM& model, const nn::Tokenizer& tok,
                    ServiceConfig cfg = {});
  /// Drains (completes admitted work) if the scheduler is still running.
  ~GenerationService();

  GenerationService(const GenerationService&) = delete;
  GenerationService& operator=(const GenerationService&) = delete;

  struct Ticket {
    std::uint64_t id = 0;
    std::future<Response> response;
  };

  /// Admit a request (thread-safe). The returned future is always
  /// eventually fulfilled: with kOk after scheduling, or immediately
  /// with kRejected (queue full) / kShutdown (service draining).
  [[nodiscard]] Ticket submit(Request req);

  /// Start the scheduler thread. Requests submitted before start() queue
  /// up and are processed in priority order once it runs.
  void start();

  /// Stop admission, complete every admitted request, and join the
  /// scheduler. Idempotent; also triggered by train::stop_requested()
  /// (SIGTERM) for the processing side, in which case drain() just joins.
  void drain();

  [[nodiscard]] std::size_t queue_depth() const;
  /// Queued requests per priority level (index = Priority value), for
  /// the live stats snapshot.
  [[nodiscard]] std::array<std::size_t, kNumPriorities> queue_depths() const;
  /// Seconds since the service was constructed.
  [[nodiscard]] double uptime_s() const;
  [[nodiscard]] ResultCache& cache() { return cache_; }
  [[nodiscard]] const ResultCache& cache() const { return cache_; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

 private:
  struct Pending {
    Request req;
    std::promise<Response> promise;
    std::uint64_t id = 0;
    std::chrono::steady_clock::time_point admitted;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    RequestTimeline timeline;  // request_id set at submit, stages filled
                               // as the request flows through the stages
  };

  void run();
  [[nodiscard]] Response execute(Pending& p, Rng& service_rng);
  void finish(Pending& p, Response&& r);
  [[nodiscard]] std::size_t depth_locked() const;

  const nn::TransformerLM* model_;
  const nn::Tokenizer* tok_;
  ServiceConfig cfg_;
  ResultCache cache_;
  nn::BatchedDecoder decoder_;
  obs::Counter* backend_c_;  // serve.backend.<tier>, bumped per request

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Pending>> queues_[kNumPriorities];
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
  bool started_ = false;
  std::mutex join_mu_;
  std::thread scheduler_;
  std::atomic<std::uint64_t> finished_seq_{0};
  std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();
};

}  // namespace eva::serve
