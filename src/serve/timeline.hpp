// Per-request latency attribution (DESIGN.md "Request timelines & load
// harness").
//
// Every request admitted by GenerationService carries one
// RequestTimeline: the monotonically unique request id plus wall-clock
// milliseconds spent in each stage of its life:
//
//   queue      admission -> scheduler pickup
//   decode     batched token generation + token->netlist decode + dump
//   cache      ResultCache lookups/inserts (WL-canonical-hash memoization)
//   verify     SPICE validity check + FoM evaluation (cache misses only)
//   write      response serialization onto the client socket (recorded by
//              the TCP front end after the terminator line is sent, so it
//              reaches the metrics window but not the terminator itself)
//
// The service-side stages (everything but write) sum, within scheduler
// noise, to the end-to-end latency of an Status::kOk response — the
// invariant the load harness (tools/eva_loadgen) checks. Stage values
// feed the serve.stage.<name>_ms sliding-window histograms behind the
// {"cmd":"stats"} snapshot, the per-request stage breakdown echoed in
// the protocol terminator line, and the serve.slow_request WARN log.
#pragma once

#include <cstdint>
#include <string_view>

namespace eva::serve {

enum class Stage : int {
  kQueue = 0,
  kDecode,
  kCache,
  kVerify,
  kWrite,
};
inline constexpr int kNumStages = 5;

[[nodiscard]] std::string_view stage_name(Stage s);

struct RequestTimeline {
  std::uint64_t request_id = 0;
  double stage_ms[kNumStages] = {};
  std::int64_t tokens = 0;        // sampled tokens across the request
  std::int64_t decode_steps = 0;  // batched transformer forwards

  [[nodiscard]] double ms(Stage s) const {
    return stage_ms[static_cast<int>(s)];
  }
  void add(Stage s, double ms) { stage_ms[static_cast<int>(s)] += ms; }

  /// Sum of the service-side stages (queue/decode/cache/verify — the
  /// write stage happens after the response is assembled, on the socket
  /// thread). For an ok response this tracks Response::latency_ms.
  [[nodiscard]] double service_sum_ms() const {
    double total = 0.0;
    for (int s = 0; s < kNumStages; ++s) {
      if (s != static_cast<int>(Stage::kWrite)) total += stage_ms[s];
    }
    return total;
  }
};

/// Record one finished request's stages into the rolling-window metrics
/// (serve.stage.<name>_ms). Stages that never ran (0 ms and no tokens on
/// a timeout, say) are still recorded when `all_stages` is set — the
/// percentile sum should account for every ok request — while
/// terminal-before-work requests record only their queue wait.
void record_timeline_metrics(const RequestTimeline& t, bool all_stages);

}  // namespace eva::serve
