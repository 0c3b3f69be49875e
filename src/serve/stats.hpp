// Live serving introspection (DESIGN.md "Request timelines & load
// harness"): the JSON snapshot behind the {"cmd":"stats"} protocol
// request.
//
// The snapshot is assembled from the process metrics registry (per-stage
// histograms with their rolling windows, counters, gauges) plus the service's own live
// state (queue depths per priority, cache occupancy, uptime) — no
// locks are held across stages, so a stats request is cheap enough to
// poll at dashboard rates while the scheduler is saturated.
#pragma once

#include <string>

#include "serve/service.hpp"

namespace eva::serve {

/// The stats object: rolling-window (last 10 s) and since-start
/// count/min/max/mean/p50/p90/p99 for every request stage and the end-to-end
/// latency, queue depths per priority, batch occupancy, cache hit rate,
/// request status counters, the active quant tier, and gemm_flops (the
/// tensor.gemm_flops counter).
[[nodiscard]] std::string stats_json(const GenerationService& svc);

/// One protocol line answering {"cmd":"stats"}: a terminator object
/// ({"done":true,"status":"ok",...}) carrying the snapshot under
/// "stats". No trailing newline.
[[nodiscard]] std::string stats_response_json(const GenerationService& svc);

}  // namespace eva::serve
