// Exponential backoff with deterministic jitter: a delay schedule only.
//
// One policy object is shared by every layer that retries over the
// network: the router's per-attempt failover delays, eva_serve_client's
// --retry flag, and eva_loadgen's reject/transport retry loop. Each
// caller keeps its own retry budget (the router's max_attempts, the
// tools' --retry). The jitter is a pure function of (seed, attempt) —
// splitmix64, no global RNG — so a retry schedule is reproducible
// run-to-run, which keeps the chaos gate's goodput numbers stable and
// lets tests assert exact bounds.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.hpp"

namespace eva::serve {

/// delay(k) = jitter * min(max_ms, base_ms * 2^(k-1)), with jitter drawn
/// deterministically from [0.5, 1.0). Attempt k is 1-based: the delay
/// *before* the k-th retry (i.e. after the k-th failure).
struct BackoffPolicy {
  double base_ms = 10.0;   // delay scale for the first retry
  double max_ms = 500.0;   // exponential growth cap

  [[nodiscard]] double delay_ms(int retry, std::uint64_t seed) const {
    if (retry < 1) return 0.0;
    double exp = base_ms;
    for (int i = 1; i < retry && exp < max_ms; ++i) exp *= 2.0;
    exp = std::min(exp, max_ms);
    const std::uint64_t h =
        splitmix64(seed ^ (0xD1B54A32D192ED03ULL * static_cast<std::uint64_t>(retry)));
    const double unit =
        static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
    return exp * (0.5 + 0.5 * unit);
  }
};

}  // namespace eva::serve
