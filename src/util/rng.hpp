// Deterministic, locally-owned random number generation.
//
// EVA never uses global RNG state: every stochastic component (dataset
// generator, tokenizer augmentation, transformer init, PPO rollouts, GA)
// owns an eva::Rng seeded explicitly, so whole-pipeline runs are
// reproducible bit-for-bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/error.hpp"

namespace eva {

/// splitmix64's output function: a bijective 64-bit mix.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// splitmix64 (Steele, Lea and Flood) as a pure function of its state:
/// the state advances by 0x9E3779B97F4A7C15 per output, so chained from
/// x the outputs are splitmix64(x), splitmix64(x + 0x9E37...), ...
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  return mix64(x + 0x9E3779B97F4A7C15ULL);
}

/// xoshiro256** PRNG with splitmix64 seeding. Small, fast, high quality.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the 256-bit state.
    for (auto& s : state_) {
      s = splitmix64(seed);
      seed += 0x9E3779B97F4A7C15ULL;
    }
  }

  /// Derive an independent child stream (for per-thread / per-sample use).
  [[nodiscard]] Rng fork() { return Rng{next() ^ 0xA5A5A5A5DEADBEEFULL}; }

  /// Complete generator state — the 256-bit xoshiro state plus the cached
  /// Box–Muller half — so checkpointed training runs resume bit-for-bit.
  struct State {
    std::uint64_t s[4] = {};
    double cached = 0.0;
    bool has_cached = false;
  };

  [[nodiscard]] State save_state() const {
    State st;
    for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
    st.cached = cached_;
    st.has_cached = has_cached_;
    return st;
  }

  void restore_state(const State& st) {
    for (int i = 0; i < 4; ++i) state_[i] = st.s[i];
    cached_ = st.cached;
    has_cached_ = st.has_cached;
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <algorithm> shuffles).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    EVA_ASSERT(n > 0, "Rng::index requires n > 0");
    // Lemire's multiply-shift bounded rejection.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t t = (0 - static_cast<std::uint64_t>(n)) % n;
      while (lo < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::size_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int range(int lo, int hi) {
    EVA_ASSERT(lo <= hi, "Rng::range requires lo <= hi");
    return lo + static_cast<int>(index(static_cast<std::size_t>(hi - lo) + 1));
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Standard normal via Box–Muller (cached second value).
  double normal() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 6.283185307179586 * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Pick a uniformly random element of a non-empty vector.
  template <typename T>
  const T& choice(const std::vector<T>& v) {
    EVA_ASSERT(!v.empty(), "Rng::choice on empty vector");
    return v[index(v.size())];
  }

  /// Sample an index proportionally to non-negative weights (sum > 0).
  std::size_t weighted(const std::vector<double>& weights) {
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    EVA_ASSERT(total > 0.0, "Rng::weighted requires positive total weight");
    double u = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      u -= weights[i];
      if (u <= 0.0) return i;
    }
    return weights.size() - 1;
  }

  /// Fisher–Yates in-place shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[index(i)]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace eva
