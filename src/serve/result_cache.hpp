// Canonical-result cache for the serving layer (DESIGN.md §10).
//
// Repeated or isomorphic topologies dominate a generation service's
// downstream cost: the model happily re-emits the same op-amp with the
// devices renumbered, and every such duplicate would otherwise pay a full
// validity check plus SPICE FoM evaluation (solve_dc + AC sweep). The
// cache memoizes that evaluation keyed by the Weisfeiler–Leman canonical
// hash (src/circuit/canon.hpp), which is invariant to device renumbering
// and net ordering — so an isomorphic resubmission is a hit by
// construction, not by luck.
//
// One bounded LRU behind one mutex: only the scheduler thread reads and
// fills it, and connection handlers only read size() for stats, so
// there is nothing to shard. Hit/miss/eviction counts surface as
// serve.cache_* metrics. The cache sidecar (serve/sidecar.hpp) stores
// its whole responses in the same LRU.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/rng.hpp"

namespace eva::obs {
class Counter;
class Gauge;
}  // namespace eva::obs

namespace eva::serve {

/// Bounded LRU map behind one mutex; all methods are thread-safe. Counts
/// `<prefix>hits`, `<prefix>misses` and `<prefix>evictions` and keeps the
/// `<prefix>size` gauge. Instantiated for the replica's ResultCache and
/// the sidecar's string store (result_cache.cpp).
template <class K, class V>
class BoundedLru {
 public:
  /// Holds up to `capacity` entries (at least one).
  BoundedLru(std::size_t capacity, const std::string& metric_prefix);

  /// Look up a key; a hit refreshes its LRU position.
  [[nodiscard]] std::optional<V> get(const K& key);

  /// Insert or overwrite a key (moves it to most-recent). Evicts the
  /// least-recently-used entry when full.
  void put(const K& key, V value);

  /// Entries currently resident.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drop every entry (bench cold-cache runs; keeps allocations).
  void clear();

 private:
  using Entries = std::list<std::pair<K, V>>;

  std::size_t capacity_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Gauge& size_;
  mutable std::mutex mu_;
  Entries lru_;  // front = most recently used
  std::unordered_map<K, typename Entries::iterator> index_;
};

/// Memoized downstream evaluation of one canonical topology (per target
/// circuit type — the FoM depends on how the topology is interpreted).
struct CachedEval {
  bool valid = false;  // structurally sound and DC-simulatable
  double fom = 0.0;    // figure of merit under default sizing (0 if !valid)
};

/// Bounded LRU map from canonical-topology key to CachedEval, counted as
/// serve.cache_hits / _misses / _evictions with the serve.cache_size
/// gauge.
class ResultCache : public BoundedLru<std::uint64_t, CachedEval> {
 public:
  explicit ResultCache(std::size_t capacity)
      : BoundedLru(capacity, "serve.cache_") {}

  /// Combine a canonical topology hash with the evaluation context so
  /// e.g. OpAmp-vs-PowerConverter evaluations of one topology never
  /// alias.
  [[nodiscard]] static std::uint64_t key_for(std::uint64_t canon_hash,
                                             int type_tag) {
    return mix64(canon_hash ^ (0x9E3779B97F4A7C15ULL *
                               (static_cast<std::uint64_t>(type_tag) + 1)));
  }
};

}  // namespace eva::serve
