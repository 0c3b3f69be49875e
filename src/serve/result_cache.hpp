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
// serve.cache_* metrics.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace eva::serve {

/// Memoized downstream evaluation of one canonical topology (per target
/// circuit type — the FoM depends on how the topology is interpreted).
struct CachedEval {
  bool valid = false;  // structurally sound and DC-simulatable
  double fom = 0.0;    // figure of merit under default sizing (0 if !valid)
};

/// Bounded LRU map from canonical-topology key to CachedEval. All methods
/// are thread-safe.
class ResultCache {
 public:
  /// Holds up to `capacity` entries (at least one).
  explicit ResultCache(std::size_t capacity);

  /// Look up a key; a hit refreshes its LRU position. Counts
  /// serve.cache_hits / serve.cache_misses.
  [[nodiscard]] std::optional<CachedEval> get(std::uint64_t key);

  /// Insert or overwrite a key (moves it to most-recent). Evicts the
  /// least-recently-used entry when full (serve.cache_evictions).
  void put(std::uint64_t key, const CachedEval& value);

  /// Entries currently resident.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drop every entry (bench cold-cache runs; keeps allocations).
  void clear();

  /// Combine a canonical topology hash with the evaluation context so
  /// e.g. OpAmp-vs-PowerConverter evaluations of one topology never
  /// alias.
  [[nodiscard]] static std::uint64_t key_for(std::uint64_t canon_hash,
                                             int type_tag) {
    std::uint64_t x =
        canon_hash ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(
                                                  type_tag) +
                                              1));
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  // Front = most recently used.
  std::list<std::pair<std::uint64_t, CachedEval>> lru_;
  std::unordered_map<std::uint64_t,
                     std::list<std::pair<std::uint64_t, CachedEval>>::iterator>
      index_;
};

}  // namespace eva::serve
