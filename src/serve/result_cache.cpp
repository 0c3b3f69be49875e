#include "serve/result_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace eva::serve {

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::optional<CachedEval> ResultCache::get(std::uint64_t key) {
  static obs::Counter& hits = obs::counter("serve.cache_hits");
  static obs::Counter& misses = obs::counter("serve.cache_misses");
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses.add();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits.add();
  return it->second->second;
}

void ResultCache::put(std::uint64_t key, const CachedEval& value) {
  static obs::Counter& evictions = obs::counter("serve.cache_evictions");
  static obs::Gauge& size_g = obs::gauge("serve.cache_size");
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions.add();
  }
  lru_.emplace_front(key, value);
  index_.emplace(key, lru_.begin());
  size_g.set(static_cast<double>(lru_.size()));
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  lru_.clear();
  index_.clear();
  obs::gauge("serve.cache_size").set(0.0);
}

}  // namespace eva::serve
