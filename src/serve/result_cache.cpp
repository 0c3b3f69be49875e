#include "serve/result_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace eva::serve {

template <class K, class V>
BoundedLru<K, V>::BoundedLru(std::size_t capacity,
                             const std::string& metric_prefix)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      hits_(obs::counter(metric_prefix + "hits")),
      misses_(obs::counter(metric_prefix + "misses")),
      evictions_(obs::counter(metric_prefix + "evictions")),
      size_(obs::gauge(metric_prefix + "size")) {}

template <class K, class V>
std::optional<V> BoundedLru<K, V>::get(const K& key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.add();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.add();
  return it->second->second;
}

template <class K, class V>
void BoundedLru<K, V>::put(const K& key, V value) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions_.add();
  }
  lru_.emplace_front(key, std::move(value));
  index_.emplace(key, lru_.begin());
  size_.set(static_cast<double>(lru_.size()));
}

template <class K, class V>
std::size_t BoundedLru<K, V>::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

template <class K, class V>
void BoundedLru<K, V>::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  lru_.clear();
  index_.clear();
  size_.set(0.0);
}

template class BoundedLru<std::uint64_t, CachedEval>;
template class BoundedLru<std::string, std::string>;

}  // namespace eva::serve
