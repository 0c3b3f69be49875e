#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace eva::obs {

namespace {

struct Registry {
  std::mutex mu;
  std::mutex export_mu;  // one exporter at a time
  // std::map: stable addresses (values are unique_ptr) and sorted export.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry();  // leaked: outlives the export at exit
    detail::export_at_exit();
    return reg;
  }();
  return *r;
}

template <class T>
T& lookup(std::map<std::string, std::unique_ptr<T>, std::less<>>& m,
          std::mutex& mu, std::string_view name) {
  std::lock_guard<std::mutex> lk(mu);
  auto it = m.find(name);
  if (it == m.end()) {
    it = m.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

}  // namespace

std::size_t Counter::stripe() noexcept {
  static thread_local const std::size_t idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 7;
  return idx;
}

void Histogram::Tally::add(double v, std::size_t cap) {
  min = count == 0 ? v : std::min(min, v);
  max = count == 0 ? v : std::max(max, v);
  sum += v;
  ++count;
  if (samples.size() < cap) {
    samples.push_back(v);
  } else {
    samples[splitmix64(count) % cap] = v;
  }
}

void Histogram::Tally::merge(const Tally& o) {
  min = count == 0 ? o.min : std::min(min, o.min);
  max = count == 0 ? o.max : std::max(max, o.max);
  sum += o.sum;
  count += o.count;
  samples.insert(samples.end(), o.samples.begin(), o.samples.end());
}

HistogramSnapshot Histogram::Tally::summary() const {
  HistogramSnapshot s;
  if (count == 0) return s;
  s.count = count;
  s.min = min;
  s.max = max;
  s.mean = sum / static_cast<double>(count);
  s.p50 = percentile(samples, 50.0);
  s.p90 = percentile(samples, 90.0);
  s.p99 = percentile(samples, 99.0);
  return s;
}

void Histogram::record(double v) { record_at(v, now_us()); }

void Histogram::record_at(double v, std::uint64_t now) {
  const std::uint64_t epoch = now / kBucketUs;
  std::lock_guard<std::mutex> lk(mu_);
  total_.add(v, kReservoir);
  Bucket& b = buckets_[epoch % kBuckets];
  if (b.epoch != epoch) {
    // The bucket last held a window that rotated out >= kWindowUs ago.
    b.epoch = epoch;
    b.count = 0;
    b.sum = 0.0;
    b.samples.clear();
  }
  b.add(v, kBucketSamples);
}

HistogramSnapshot Histogram::snapshot() const {
  Tally t;
  {
    std::lock_guard<std::mutex> lk(mu_);
    t = total_;
  }
  return t.summary();
}

HistogramSnapshot Histogram::window_snapshot() const {
  return window_snapshot_at(now_us());
}

HistogramSnapshot Histogram::window_snapshot_at(std::uint64_t now) const {
  const std::uint64_t epoch = now / kBucketUs;
  Tally t;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Bucket& b : buckets_) {
      // Live buckets cover epochs (epoch - kBuckets, epoch].
      if (b.count == 0 || b.epoch > epoch || b.epoch + kBuckets <= epoch) {
        continue;
      }
      t.merge(b);
    }
  }
  return t.summary();
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  total_ = Tally{};
  for (Bucket& b : buckets_) b = Bucket{};
}

Counter& counter(std::string_view name) {
  Registry& r = registry();
  return lookup(r.counters, r.mu, name);
}

Gauge& gauge(std::string_view name) {
  Registry& r = registry();
  return lookup(r.gauges, r.mu, name);
}

Histogram& histogram(std::string_view name) {
  Registry& r = registry();
  return lookup(r.histograms, r.mu, name);
}

namespace {

void snapshot_into(std::string& out, const HistogramSnapshot& s) {
  out += "{\"count\": " + std::to_string(s.count);
  out += ", \"min\": ";
  json_number_into(out, s.min);
  out += ", \"max\": ";
  json_number_into(out, s.max);
  out += ", \"mean\": ";
  json_number_into(out, s.mean);
  out += ", \"p50\": ";
  json_number_into(out, s.p50);
  out += ", \"p90\": ";
  json_number_into(out, s.p90);
  out += ", \"p99\": ";
  json_number_into(out, s.p99);
  out += "}";
}

}  // namespace

void histogram_json_into(std::string& out, const Histogram& h) {
  out += "{\"window\": ";
  snapshot_into(out, h.window_snapshot());
  out += ", \"total\": ";
  snapshot_into(out, h.snapshot());
  out += "}";
}

std::string metrics_to_json() {
  Registry& r = registry();
  std::string out = "{\n  \"counters\": {";
  // Snapshot the name->pointer views under the lock; metric reads
  // themselves are internally synchronized.
  std::vector<std::pair<std::string, const Counter*>> cs;
  std::vector<std::pair<std::string, const Gauge*>> gs;
  std::vector<std::pair<std::string, const Histogram*>> hs;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    for (const auto& [k, v] : r.counters) cs.emplace_back(k, v.get());
    for (const auto& [k, v] : r.gauges) gs.emplace_back(k, v.get());
    for (const auto& [k, v] : r.histograms) hs.emplace_back(k, v.get());
  }
  bool first = true;
  for (const auto& [name, c] : cs) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_string_into(out, name);
    out += ": ";
    json_number_into(out, c->value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gs) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_string_into(out, name);
    out += ": ";
    json_number_into(out, g->value());
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : hs) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_string_into(out, name);
    out += ": ";
    histogram_json_into(out, *h);
  }
  out += "\n  }\n}\n";
  return out;
}

bool write_metrics(const std::string& path) {
  // Temp + rename so a crash mid-export never leaves half-written JSON.
  return atomic_write_file(path, metrics_to_json());
}

bool export_now() {
  // One exporter at a time: the temp file atomic_write_file renames into
  // place is named per process, not per thread.
  std::lock_guard<std::mutex> lk(registry().export_mu);
  const char* metrics = std::getenv("EVA_METRICS_FILE");
  const bool wrote = metrics && *metrics && write_metrics(metrics);
  const char* trace = std::getenv("EVA_TRACE_FILE");
  if (trace && *trace) write_trace(trace);
  return wrote;
}

void detail::export_at_exit() {
  [[maybe_unused]] static const bool registered =
      std::atexit([] { export_now(); }) == 0;
}

}  // namespace eva::obs
