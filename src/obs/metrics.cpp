#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "obs/trace.hpp"

#include "obs/json.hpp"
#include "util/io.hpp"
#include "util/stats.hpp"

namespace eva::obs {

namespace {

struct Registry {
  std::mutex mu;
  // std::map: stable addresses (values are unique_ptr) and sorted export.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  std::map<std::string, std::unique_ptr<SlidingHistogram>, std::less<>>
      sliding;
};

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry();  // leaked: outlives late atexit users
    // Registered after construction, so the flush runs while the
    // registry is still alive even under static-destruction reordering.
    std::atexit([] { write_metrics_if_configured(); });
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

/// splitmix64: deterministic reservoir replacement index from the count.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t Counter::stripe() noexcept {
  static thread_local const std::size_t idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 7;
  return idx;
}

void Histogram::record(double v) {
  std::lock_guard<std::mutex> lk(mu_);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  ++count_;
  if (reservoir_.size() < kReservoir) {
    reservoir_.push_back(v);
  } else {
    reservoir_[mix(count_) % kReservoir] = v;
  }
}

HistogramSnapshot Histogram::snapshot() const {
  std::vector<double> sample;
  HistogramSnapshot s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (count_ == 0) return s;
    s.count = count_;
    s.min = min_;
    s.max = max_;
    s.mean = sum_ / static_cast<double>(count_);
    sample = reservoir_;
  }
  s.p50 = percentile(sample, 50.0);
  s.p90 = percentile(sample, 90.0);
  s.p99 = percentile(sample, 99.0);
  return s;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  reservoir_.clear();
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

SlidingHistogram::SlidingHistogram() : t0_(std::chrono::steady_clock::now()) {}

std::uint64_t SlidingHistogram::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
}

void SlidingHistogram::record(double v) { record_at(v, now_us()); }

void SlidingHistogram::record_at(double v, std::uint64_t now) {
  const std::uint64_t epoch = now / kBucketUs;
  std::lock_guard<std::mutex> lk(mu_);
  Bucket& b = buckets_[epoch % kBuckets];
  if (b.epoch != epoch) {
    // The bucket last held a window that rotated out >= kWindowUs ago.
    b.epoch = epoch;
    b.count = 0;
    b.sum = 0.0;
    b.samples.clear();
  }
  if (b.count == 0) {
    b.min = b.max = v;
  } else {
    b.min = std::min(b.min, v);
    b.max = std::max(b.max, v);
  }
  b.sum += v;
  ++b.count;
  if (b.samples.size() < kBucketSamples) {
    b.samples.push_back(v);
  } else {
    // Deterministic replacement, same scheme as Histogram's reservoir.
    b.samples[mix(b.count) % kBucketSamples] = v;
  }
  total_.record(v);
}

HistogramSnapshot SlidingHistogram::window_snapshot() const {
  return window_snapshot_at(now_us());
}

HistogramSnapshot SlidingHistogram::window_snapshot_at(
    std::uint64_t now) const {
  const std::uint64_t epoch = now / kBucketUs;
  HistogramSnapshot s;
  std::vector<double> sample;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Bucket& b : buckets_) {
      // Live buckets cover epochs (epoch - kBuckets, epoch].
      if (b.epoch == ~0ull || b.count == 0) continue;
      if (b.epoch > epoch || b.epoch + kBuckets <= epoch) continue;
      if (s.count == 0) {
        s.min = b.min;
        s.max = b.max;
      } else {
        s.min = std::min(s.min, b.min);
        s.max = std::max(s.max, b.max);
      }
      s.mean += b.sum;  // sum for now; divided below
      s.count += b.count;
      sample.insert(sample.end(), b.samples.begin(), b.samples.end());
    }
  }
  if (s.count == 0) return HistogramSnapshot{};
  s.mean /= static_cast<double>(s.count);
  s.p50 = percentile(sample, 50.0);
  s.p90 = percentile(sample, 90.0);
  s.p99 = percentile(sample, 99.0);
  return s;
}

void SlidingHistogram::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (Bucket& b : buckets_) b = Bucket{};
  total_.reset();
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

SlidingHistogram& sliding_histogram(std::string_view name) {
  Registry& r = registry();
  return lookup(r.sliding, r.mu, name);
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

std::string metrics_to_json() {
  Registry& r = registry();
  std::string out = "{\n  \"counters\": {";
  // Snapshot the name->pointer views under the lock; metric reads
  // themselves are internally synchronized.
  std::vector<std::pair<std::string, const Counter*>> cs;
  std::vector<std::pair<std::string, const Gauge*>> gs;
  std::vector<std::pair<std::string, const Histogram*>> hs;
  std::vector<std::pair<std::string, const SlidingHistogram*>> ss;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    for (const auto& [k, v] : r.counters) cs.emplace_back(k, v.get());
    for (const auto& [k, v] : r.gauges) gs.emplace_back(k, v.get());
    for (const auto& [k, v] : r.histograms) hs.emplace_back(k, v.get());
    for (const auto& [k, v] : r.sliding) ss.emplace_back(k, v.get());
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
    snapshot_into(out, h->snapshot());
  }
  out += "\n  },\n  \"sliding\": {";
  first = true;
  for (const auto& [name, h] : ss) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_string_into(out, name);
    out += ": {\"window\": ";
    snapshot_into(out, h->window_snapshot());
    out += ", \"total\": ";
    snapshot_into(out, h->total_snapshot());
    out += "}";
  }
  out += "\n  }\n}\n";
  return out;
}

bool write_metrics(const std::string& path) {
  // Temp + rename so a crash mid-export never leaves half-written JSON.
  return atomic_write_file(path, metrics_to_json());
}

bool write_metrics_if_configured() {
  const char* path = std::getenv("EVA_METRICS_FILE");
  if (!path || !*path) return false;
  return write_metrics(path);
}

namespace {

std::mutex& export_mu() {
  static std::mutex mu;
  return mu;
}

/// Background exporter driven by EVA_METRICS_FLUSH_SEC. Held in a
/// function-local static so its destructor (stop + join) runs before the
/// atexit metrics flush of the leaked registry — the final snapshot is
/// written exactly once by the atexit hook, never raced by this thread.
class Flusher {
 public:
  ~Flusher() { stop(); }

  bool start(double interval_sec) {
    std::lock_guard<std::mutex> lk(mu_);
    if (running_) return true;
    if (!(interval_sec > 0.0)) return false;
    stop_ = false;
    interval_ = interval_sec;
    thread_ = std::thread([this] { loop(); });
    running_ = true;
    return true;
  }

  void stop() {
    std::thread t;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!running_) return;
      {
        std::lock_guard<std::mutex> wlk(wake_mu_);
        stop_ = true;
      }
      cv_.notify_all();
      t = std::move(thread_);
      running_ = false;
    }
    if (t.joinable()) t.join();
  }

 private:
  void loop() {
    const auto period = std::chrono::duration<double>(interval_);
    std::unique_lock<std::mutex> lk(wake_mu_);
    while (!stop_) {
      if (cv_.wait_for(lk, period, [this] { return stop_; })) break;
      lk.unlock();
      export_now();
      lk.lock();
    }
  }

  std::mutex mu_;        // guards start/stop state
  std::mutex wake_mu_;   // guards stop_ for the cv
  std::condition_variable cv_;
  std::thread thread_;
  double interval_ = 0.0;
  bool stop_ = false;
  bool running_ = false;
};

Flusher& flusher() {
  static Flusher f;
  return f;
}

}  // namespace

bool export_now() {
  // One exporter at a time: the periodic thread, atexit, and explicit
  // callers all funnel through here, and atomic_write_file makes each
  // write all-or-nothing, so readers always see a complete snapshot.
  std::lock_guard<std::mutex> lk(export_mu());
  const bool wrote = write_metrics_if_configured();
  write_trace_if_configured();
  return wrote;
}

bool start_periodic_flush() {
  const char* v = std::getenv("EVA_METRICS_FLUSH_SEC");
  if (!v || !*v) return false;
  char* end = nullptr;
  const double sec = std::strtod(v, &end);
  if (end == v || !(sec > 0.0)) return false;
  return flusher().start(sec);
}

void stop_periodic_flush() { flusher().stop(); }

}  // namespace eva::obs
