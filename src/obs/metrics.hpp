// Process-wide metrics registry: named counters, gauges, and histograms.
//
// Designed for the PR-1 thread pool: Counter::add is a relaxed atomic
// increment on one of 8 cache-line-sized stripes selected per thread, so
// pool workers never contend on a shared line; Gauge is a single relaxed
// atomic store; Histogram takes a per-instance mutex but is only used on
// per-step / per-solve granularity, never inside elementwise loops.
//
// Lookup by name (counter("x")) takes a registry mutex — hot paths cache
// the returned reference in a function-local static:
//
//   static obs::Counter& tokens = obs::counter("sampler.tokens");
//   tokens.add(n);
//
// References stay valid for the process lifetime: the registry never
// deallocates.
//
// Export: metrics_to_json() renders {"counters":{...},"gauges":{...},
// "histograms":{name:{count,min,max,mean,p50,p90,p99}}}; when
// EVA_METRICS_FILE is set the registry writes that JSON there at process
// exit (and on demand via write_metrics()). Percentiles come from
// util/stats over a bounded reservoir per histogram.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace eva::obs {

class Counter {
 public:
  void add(std::int64_t n = 1) noexcept {
    cells_[stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  static std::size_t stripe() noexcept;
  std::array<Cell, 8> cells_;
};

class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double min = 0.0, max = 0.0, mean = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
};

/// Running min/max/mean over all recorded values plus percentile
/// estimates over a deterministic bounded reservoir (replacement index
/// derived from the running count, no RNG state).
class Histogram {
 public:
  void record(double v);
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

 private:
  static constexpr std::size_t kReservoir = 4096;
  mutable std::mutex mu_;
  std::vector<double> reservoir_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Histogram with a rolling time window next to the since-start totals:
/// the last kWindow seconds are covered by kBuckets rotating sub-second
/// buckets (each holding count/sum/min/max plus a bounded deterministic
/// sample set), so a long-lived server can answer "what is p99 *right
/// now*" without the since-start distribution flattening every spike.
///
/// All clock-facing methods have an `_at(now_us)` twin taking explicit
/// microseconds-since-construction, so tests drive window rotation
/// without sleeping. Thread-safe (one mutex; recorded on per-request
/// granularity, never inside elementwise loops).
class SlidingHistogram {
 public:
  static constexpr std::uint64_t kBuckets = 10;
  static constexpr std::uint64_t kBucketUs = 1'000'000;  // 1 s per bucket
  static constexpr std::uint64_t kWindowUs = kBuckets * kBucketUs;

  SlidingHistogram();

  void record(double v);
  void record_at(double v, std::uint64_t now_us);

  /// Distribution of the last kWindowUs (empty window -> zero snapshot).
  [[nodiscard]] HistogramSnapshot window_snapshot() const;
  [[nodiscard]] HistogramSnapshot window_snapshot_at(
      std::uint64_t now_us) const;

  /// Since-start distribution (same semantics as Histogram).
  [[nodiscard]] HistogramSnapshot total_snapshot() const {
    return total_.snapshot();
  }

  void reset();

 private:
  struct Bucket {
    std::uint64_t epoch = ~0ull;  // now_us / kBucketUs when last written
    std::uint64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
    std::vector<double> samples;  // bounded: kBucketSamples
  };
  static constexpr std::size_t kBucketSamples = 512;

  [[nodiscard]] std::uint64_t now_us() const;

  mutable std::mutex mu_;
  Bucket buckets_[kBuckets];
  Histogram total_;
  std::chrono::steady_clock::time_point t0_;
};

/// Registry lookup; creates on first use. Returned references are valid
/// for the process lifetime.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);
[[nodiscard]] SlidingHistogram& sliding_histogram(std::string_view name);

/// Full registry as a JSON object (stable name order).
[[nodiscard]] std::string metrics_to_json();

/// Write metrics_to_json() to `path`. Returns false on I/O failure.
bool write_metrics(const std::string& path);

/// Write to $EVA_METRICS_FILE if set (also runs automatically at process
/// exit). Returns false when unset or on I/O failure.
bool write_metrics_if_configured();

/// Export metrics + trace to their configured files right now.
/// Serialized against concurrent callers (the periodic flusher, the
/// atexit hook, and explicit calls may overlap), and safe to call any
/// number of times — each call overwrites atomically. Returns true when
/// a metrics file was actually written.
bool export_now();

/// Start the background flusher if EVA_METRICS_FLUSH_SEC is set to a
/// positive interval (seconds, fractional allowed): export_now() runs on
/// that cadence until stop_periodic_flush() or process exit. Idempotent;
/// long-lived processes (the serving binary, trainers) call this once at
/// startup. Returns true when a flusher is (now) running.
bool start_periodic_flush();

/// Stop the background flusher (joins its thread). Safe without a prior
/// start. The atexit export still runs, so stopping never loses the
/// final snapshot.
void stop_periodic_flush();

}  // namespace eva::obs
