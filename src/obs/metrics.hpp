// Process-wide metrics registry: named counters, gauges, and histograms.
//
// Designed for the PR-1 thread pool: Counter::add is a relaxed atomic
// increment on one of 8 cache-line-sized stripes selected per thread, so
// pool workers never contend on a shared line; Gauge is a single relaxed
// atomic store; Histogram takes a per-instance mutex but is only used on
// per-step / per-solve / per-request granularity, never inside
// elementwise loops.
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
// "histograms":{name:{"window":{...},"total":{...}}}}, each summary
// {count,min,max,mean,p50,p90,p99}. export_now() writes that JSON to
// EVA_METRICS_FILE and the trace to EVA_TRACE_FILE, at process exit and
// on demand. Percentiles come from util/stats over bounded sample sets.
#pragma once

#include <array>
#include <atomic>
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

/// Two views of one stream of values, behind one mutex:
///   * since start: running count/sum/min/max plus percentiles over a
///     deterministic bounded reservoir (replacement index derived from
///     the running count, no RNG state);
///   * a rolling window: the last kWindowUs, covered by kBuckets buckets
///     on obs::now_us()'s axis, each holding count/sum/min/max and a
///     bounded sample set, so a long-lived server can answer "what is p99
///     *right now*" without the since-start distribution flattening every
///     spike. Buckets rotate lazily, when a record lands on a stale one.
///
/// record_at and window_snapshot_at take the time explicitly, so tests
/// drive window rotation without sleeping.
class Histogram {
 public:
  static constexpr std::uint64_t kBuckets = 10;
  static constexpr std::uint64_t kBucketUs = 1'000'000;  // 1 s per bucket
  static constexpr std::uint64_t kWindowUs = kBuckets * kBucketUs;

  void record(double v);
  void record_at(double v, std::uint64_t now_us);

  /// Since-start distribution (empty -> zero snapshot).
  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Distribution of the last kWindowUs (empty window -> zero snapshot).
  [[nodiscard]] HistogramSnapshot window_snapshot() const;
  [[nodiscard]] HistogramSnapshot window_snapshot_at(
      std::uint64_t now_us) const;

  void reset();

 private:
  /// count/sum/min/max and at most `cap` samples; past `cap`, a record
  /// replaces the sample at splitmix64(count) mod cap.
  struct Tally {
    std::uint64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
    std::vector<double> samples;
    void add(double v, std::size_t cap);
    void merge(const Tally& o);
    [[nodiscard]] HistogramSnapshot summary() const;
  };
  struct Bucket : Tally {
    std::uint64_t epoch = ~0ull;  // now_us / kBucketUs when last written
  };
  static constexpr std::size_t kReservoir = 4096;
  static constexpr std::size_t kBucketSamples = 512;

  mutable std::mutex mu_;
  Tally total_;
  Bucket buckets_[kBuckets];
};

/// Registry lookup; creates on first use. Returned references are valid
/// for the process lifetime.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Append {"window": {...}, "total": {...}} for `h`: the shape of each
/// entry under metrics_to_json()'s "histograms".
void histogram_json_into(std::string& out, const Histogram& h);

/// Full registry as a JSON object (stable name order).
[[nodiscard]] std::string metrics_to_json();

/// Write metrics_to_json() to `path`. Returns false on I/O failure.
bool write_metrics(const std::string& path);

/// Write metrics_to_json() to $EVA_METRICS_FILE and trace_to_json() to
/// $EVA_TRACE_FILE, each if set. Runs at process exit once the registry
/// or the tracer is in use, and on demand (the trainers call it at the
/// end of a run). Serialized against concurrent callers and safe to call
/// any number of times — each call overwrites atomically. Returns true
/// when a metrics file was written.
bool export_now();

namespace detail {
/// Run export_now() at process exit; registers once however often called.
void export_at_exit();
}  // namespace detail

}  // namespace eva::obs
