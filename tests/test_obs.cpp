// Tests for the observability layer (src/obs): metrics registry
// correctness under the thread pool, logger sinks and env control, trace
// JSON well-formedness. Run these under EVA_SANITIZE=thread to certify
// the concurrent paths.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "json_check.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace {

using namespace eva;

// JSON validation lives in tests/json_check.hpp (shared with
// test_serve.cpp, which validates the {"cmd":"stats"} snapshot with the
// same parser).
using testutil::json_valid;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- JSON validator self-test ----------------------------------------------

TEST(ObsJson, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(json_valid(R"({"a":1,"b":[1,2.5,-3e4],"c":{"d":"x\"y"}})"));
  EXPECT_TRUE(json_valid(R"([true,false,null])"));
  EXPECT_FALSE(json_valid(R"({"a":1)"));
  EXPECT_FALSE(json_valid(R"({"a":})"));
  EXPECT_FALSE(json_valid(R"({"a":1}extra)"));
  EXPECT_FALSE(json_valid(R"({"unterminated)"));
}

// --- metrics ----------------------------------------------------------------

TEST(ObsMetrics, CounterConcurrentIncrementsAreExact) {
  obs::Counter& c = obs::counter("test.concurrent_counter");
  c.reset();
  const std::size_t n = 10000;
  set_num_threads(4);
  parallel_for(0, n, [&](std::size_t) { c.add(); });
  set_num_threads(0);
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(n));
}

TEST(ObsMetrics, CounterAddWithWeightAndReset) {
  obs::Counter& c = obs::counter("test.weighted_counter");
  c.reset();
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(ObsMetrics, RegistryReturnsSameObjectForSameName) {
  obs::Counter& a = obs::counter("test.same_name");
  obs::Counter& b = obs::counter("test.same_name");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  EXPECT_EQ(b.value(), 3);
}

TEST(ObsMetrics, GaugeStoresLastValue) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST(ObsMetrics, HistogramPercentileSnapshot) {
  obs::Histogram& h = obs::histogram("test.hist_percentiles");
  h.reset();
  // 1..1000 fits the reservoir, so percentiles are exact interpolations.
  for (int v = 1; v <= 1000; ++v) h.record(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_NEAR(s.mean, 500.5, 1e-9);
  EXPECT_NEAR(s.p50, 500.5, 1.0);
  EXPECT_NEAR(s.p90, 900.0, 1.5);
  EXPECT_NEAR(s.p99, 990.0, 1.5);
}

TEST(ObsMetrics, EmptyHistogramSnapshotIsZero) {
  obs::Histogram& h = obs::histogram("test.hist_empty");
  h.reset();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(ObsMetrics, HistogramBeyondReservoirKeepsExactAggregates) {
  obs::Histogram& h = obs::histogram("test.hist_overflow");
  h.reset();
  const int n = 10000;  // > reservoir capacity (4096)
  for (int v = 0; v < n; ++v) h.record(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(n));
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, n - 1.0);
  EXPECT_NEAR(s.mean, (n - 1.0) / 2.0, 1e-6);
  // Percentiles are sampled, but must stay inside the recorded range
  // and keep their ordering.
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(ObsMetrics, ReservoirKeepsItsReplacementRule) {
  // Past 4096 records the reservoir replaces slot splitmix64(count) mod
  // 4096, so the since-start percentiles of a fixed stream are fixed
  // values, whatever the window does.
  obs::Histogram h;
  for (int v = 0; v < 10000; ++v) h.record_at(v, 0);
  const auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.mean, 4999.5);
  EXPECT_DOUBLE_EQ(s.p50, 7233.5);
  EXPECT_DOUBLE_EQ(s.p90, 9562.5);
  EXPECT_DOUBLE_EQ(s.p99, 9958.0499999999993);
}

TEST(ObsMetrics, ConcurrentHistogramAndCounterFromPool) {
  obs::Counter& c = obs::counter("test.pool_counter");
  obs::Histogram& h = obs::histogram("test.pool_hist");
  c.reset();
  h.reset();
  const std::size_t n = 2000;
  set_num_threads(4);
  parallel_for(0, n, [&](std::size_t i) {
    c.add(2);
    h.record(static_cast<double>(i));
  });
  set_num_threads(0);
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(2 * n));
  EXPECT_EQ(h.snapshot().count, static_cast<std::uint64_t>(n));
}

TEST(ObsSliding, WindowSeesRecentSamplesTotalSeesAll) {
  obs::Histogram h;
  // Timestamps are injected (record_at/window_snapshot_at), so rotation
  // is tested without sleeping through real wall-clock seconds.
  h.record_at(1.0, 0);
  h.record_at(2.0, obs::Histogram::kBucketUs);  // second bucket
  const auto in_window = h.window_snapshot_at(2 * obs::Histogram::kBucketUs);
  EXPECT_EQ(in_window.count, 2u);
  EXPECT_DOUBLE_EQ(in_window.min, 1.0);
  EXPECT_DOUBLE_EQ(in_window.max, 2.0);

  // Advance past the window: the first sample's bucket has rotated out.
  const auto later = h.window_snapshot_at(
      obs::Histogram::kWindowUs + obs::Histogram::kBucketUs / 2);
  EXPECT_EQ(later.count, 1u);
  EXPECT_DOUBLE_EQ(later.min, 2.0);

  // Far in the future the window is empty, but the since-start
  // histogram still remembers everything.
  const auto empty = h.window_snapshot_at(10 * obs::Histogram::kWindowUs);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(h.snapshot().count, 2u);
}

TEST(ObsSliding, EmptyWindowPercentilesAreZero) {
  obs::Histogram h;
  const auto snap = h.window_snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.p50, 0.0);
  EXPECT_DOUBLE_EQ(snap.p99, 0.0);
  EXPECT_DOUBLE_EQ(snap.mean, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
}

TEST(ObsSliding, BucketReuseResetsStaleEpoch) {
  obs::Histogram h;
  h.record_at(5.0, 0);
  // Same bucket index one full window later: the stale epoch must be
  // discarded, not merged.
  h.record_at(7.0, obs::Histogram::kWindowUs);
  const auto snap = h.window_snapshot_at(obs::Histogram::kWindowUs);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 7.0);
  EXPECT_EQ(h.snapshot().count, 2u);
}

TEST(ObsSliding, PercentilesOverWindowSamples) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record_at(static_cast<double>(i), 0);
  const auto snap = h.window_snapshot_at(0);
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.p50, 50.0, 2.0);
  EXPECT_NEAR(snap.p90, 90.0, 2.0);
  EXPECT_NEAR(snap.p99, 99.0, 2.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
}

TEST(ObsSliding, ConcurrentRecordsFromPoolWorkersAreExact) {
  obs::Histogram& h = obs::histogram("test.sliding_pool");
  h.reset();
  const std::size_t n = 2000;
  set_num_threads(4);
  parallel_for(0, n, [&](std::size_t i) {
    h.record(static_cast<double>(i % 17));
  });
  set_num_threads(0);
  // Aggregates are exact even past the per-bucket sample cap.
  EXPECT_EQ(h.snapshot().count, static_cast<std::uint64_t>(n));
  const auto win = h.window_snapshot();
  EXPECT_EQ(win.count, static_cast<std::uint64_t>(n));
  EXPECT_DOUBLE_EQ(win.max, 16.0);
  // Same name returns the same registered object.
  EXPECT_EQ(&h, &obs::histogram("test.sliding_pool"));
}

TEST(ObsSliding, AppearsInMetricsJson) {
  obs::histogram("test.sliding_json").record(3.0);
  const std::string json = obs::metrics_to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  // Every histogram carries its window next to its since-start view.
  EXPECT_NE(json.find("\"test.sliding_json\": {\"window\": {\"count\": 1, "
                      "\"min\": 3,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"total\": {\"count\": 1, \"min\": 3,"),
            std::string::npos);
}

TEST(ObsMetrics, MetricsJsonIsWellFormed) {
  obs::counter("test.json_counter").add(42);
  obs::gauge("test.json_gauge").set(3.5);
  obs::histogram("test.json_hist").record(1.0);
  const std::string json = obs::metrics_to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\""), std::string::npos);
}

TEST(ObsMetrics, WriteMetricsProducesValidFile) {
  const std::string path = ::testing::TempDir() + "eva_test_metrics.json";
  obs::counter("test.file_counter").add(1);
  ASSERT_TRUE(obs::write_metrics(path));
  const std::string content = read_file(path);
  EXPECT_TRUE(json_valid(content)) << content;
  std::remove(path.c_str());
}

// --- logging ----------------------------------------------------------------

TEST(ObsLog, ParseLevelNamesCaseInsensitive) {
  using obs::LogLevel;
  EXPECT_EQ(obs::parse_log_level("trace", LogLevel::kOff), LogLevel::kTrace);
  EXPECT_EQ(obs::parse_log_level("DEBUG", LogLevel::kOff), LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("Info", LogLevel::kOff), LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("warning", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("error", LogLevel::kOff), LogLevel::kError);
  EXPECT_EQ(obs::parse_log_level("off", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(obs::parse_log_level("bogus", LogLevel::kWarn), LogLevel::kWarn);
}

TEST(ObsLog, EnvVarDrivesLevelFiltering) {
  ::setenv("EVA_LOG_LEVEL", "error", 1);
  obs::reload_log_env();
  EXPECT_EQ(obs::log_level(), obs::LogLevel::kError);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kInfo));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kWarn));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kError));

  ::setenv("EVA_LOG_LEVEL", "debug", 1);
  obs::reload_log_env();
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kDebug));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kTrace));

  ::unsetenv("EVA_LOG_LEVEL");
  obs::set_log_level(obs::LogLevel::kInfo);
}

TEST(ObsLog, FilteredEventsDoNotReachTheJsonlSink) {
  const std::string path = ::testing::TempDir() + "eva_test_filtered.jsonl";
  std::remove(path.c_str());
  obs::set_log_stderr(false);
  obs::set_log_level(obs::LogLevel::kWarn);
  obs::set_log_file(path);
  obs::log_info("test.should_be_dropped");
  obs::log_warn("test.should_appear");
  obs::set_log_file("");
  obs::set_log_level(obs::LogLevel::kInfo);
  obs::set_log_stderr(true);

  const std::string content = read_file(path);
  EXPECT_EQ(content.find("should_be_dropped"), std::string::npos);
  EXPECT_NE(content.find("should_appear"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsLog, ConcurrentJsonlLinesAreWholeAndValid) {
  const std::string path = ::testing::TempDir() + "eva_test_concurrent.jsonl";
  std::remove(path.c_str());
  obs::set_log_stderr(false);
  obs::set_log_file(path);
  obs::Counter& c = obs::counter("test.log_counter");
  c.reset();
  const std::size_t n = 500;
  set_num_threads(4);
  parallel_for(0, n, [&](std::size_t i) {
    c.add();
    obs::log_info("test.worker_event", {{"i", i}, {"tag", "worker"}});
  });
  set_num_threads(0);
  obs::set_log_file("");
  obs::set_log_stderr(true);

  EXPECT_EQ(c.value(), static_cast<std::int64_t>(n));
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_TRUE(json_valid(line)) << line;
    EXPECT_NE(line.find("test.worker_event"), std::string::npos);
  }
  EXPECT_EQ(lines, n);
  std::remove(path.c_str());
}

TEST(ObsLog, RateLimitedLoggingEmitsFirstThenEveryNth) {
  const std::string path = ::testing::TempDir() + "eva_test_ratelimit.jsonl";
  std::remove(path.c_str());
  obs::set_log_stderr(false);
  obs::set_log_file(path);
  for (int i = 0; i < 100; ++i) {
    obs::log_every_n(obs::LogLevel::kWarn, "test.rate_limited", 10,
                     {{"i", i}});
  }
  obs::set_log_file("");
  obs::set_log_stderr(true);

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_TRUE(json_valid(line)) << line;
    EXPECT_NE(line.find("\"count\":"), std::string::npos);
  }
  // Occurrences 1, 10, 20, ..., 100.
  EXPECT_EQ(lines, 11u);
  std::remove(path.c_str());
}

TEST(ObsLog, StringFieldsAreJsonEscaped) {
  const std::string path = ::testing::TempDir() + "eva_test_escape.jsonl";
  std::remove(path.c_str());
  obs::set_log_stderr(false);
  obs::set_log_file(path);
  obs::log_info("test.escape", {{"msg", "quote\" backslash\\ tab\t"}});
  obs::set_log_file("");
  obs::set_log_stderr(true);

  const std::string content = read_file(path);
  ASSERT_FALSE(content.empty());
  EXPECT_TRUE(json_valid(content.substr(0, content.find('\n')))) << content;
  std::remove(path.c_str());
}

// --- one clock --------------------------------------------------------------

/// The number after `"key":` in `json`, searching from `from`.
double number_after(const std::string& json, const std::string& key,
                    std::size_t from = 0) {
  const std::size_t at = json.find("\"" + key + "\":", from);
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

TEST(ObsClock, LogLineLiesInsideItsSpan) {
  // Log lines and spans read one clock: a line logged inside a span
  // carries a ts_s inside that span, however long before it the process
  // recorded its first span.
  const std::string path = ::testing::TempDir() + "eva_test_clock.jsonl";
  std::remove(path.c_str());
  obs::clear_trace();
  obs::set_trace_enabled(true);
  { obs::Span first("test.clock_first"); }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  obs::set_log_stderr(false);
  obs::set_log_file(path);
  {
    obs::Span span("test.clock_span");
    obs::log_info("test.clock_line");
  }
  obs::set_log_file("");
  obs::set_log_stderr(true);
  obs::set_trace_enabled(false);

  const std::string trace = obs::trace_to_json();
  const std::size_t ev = trace.find("\"name\":\"test.clock_span\"");
  ASSERT_NE(ev, std::string::npos) << trace;
  const double ts = number_after(trace, "ts", ev);
  const double dur = number_after(trace, "dur", ev);
  const std::string line = read_file(path);
  ASSERT_NE(line.find("test.clock_line"), std::string::npos) << line;
  const double line_us = number_after(line, "ts_s") * 1e6;
  EXPECT_GE(line_us, ts - 0.5) << line << trace;
  EXPECT_LE(line_us, ts + dur + 0.5) << line << trace;
  std::remove(path.c_str());
  obs::clear_trace();
}

// --- tracing ----------------------------------------------------------------

TEST(ObsTrace, DisabledSpanRecordsNothing) {
  obs::set_trace_enabled(false);
  obs::clear_trace();
  { obs::Span span("test.disabled_span"); }
  const std::string json = obs::trace_to_json();
  EXPECT_EQ(json.find("test.disabled_span"), std::string::npos);
}

TEST(ObsTrace, SpansFromPoolWorkersProduceWellFormedChromeTrace) {
  obs::clear_trace();
  obs::set_trace_enabled(true);
  {
    obs::Span outer("test.outer");
    set_num_threads(4);
    parallel_for(0, std::size_t{64}, [&](std::size_t) {
      obs::Span inner("test.inner");
    });
    set_num_threads(0);
  }
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_to_json();
  EXPECT_TRUE(json_valid(json)) << json.substr(0, 512);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("test.outer"), std::string::npos);
  EXPECT_NE(json.find("test.inner"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  obs::clear_trace();
}

TEST(ObsTrace, RequestSpansGetTheirOwnLane) {
  obs::clear_trace();
  obs::set_trace_enabled(true);
  {
    obs::Span a("serve.request", 41u);
    obs::Span b("serve.request.decode", 41u);
  }
  { obs::Span plain("test.thread_span"); }
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_to_json();
  EXPECT_TRUE(json_valid(json)) << json.substr(0, 512);
  // Request-tagged spans land on synthetic pid 2 with tid = request id,
  // so Perfetto renders one lane per request; the id also rides in args.
  EXPECT_NE(json.find("\"pid\":2,\"tid\":41"), std::string::npos) << json;
  EXPECT_NE(json.find("\"request_id\":41"), std::string::npos);
  // Plain spans stay on the real-thread pid, and both process lanes are
  // named via metadata events.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  obs::clear_trace();
}

TEST(ObsTrace, WriteTraceProducesValidFile) {
  obs::clear_trace();
  obs::set_trace_enabled(true);
  { obs::Span span("test.file_span"); }
  obs::set_trace_enabled(false);

  const std::string path = ::testing::TempDir() + "eva_test_trace.json";
  ASSERT_TRUE(obs::write_trace(path));
  const std::string content = read_file(path);
  EXPECT_TRUE(json_valid(content)) << content.substr(0, 512);
  EXPECT_NE(content.find("test.file_span"), std::string::npos);
  std::remove(path.c_str());
  obs::clear_trace();
}

}  // namespace
