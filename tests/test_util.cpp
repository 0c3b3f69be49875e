// Unit tests for src/util: RNG, statistics (incl. Otsu), parallel_for,
// CSV/console output helpers, environment parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/env.hpp"
#include "util/io.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using eva::Rng;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, IndexBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Rng, IndexCoversAllValues) {
  Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 300; ++i) {
    const int v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments) {
  Rng rng(21);
  const int n = 50000;
  double s = 0, s2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.03);
  EXPECT_NEAR(s2 / n, 1.0, 0.05);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(13);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependentStreams) {
  Rng a(42);
  Rng child = a.fork();
  // Child continues to produce values uncorrelated with the parent.
  EXPECT_NE(a.next(), child.next());
}

TEST(Rng, Splitmix64MatchesReferenceVectors) {
  // splitmix64 chained from 0 gives the generator's published vectors,
  // and Rng seeds its xoshiro state with that same sequence.
  const std::uint64_t want[] = {0xe220a8397b1dcdafULL, 0x6e789e6aa1b965f4ULL,
                                0x06c45d188009454fULL};
  std::uint64_t x = 0;
  for (const std::uint64_t w : want) {
    EXPECT_EQ(eva::splitmix64(x), w);
    x += 0x9E3779B97F4A7C15ULL;
  }
  const Rng::State st = Rng(0).save_state();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(st.s[i], want[i]) << i;
}

// --- stats ---------------------------------------------------------------

TEST(Stats, MeanVariance) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(eva::mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(eva::variance(xs), 1.25);
  EXPECT_NEAR(eva::stddev(xs), std::sqrt(1.25), 1e-12);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(eva::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(eva::variance({}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{3, 1, 2, 4};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(eva::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(eva::percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(eva::percentile(xs, 50), 2.5);
}

TEST(Stats, HistogramNormalized) {
  std::vector<double> xs{0.1, 0.1, 0.9};
  const auto h = eva::histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_NEAR(h[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(h[1], 1.0 / 3.0, 1e-12);
}

TEST(Stats, HistogramClampsOutliers) {
  std::vector<double> xs{-5.0, 10.0};
  const auto h = eva::histogram(xs, 0.0, 1.0, 4, false);
  EXPECT_DOUBLE_EQ(h.front(), 1.0);
  EXPECT_DOUBLE_EQ(h.back(), 1.0);
}

TEST(Stats, OtsuSeparatesBimodal) {
  // Two clusters at 1.0 and 10.0: the threshold must classify every
  // sample into its own cluster (Otsu may land anywhere in the gap).
  std::vector<double> xs;
  eva::Rng rng(1);
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(1.0, 0.2));
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(10.0, 0.2));
  const double t = eva::otsu_threshold(xs);
  for (std::size_t i = 0; i < 200; ++i) EXPECT_LT(xs[i], t);
  for (std::size_t i = 200; i < 400; ++i) EXPECT_GT(xs[i], t);
}

TEST(Stats, OtsuDegenerateAllEqual) {
  std::vector<double> xs(10, 3.14);
  EXPECT_DOUBLE_EQ(eva::otsu_threshold(xs), 3.14);
}

TEST(Stats, EmaSmoothes) {
  std::vector<double> xs{0, 10, 0, 10};
  const auto y = eva::ema(xs, 0.5);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  EXPECT_DOUBLE_EQ(y[2], 2.5);
}

// --- parallel ------------------------------------------------------------

TEST(Parallel, ForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  eva::parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunksSumCorrect) {
  std::atomic<long> sum{0};
  eva::parallel_chunks(0, 100000, [&](std::size_t b, std::size_t e) {
    long local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
    sum += local;
  });
  EXPECT_EQ(sum.load(), 100000L * 99999L / 2);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  eva::parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ThreadOverrideRespected) {
  eva::set_num_threads(1);
  EXPECT_EQ(eva::num_threads(), 1u);
  eva::set_num_threads(0);
  EXPECT_GE(eva::num_threads(), 1u);
}

// RAII helper: force a thread count for one test, restore auto after.
struct ThreadGuard {
  explicit ThreadGuard(std::size_t n) { eva::set_num_threads(n); }
  ~ThreadGuard() { eva::set_num_threads(0); }
};

TEST(Parallel, ExceptionPropagatesToCaller) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      eva::parallel_for(0, 10000,
                        [](std::size_t i) {
                          if (i == 7777) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after an exception drained a region.
  std::atomic<int> hits{0};
  eva::parallel_for(0, 1000, [&](std::size_t) { hits++; });
  EXPECT_EQ(hits.load(), 1000);
}

TEST(Parallel, ExceptionInChunksPropagates) {
  ThreadGuard guard(4);
  EXPECT_THROW(eva::parallel_chunks(0, 100000,
                                    [](std::size_t b, std::size_t) {
                                      if (b == 0) throw std::logic_error("c");
                                    }),
               std::logic_error);
}

TEST(Parallel, NestedCallsRunInlineWithoutDeadlock) {
  ThreadGuard guard(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  eva::parallel_for(0, 64, [&](std::size_t i) {
    // Inner parallel regions must not re-enter the pool (deadlock) nor
    // drop indices; they run inline on the calling worker.
    eva::parallel_for(0, 64, [&](std::size_t j) { hits[i * 64 + j]++; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunksDeterministicAcrossThreadCounts) {
  // With the chunk layout fixed by (range, num_threads), per-chunk
  // results must be bitwise identical regardless of which worker ran
  // them — only the thread *count* may change the partition.
  const std::size_t n = 4096;
  auto run = [&](std::size_t threads) {
    eva::set_num_threads(threads);
    std::vector<double> out(n, 0.0);
    eva::parallel_chunks(
        0, n,
        [&](std::size_t b, std::size_t e) {
          double acc = 0.0;
          for (std::size_t i = b; i < e; ++i) {
            acc += std::sin(static_cast<double>(i)) * 1e-3;
            out[i] = acc;
          }
        },
        64);
    return out;
  };
  const auto serial = run(1);
  const auto fixed4_a = run(4);
  const auto fixed4_b = run(4);
  eva::set_num_threads(0);
  // Same thread count twice -> bitwise identical, even though chunk
  // scheduling across workers is nondeterministic.
  EXPECT_EQ(fixed4_a, fixed4_b);
  // Per-element prefix values only depend on the owning chunk's start.
  // The 4-thread layout is chunk = ceil(4096/4) = 1024, and the serial
  // run is one chunk starting at 0, so the first 1024 prefixes agree
  // bitwise between the two layouts.
  for (std::size_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(serial[i], fixed4_a[i]) << "index " << i;
  }
}

TEST(Parallel, ManyDispatchesSmoke) {
  // Hammer the pool with many small regions to exercise the
  // generation-handoff path (stale wakeups, ticket gating).
  ThreadGuard guard(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round) {
    eva::parallel_for(0, 64, [&](std::size_t i) {
      sum += static_cast<long>(i);
    });
  }
  EXPECT_EQ(sum.load(), 200L * (64L * 63L / 2));
}

// --- io --------------------------------------------------------------------

TEST(Io, CsvEscapesSpecialChars) {
  eva::CsvWriter w({"a", "b"});
  w.add_row({std::string("x,y"), std::string("q\"z")});
  std::ostringstream os;
  w.write(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"q\"\"z\"\n");
}

TEST(Io, CsvNumericRows) {
  eva::CsvWriter w({"v"});
  w.add_row(std::vector<double>{1.5});
  std::ostringstream os;
  w.write(os);
  EXPECT_NE(os.str().find("1.5"), std::string::npos);
}

TEST(Io, FmtTrimsZeros) {
  EXPECT_EQ(eva::fmt(1.5000, 4), "1.5");
  EXPECT_EQ(eva::fmt(2.0, 4), "2");
  EXPECT_EQ(eva::fmt(0.12345, 2), "0.12");
}

TEST(Io, ConsoleTablePrints) {
  eva::ConsoleTable t("Title", {"col1", "col2"});
  t.add_row({"a", "b"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("col1"), std::string::npos);
  EXPECT_NE(s.find("| a"), std::string::npos);
}

TEST(Io, AsciiCurveHandlesData) {
  const std::string s = eva::ascii_curve({1, 2, 3, 2, 1}, "curve");
  EXPECT_NE(s.find("curve"), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
}

TEST(Io, AsciiCurveEmpty) {
  const std::string s = eva::ascii_curve({}, "none");
  EXPECT_NE(s.find("no data"), std::string::npos);
}

TEST(Env, IntParsesWholeInRangeValuesElseFallsBack) {
  constexpr const char* kVar = "EVA_TEST_ENV_INT";
  ::unsetenv(kVar);
  EXPECT_EQ(eva::env_int(kVar, 7), 7);
  const auto with = [&](const char* v, int min = INT_MIN) {
    ::setenv(kVar, v, 1);
    return eva::env_int(kVar, 7, min);
  };
  EXPECT_EQ(with("42"), 42);
  EXPECT_EQ(with("-3"), -3);
  EXPECT_EQ(with("2147483647"), INT_MAX);
  EXPECT_EQ(with(""), 7);
  EXPECT_EQ(with("abc"), 7);
  EXPECT_EQ(with("12abc"), 7);         // trailing junk
  EXPECT_EQ(with("1.5"), 7);
  EXPECT_EQ(with("2147483648"), 7);    // INT_MAX + 1
  EXPECT_EQ(with("4294967297"), 7);    // would wrap to 1 in an int cast
  EXPECT_EQ(with("-2147483649"), 7);
  EXPECT_EQ(with("99999999999999999999999"), 7);
  EXPECT_EQ(with("0", 1), 7);          // below the minimum
  EXPECT_EQ(with("1", 1), 1);
  ::unsetenv(kVar);
  EXPECT_EQ(eva::parse_int(nullptr, 5), 5);
  EXPECT_EQ(eva::parse_int("8080", 5), 8080);
}

TEST(Env, DoubleParsesWholeFiniteValuesElseFallsBack) {
  constexpr const char* kVar = "EVA_TEST_ENV_DOUBLE";
  ::unsetenv(kVar);
  EXPECT_EQ(eva::env_double(kVar, 2.5), 2.5);
  const auto with = [&](const char* v, double min = -1e300) {
    ::setenv(kVar, v, 1);
    return eva::env_double(kVar, 2.5, min);
  };
  EXPECT_EQ(with("0.125"), 0.125);
  EXPECT_EQ(with("-4"), -4.0);
  EXPECT_EQ(with("1e10"), 1e10);
  EXPECT_EQ(with(""), 2.5);
  EXPECT_EQ(with("garbage"), 2.5);
  EXPECT_EQ(with("3ms"), 2.5);         // trailing junk
  EXPECT_EQ(with("1e400"), 2.5);       // overflows a double
  EXPECT_EQ(with("inf"), 2.5);
  EXPECT_EQ(with("nan"), 2.5);
  EXPECT_EQ(with("-0.5", 0.0), 2.5);   // below the minimum
  EXPECT_EQ(with("0", 0.0), 0.0);
  ::unsetenv(kVar);
  EXPECT_EQ(eva::parse_double(nullptr, 1.0), 1.0);
}

}  // namespace
