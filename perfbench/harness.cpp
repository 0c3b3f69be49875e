// eva_perfbench: the in-process half of the EVA benchmark
// (perfbench/README.md). perfbench/run.py drives it; it calls only the
// library's public functions and prints one JSON object on stdout holding
// raw samples, counts and output checks. All percentiles are computed by
// run.py, so the benchmark has one percentile rule.
//
//   eva_perfbench sizing    --seed S --rounds R --reference F
//                           [--setups K] [--trace F]
//   eva_perfbench pretrain  --seed S --steps N [--setups K] [--trace F]
//   eva_perfbench decode    --seeds-file F [--trace F]
//   eva_perfbench reference   (prints sizing_reference.txt)
//
// Without --trace a command runs its workload once, untraced, and reports
// what the end-to-end metrics need. With --trace, sizing and pretrain
// record spans around every other operation (topology or step) of the same
// run, so traced and untraced operations share one time window, and then
// run the per-layer probes; decode traces every call. Spans are kept in
// memory and written to F as a Chrome trace when the command ends.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/canon.hpp"
#include "core/eva.hpp"
#include "nn/lm_trainer.hpp"
#include "nn/sampler.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "opt/ga.hpp"
#include "spice/engine.hpp"
#include "spice/fom.hpp"
#include "tensor/gemm.hpp"
#include "tensor/optim.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace eva;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and one id per topology / step / request.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Opens a span and returns its index (-1 when tracing is off).
  int open(const char* name, std::int64_t id, int parent) {
    if (!on_) return -1;
    spans_.push_back({name, id, parent, now_us(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int idx) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_us = now_us();
  }

  /// Chrome trace (complete "X" events), one lane per workload.
  void write(const std::string& path, const std::string& lane) const {
    std::ofstream f(path);
    f << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string ev = i ? ",\n{" : "\n{";
      ev += "\"name\": ";
      obs::json_string_into(ev, s.name);
      ev += ", \"ph\": \"X\", \"pid\": ";
      obs::json_string_into(ev, lane);
      ev += ", \"tid\": 1, \"ts\": ";
      obs::json_number_into(ev, s.start_us);
      ev += ", \"dur\": ";
      obs::json_number_into(ev, s.end_us - s.start_us);
      ev += ", \"args\": {\"id\": " + std::to_string(s.id) +
            ", \"span\": " + std::to_string(i) +
            ", \"parent\": " + std::to_string(s.parent) + "}}";
      f << ev;
    }
    f << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::int64_t id = 0;
    int parent = -1;
    double start_us = 0.0, end_us = 0.0;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span over one harness call.
class Scoped {
 public:
  Scoped(Tracer& tr, const char* name, std::int64_t id, int parent = -1)
      : tr_(tr), idx_(tr.open(name, id, parent)) {}
  ~Scoped() { tr_.close(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int index() const { return idx_; }

 private:
  Tracer& tr_;
  int idx_;
};

// ---------------------------------------------------------------------------
// Result document: named numbers, named sample lists, and the checks.

class Report {
 public:
  void value(const std::string& k, double v) { values_[k] = v; }
  void samples(const std::string& k, std::vector<double> v) {
    samples_[k] = std::move(v);
  }
  void fail(const std::string& why) {
    correct_ = false;
    if (problems_.size() < 8) problems_.push_back(why);
  }
  void count(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void digest(std::uint64_t d) { digest_ = d; }

  [[nodiscard]] std::string json() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest_));
    out += ", \"digest\": \"" + std::string(hex) + "\", \"problems\": [";
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      if (i) out += ", ";
      obs::json_string_into(out, problems_[i]);
    }
    out += "], \"values\": {";
    bool first = true;
    for (const auto& [k, v] : values_) {
      out += first ? "" : ", ";
      first = false;
      obs::json_string_into(out, k);
      out += ": ";
      number_into(out, v);
    }
    out += "}, \"samples\": {";
    first = true;
    for (const auto& [k, v] : samples_) {
      out += first ? "" : ", ";
      first = false;
      obs::json_string_into(out, k);
      out += ": [";
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out += ", ";
        number_into(out, v[i]);
      }
      out += "]";
    }
    out += "}}";
    return out;
  }

 private:
  // Full precision: figures are compared across runs.
  static void number_into(std::string& out, double v) {
    if (!std::isfinite(v)) {
      out += "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
  }

  bool correct_ = true;
  std::int64_t attempted_ = 0, failed_ = 0;
  std::uint64_t digest_ = 0;
  std::vector<std::string> problems_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
};

/// FNV-1a over raw bytes: the run's output digest.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    add_bytes(reinterpret_cast<const unsigned char*>(&v), sizeof(T));
  }
  void add_text(const std::string& s) {
    add_bytes(reinterpret_cast<const unsigned char*>(s.data()), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void add_bytes(const unsigned char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

/// Minor page faults of this process so far.
double minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_minflt);
}

double proc_threads() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stod(line.substr(8));
  }
  return 0.0;
}

/// Host CPU jiffies (idle, total) from /proc/stat's aggregate line.
std::pair<double, double> cpu_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double v = 0.0, idle = 0.0, total = 0.0;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    total += v;
    if (i == 3 || i == 4) idle += v;  // idle + iowait
  }
  return {idle, total};
}

// ---------------------------------------------------------------------------
// Host-speed reference (README.md, "Host-speed adjustment"). The shared VM
// this benchmark was tuned on runs at speeds up to 2x apart, for seconds
// to minutes at a time, and neither steal time, CPU time nor its reported
// clock rate shows it. So the harness times a fixed kernel of its own,
// never the program's code, before the first and after every timed
// operation, and run.py scales each operation's time by the kernel's
// times around it. The kernel does the arithmetic of its workload.

enum class Kernel {
  kSizing,    // dense LU solves, real and complex, as in the MNA solver
  kPretrain,  // the same plus float matrix products, as in training
};

// Read once per kernel run (so the compiler cannot fold the kernel's work
// at build time) and written with its result (so it cannot drop it).
volatile double g_kernel_scale = 1.0;
volatile double g_kernel_sink = 0.0;

/// Dense LU with partial pivoting, solving `a` x = `b` in place.
template <typename T>
void lu_solve_copy(std::vector<T> a, std::vector<T>& b) {
  const std::size_t n = b.size();
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t p = c;
    for (std::size_t r = c + 1; r < n; ++r) {
      if (std::abs(a[r * n + c]) > std::abs(a[p * n + c])) p = r;
    }
    if (p != c) {
      for (std::size_t k = 0; k < n; ++k) std::swap(a[c * n + k], a[p * n + k]);
      std::swap(b[c], b[p]);
    }
    for (std::size_t r = c + 1; r < n; ++r) {
      const T f = a[r * n + c] / a[c * n + c];
      for (std::size_t k = c; k < n; ++k) a[r * n + k] -= f * a[c * n + k];
      b[r] -= f * b[c];
    }
  }
  for (std::size_t r = n; r-- > 0;) {
    T s = b[r];
    for (std::size_t k = r + 1; k < n; ++k) s -= a[r * n + k] * b[k];
    b[r] = s / a[r * n + r];
  }
}

/// `reps` solves of a fixed 14x14 system, each once real and once complex.
double lu_part(int reps) {
  constexpr std::size_t n = 14;
  const double scale = g_kernel_scale;
  std::vector<double> a(n * n);
  std::vector<std::complex<double>> z(n * n);
  double acc = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < n * n; ++i) {
      a[i] = scale * std::sin(0.37 * static_cast<double>(i) + rep) *
             (i % (n + 1) == 0 ? 10.0 : 1.0);
      z[i] = {a[i], 0.1 * std::cos(static_cast<double>(i) + rep)};
    }
    std::vector<double> b(n, 1.0);
    lu_solve_copy(a, b);
    std::vector<std::complex<double>> c(n, {1.0, 0.0});
    lu_solve_copy(z, c);
    acc += b[3] + std::abs(c[2]);
    acc += std::exp(-acc * 1e-9) + std::log1p(std::abs(b[1]));
  }
  return acc;
}

/// `reps` 64x64 float matrix products, in plain loops the compiler
/// vectorizes.
double gemm_part(int reps) {
  constexpr std::size_t m = 64, k = 64, n = 64;
  const auto scale = static_cast<float>(g_kernel_scale);
  static std::vector<float> x(m * k), w(k * n), y(m * n);
  std::fill(x.begin(), x.end(), 0.5f * scale);
  std::fill(w.begin(), w.end(), 0.25f * scale);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < m; ++i) {
      float* yi = &y[i * n];
      std::fill(yi, yi + n, 0.0f);
      for (std::size_t p = 0; p < k; ++p) {
        const float xv = x[i * k + p];
        const float* wp = &w[p * n];
        for (std::size_t j = 0; j < n; ++j) yi[j] += xv * wp[j];
      }
    }
  }
  double acc = 0.0;
  for (std::size_t j = 0; j < n; ++j) acc += std::exp(y[j] * 1e-3f);
  return acc;
}

/// Runs the reference kernel once and returns its wall time in ms. Both
/// kinds take about 1 ms on the VM the benchmark was tuned on; pretrain's
/// splits that time about evenly between its two parts.
double reference_ms(Kernel kernel) {
  const auto t0 = Clock::now();
  g_kernel_sink = kernel == Kernel::kSizing ? lu_part(60)
                                            : lu_part(30) + gemm_part(15);
  return ms_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Set-up shared by sizing and pretrain: Eva::prepare on the paper-scale
// corpus (11 types x 300 topologies, fixed dataset seed), timed `setups`
// times; the last engine is kept.

constexpr int kPerType = 300;
constexpr std::uint64_t kModelSeed = 7;  // EvaConfig's default seed

core::EvaConfig paper_corpus_config() {
  core::EvaConfig cfg;
  cfg.dataset.per_type = kPerType;
  return cfg;
}

std::unique_ptr<core::Eva> timed_prepare(int setups, Kernel kernel,
                                         Report& rep, Tracer& tr) {
  std::vector<double> setup_s;
  std::vector<double> ref_ms{reference_ms(kernel)};
  std::unique_ptr<core::Eva> eva;
  for (int i = 0; i < setups; ++i) {
    eva.reset();
    const auto t0 = Clock::now();
    {
      Scoped s(tr, "core.Eva.prepare", i);
      eva = std::make_unique<core::Eva>(paper_corpus_config());
      eva->prepare();
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    ref_ms.push_back(reference_ms(kernel));
  }
  rep.samples("setup_s", setup_s);
  rep.samples("setup_ref_ms", ref_ms);
  return eva;
}

/// data::Dataset::build timed on its own, with the generator's
/// accept counters.
void probe_dataset_build(Report& rep, Tracer& tr) {
  auto& acc = obs::counter("data.gen.accepted");
  auto& att = obs::counter("data.gen.attempts");
  const auto a0 = acc.value(), t0n = att.value();
  const auto t0 = Clock::now();
  {
    Scoped s(tr, "data.Dataset.build", 0);
    const auto ds = data::Dataset::build(paper_corpus_config().dataset);
    (void)ds;
  }
  rep.value("data.build_s", ms_between(t0, Clock::now()) / 1e3);
  const double attempts = static_cast<double>(att.value() - t0n);
  rep.value("data.accept_frac",
            attempts > 0 ? static_cast<double>(acc.value() - a0) / attempts
                         : 0.0);
}

// ---------------------------------------------------------------------------
// sizing: opt::size_topology with the default GaConfig over an equal number
// of dataset topologies of each of the 11 types, interleaved by type: one
// round sizes one topology of every type.

std::vector<const data::TopologyEntry*> sizing_sample(
    const data::Dataset& ds, std::uint64_t seed) {
  std::vector<std::vector<const data::TopologyEntry*>> per_type;
  std::size_t rounds = SIZE_MAX;
  for (int t = 0; t < circuit::kNumCircuitTypes; ++t) {
    auto list = ds.of_type(static_cast<circuit::CircuitType>(t));
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(t));
    for (std::size_t i = list.size(); i > 1; --i) {
      std::swap(list[i - 1], list[rng.index(i)]);
    }
    rounds = std::min(rounds, list.size());
    per_type.push_back(std::move(list));
  }
  std::vector<const data::TopologyEntry*> order;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& list : per_type) order.push_back(list[r]);
  }
  return order;
}

struct SizingRun {
  std::vector<double> call_ms;
  std::vector<opt::SizingResult> results;
};

/// Sizes one topology and appends its result and call time to `run`.
void size_one(const data::TopologyEntry& e, std::size_t i, Tracer& tr,
              SizingRun& run) {
  const auto t0 = Clock::now();
  {
    Scoped s(tr, "opt.size_topology", static_cast<std::int64_t>(i));
    run.results.push_back(opt::size_topology(e.netlist, e.type, {}));
  }
  run.call_ms.push_back(ms_between(t0, Clock::now()));
}

/// Each result's FoM must equal a fresh spice::evaluate at the returned
/// sizing; also folds the outputs into the run digest.
void check_sizing(const std::vector<const data::TopologyEntry*>& order,
                  const SizingRun& run, Report& rep) {
  Digest d;
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const auto& e = *order[i];
    const auto& r = run.results[i];
    const auto fresh = spice::evaluate(e.netlist, r.sizing, e.type);
    if (fresh.ok != r.perf.ok || fresh.fom != r.perf.fom) {
      rep.fail("sizing: FoM of topology " + std::to_string(i) +
               " differs from a fresh evaluate");
    }
    if (!r.ok || !std::isfinite(r.perf.fom) || r.perf.fom < 0.0) ++failed;
    d.add(e.hash);
    d.add(r.perf.fom);
    for (double v : r.sizing.value) d.add(v);
  }
  rep.count(static_cast<std::int64_t>(run.results.size()), failed);
  rep.digest(d.value());
}

/// The reference subset: the first round of seed 1's sample, one topology
/// of each type. Its sizing results are committed in
/// sizing_reference.txt, one line per topology: type, topology hash, ok,
/// then the performance at the GA-best sizing. A change that makes sizing
/// cheaper by sizing worse, or by evaluating a different FoM, fails every
/// run.
std::vector<const data::TopologyEntry*> reference_subset(
    const data::Dataset& ds) {
  auto order = sizing_sample(ds, 1);
  order.resize(static_cast<std::size_t>(circuit::kNumCircuitTypes));
  return order;
}

constexpr std::size_t kRefFigures = 7;

std::array<double, kRefFigures> reference_figures(
    const spice::Performance& p) {
  return {p.fom,     p.gain,  p.bw_hz,     p.ugbw_hz,
          p.power_w, p.ratio, p.efficiency};
}

std::string reference_key(const data::TopologyEntry& e,
                          const opt::SizingResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %016llx %d",
                std::string(circuit::type_name(e.type)).c_str(),
                static_cast<unsigned long long>(e.hash), r.perf.ok ? 1 : 0);
  return buf;
}

std::string reference_line(const data::TopologyEntry& e,
                           const opt::SizingResult& r) {
  std::string line = reference_key(e, r);
  for (double v : reference_figures(r.perf)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.17g", v);
    line += buf;
  }
  return line;
}

void check_reference(const data::Dataset& ds, const std::string& path,
                     Report& rep) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read sizing reference " + path);
  for (const auto* e : reference_subset(ds)) {
    const auto r = opt::size_topology(e->netlist, e->type, {});
    std::string type, hash, ok;
    std::array<double, kRefFigures> want{};
    f >> type >> hash >> ok;
    for (double& v : want) f >> v;
    if (!f) {
      rep.fail("sizing: reference file ends early");
      return;
    }
    const auto got = reference_figures(r.perf);
    bool same = reference_key(*e, r) == type + " " + hash + " " + ok;
    for (std::size_t k = 0; k < kRefFigures; ++k) {
      same = same && std::abs(got[k] - want[k]) <= 1e-9 * std::abs(want[k]);
    }
    if (!same) {
      rep.fail("sizing: reference topology " + type + " " + hash +
               " now gives " + reference_line(*e, r));
    }
  }
}

/// Split of spice::evaluate into Newton DC, AC sweep and the FoM
/// remainder, at default and GA-best sizings, timed from outside.
void probe_spice(const std::vector<const data::TopologyEntry*>& order,
                 const SizingRun& run, std::size_t items, Report& rep,
                 Tracer& tr) {
  std::vector<double> eval_us, dc_us, ac_us, fom_us;
  const spice::SimOptions base;
  const auto us_since = [](Clock::time_point t0) {
    return ms_between(t0, Clock::now()) * 1e3;
  };
  for (std::size_t i = 0; i < std::min(items, run.results.size()); ++i) {
    const auto& e = *order[i];
    const spice::Sizing sizings[2] = {spice::default_sizing(e.netlist),
                                      run.results[i].sizing};
    for (const auto& sz : sizings) {
      Scoped probe(tr, "spice.probe", static_cast<std::int64_t>(i));
      std::vector<double> ev, dc, ac;
      for (int rep_i = 0; rep_i < 3; ++rep_i) {
        auto t0 = Clock::now();
        {
          Scoped s(tr, "spice.evaluate", static_cast<std::int64_t>(i),
                   probe.index());
          (void)spice::evaluate(e.netlist, sz, e.type, base);
        }
        ev.push_back(us_since(t0));
        // evaluate's own DC solves: two quasi-static phases for
        // converters, one small-signal operating point otherwise.
        const bool converter = e.type == circuit::CircuitType::PowerConverter;
        double dc_total = 0.0, ac_total = 0.0;
        bool converged = true;
        for (int phase = 0; phase < (converter ? 2 : 1) && converged;
             ++phase) {
          spice::SimOptions o = base;
          o.converter_mode = converter;
          o.phase_a = phase == 0;
          t0 = Clock::now();
          Scoped s(tr, "spice.solve_dc", static_cast<std::int64_t>(i),
                   probe.index());
          spice::Simulator sim(e.netlist, sz, o);
          converged = sim.solve_dc();
          dc_total += us_since(t0);
          if (!converter && converged) {
            t0 = Clock::now();
            Scoped s2(tr, "spice.ac_sweep", static_cast<std::int64_t>(i),
                      probe.index());
            (void)sim.ac_sweep(1.0, 1e10, std::max(base.ac_points, 2));
            ac_total += us_since(t0);
          }
        }
        dc.push_back(dc_total);
        ac.push_back(ac_total);
      }
      eval_us.push_back(median_of(ev));
      dc_us.push_back(median_of(dc));
      ac_us.push_back(median_of(ac));
      fom_us.push_back(median_of(ev) - median_of(dc) - median_of(ac));
    }
  }
  rep.samples("spice.evaluate_us", eval_us);
  rep.samples("spice.solve_dc_us", dc_us);
  rep.samples("spice.ac_sweep_us", ac_us);
  rep.samples("spice.fom_us", fom_us);
}

/// GA bookkeeping share: the same search as size_topology, re-run
/// through the public ga_optimize with the fitness timed from outside.
void probe_ga(const std::vector<const data::TopologyEntry*>& order,
              std::size_t items, Report& rep, Tracer& tr) {
  double total_ms = 0.0, eval_ms = 0.0, evaluations = 0.0;
  const std::size_t n = std::min(items, order.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = *order[i];
    const auto t0 = Clock::now();
    Scoped s(tr, "opt.ga_optimize", static_cast<std::int64_t>(i));
    const auto fitness = [&](const std::vector<double>& g) {
      const auto sz = spice::sizing_from_unit(e.netlist, g);
      const auto f0 = Clock::now();
      const auto perf = spice::evaluate(e.netlist, sz, e.type);
      eval_ms += ms_between(f0, Clock::now());
      evaluations += 1.0;
      return perf.ok ? perf.fom : -1.0;
    };
    const auto res = opt::ga_optimize(e.netlist.num_devices(), fitness, {});
    (void)fitness(res.best);  // size_topology's final evaluate
    total_ms += ms_between(t0, Clock::now());
  }
  rep.value("opt.ga.evaluations_per_topology",
            n > 0 ? evaluations / static_cast<double>(n) : 0.0);
  rep.value("opt.ga.overhead_frac",
            total_ms > 0 ? (total_ms - eval_ms) / total_ms : 0.0);
}

/// Newton DC counters: program totals, or their change over a span of calls.
struct SpiceCounters {
  double solves = 0, nonconverged = 0, deadline = 0, iters = 0, iters_n = 0;

  static SpiceCounters now() {
    const auto h = obs::histogram("spice.nr_iters").snapshot();
    return {static_cast<double>(obs::counter("spice.dc_solves").value()),
            static_cast<double>(obs::counter("spice.dc_nonconverged").value()),
            static_cast<double>(
                obs::counter("spice.dc_deadline_exceeded").value()),
            h.mean * static_cast<double>(h.count),
            static_cast<double>(h.count)};
  }
  [[nodiscard]] SpiceCounters since(const SpiceCounters& a) const {
    return {solves - a.solves, nonconverged - a.nonconverged,
            deadline - a.deadline, iters - a.iters, iters_n - a.iters_n};
  }
};

int cmd_sizing(std::uint64_t seed, int rounds, int setups,
               const std::string& reference_path,
               const std::string& trace_path) {
  Report rep;
  Tracer off(false);
  Tracer tr(!trace_path.empty());
  set_num_threads(1);
  auto eva = timed_prepare(setups, Kernel::kSizing, rep, tr);
  const auto order = sizing_sample(eva->dataset(), seed);

  const std::size_t count =
      static_cast<std::size_t>(circuit::kNumCircuitTypes) *
      static_cast<std::size_t>(rounds);
  if (order.size() < count) {
    throw std::runtime_error("corpus too small for " + std::to_string(rounds) +
                             " rounds");
  }
  // Traced, the even-indexed topologies get spans and the odd ones do not.
  // A round interleaves the 11 types, so each type falls on both parities
  // across rounds. The program's counters cover every call.
  SizingRun run;
  std::vector<double> ref_ms{reference_ms(Kernel::kSizing)};
  const auto c0 = SpiceCounters::now();
  for (std::size_t i = 0; i < count; ++i) {
    size_one(*order[i], i, i % 2 == 0 ? tr : off, run);
    ref_ms.push_back(reference_ms(Kernel::kSizing));
  }
  const SpiceCounters dc = SpiceCounters::now().since(c0);
  rep.samples("call_ms", run.call_ms);
  rep.samples("ref_ms", ref_ms);
  rep.value("harness_threads", proc_threads());
  check_sizing(order, run, rep);
  check_reference(eva->dataset(), reference_path, rep);
  if (tr.on()) {
    rep.value("spice.dc_solves", dc.solves);
    rep.value("spice.dc_nonconverged_frac",
              dc.solves > 0 ? dc.nonconverged / dc.solves : 0.0);
    rep.value("spice.dc_deadline_exceeded", dc.deadline);
    rep.value("spice.nr_iters_mean",
              dc.iters_n > 0 ? dc.iters / dc.iters_n : 0.0);
    probe_ga(order, circuit::kNumCircuitTypes, rep, tr);
    probe_spice(order, run, 2 * circuit::kNumCircuitTypes, rep, tr);
    probe_dataset_build(rep, tr);
    tr.write(trace_path, "sizing");
  }
  rep.value("peak_rss_kb", peak_rss_kb());
  std::printf("%s\n", rep.json().c_str());
  return 0;
}

/// Prints the reference subset's sizing results in the format of
/// sizing_reference.txt.
int cmd_reference() {
  set_num_threads(1);
  core::Eva eva(paper_corpus_config());
  eva.prepare();
  for (const auto* e : reference_subset(eva.dataset())) {
    const auto r = opt::size_topology(e->netlist, e->type, {});
    std::printf("%s\n", reference_line(*e, r).c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// pretrain: nn::pretrain with the bench config for a fixed step count.

struct PretrainRun {
  std::vector<double> step_ms, step_tokens, losses;
  std::vector<double> ref_ms;  // reference kernel before and after each step
  double gemm_flops = 0.0;
};

PretrainRun run_pretrain(const nn::ModelConfig& mcfg,
                         const nn::SequenceCorpus& corpus, std::uint64_t seed,
                         int steps, Tracer& tr) {
  Rng init(kModelSeed);
  nn::TransformerLM model(mcfg, init);
  nn::PretrainConfig cfg;
  cfg.steps = steps;
  cfg.seed = seed;
  cfg.log_every = 1;  // on_step fires every step
  PretrainRun run;
  auto& tokens = obs::counter("pretrain.tokens");
  auto& flops = obs::counter("tensor.gemm_flops");
  std::int64_t last_tokens = tokens.value();
  const std::int64_t flops0 = flops.value();
  run.ref_ms.push_back(reference_ms(Kernel::kPretrain));
  auto last = Clock::now();
  // Spans cover the even steps only, so one run compares traced steps
  // with untraced ones over the same time window. The reference kernel
  // runs between steps, outside both the step times and the spans.
  int step_span = tr.open("nn.pretrain.step", 0, -1);
  const auto on_step = [&](int step, double loss) {
    const auto now = Clock::now();
    tr.close(step_span);
    run.step_ms.push_back(ms_between(last, now));
    run.step_tokens.push_back(static_cast<double>(tokens.value() - last_tokens));
    run.losses.push_back(loss);
    last_tokens = tokens.value();
    run.ref_ms.push_back(reference_ms(Kernel::kPretrain));
    step_span = (step + 1) % 2 == 0
                    ? tr.open("nn.pretrain.step", step + 1, -1)
                    : -1;
    last = Clock::now();
  };
  {
    Scoped s(tr, "nn.pretrain", static_cast<std::int64_t>(seed));
    (void)nn::pretrain(model, corpus, cfg, on_step);
  }
  tr.close(step_span);
  run.gemm_flops = static_cast<double>(flops.value() - flops0);
  return run;
}

void check_pretrain(const PretrainRun& run, int steps, Report& rep) {
  Digest d;
  for (double l : run.losses) {
    if (!std::isfinite(l)) rep.fail("pretrain: non-finite loss");
    d.add(l);
  }
  if (static_cast<int>(run.losses.size()) != steps) {
    rep.fail("pretrain: " + std::to_string(run.losses.size()) + " of " +
             std::to_string(steps) + " steps reported");
  } else if (!(run.losses.back() < run.losses.front())) {
    rep.fail("pretrain: last loss is not below the first");
  }
  rep.count(steps, steps - static_cast<std::int64_t>(run.losses.size()));
  rep.digest(d.value());
}

/// One training step split into forward + loss, backward and the
/// optimizer, on nn::make_batch batches from the corpus.
void probe_training_step(const nn::ModelConfig& mcfg,
                         const nn::SequenceCorpus& corpus, std::uint64_t seed,
                         int steps, Report& rep, Tracer& tr) {
  Rng init(kModelSeed);
  nn::TransformerLM model(mcfg, init);
  auto params = model.parameters();
  tensor::AdamW opt(params, {.lr = 3e-3f, .weight_decay = 0.01f});
  Rng rng(seed);
  std::vector<double> fwd, bwd, optim, rows;
  for (int s = 0; s < steps; ++s) {
    std::vector<const std::vector<int>*> ptrs;
    for (int i = 0; i < 8; ++i) {
      ptrs.push_back(&corpus.train[rng.index(corpus.train.size())]);
    }
    const auto b = nn::make_batch(ptrs, mcfg.max_seq);
    rows.push_back(static_cast<double>(b.batch) * b.seq_len);
    Scoped step(tr, "tensor.train_step", s);
    opt.zero_grad();
    auto t0 = Clock::now();
    tensor::Tensor loss;
    {
      Scoped sp(tr, "tensor.forward", s, step.index());
      const auto logits = model.forward(b.inputs, b.batch, b.seq_len, true);
      loss = tensor::cross_entropy(logits, b.targets, -1);
    }
    fwd.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    {
      Scoped sp(tr, "tensor.backward", s, step.index());
      loss.backward();
    }
    bwd.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    {
      Scoped sp(tr, "tensor.optim", s, step.index());
      (void)tensor::clip_grad_norm(params, 1.0);
      opt.step();
    }
    optim.push_back(ms_between(t0, Clock::now()));
  }
  rep.samples("tensor.forward_ms", fwd);
  rep.samples("tensor.backward_ms", bwd);
  rep.samples("tensor.optim_ms", optim);

  // GEMMs at the MLP's training shapes: rows = the median batch's B*T,
  // d_model -> d_ff forward (nn), input gradient (nt), weight gradient (tn).
  const auto M = static_cast<std::size_t>(median_of(rows));
  const auto C = static_cast<std::size_t>(mcfg.d_model);
  const auto F = static_cast<std::size_t>(mcfg.d_ff);
  std::vector<float> x(M * C, 0.5f), w(C * F, 0.25f), y(M * F), dx(M * C),
      dw(C * F);
  const double flop = 2.0 * static_cast<double>(M * C * F);
  const auto gflops = [&](const char* name,
                          const std::function<void()>& call) {
    std::vector<double> rates;
    for (int r = 0; r < 30; ++r) {
      const auto t0 = Clock::now();
      {
        Scoped s(tr, name, r);
        call();
      }
      rates.push_back(flop / (ms_between(t0, Clock::now()) * 1e6));
    }
    rep.samples(std::string(name) + "_gflops", rates);
  };
  gflops("tensor.gemm_nn", [&] { tensor::gemm_nn(x.data(), w.data(), y.data(), M, C, F); });
  gflops("tensor.gemm_nt", [&] { tensor::gemm_nt(y.data(), w.data(), dx.data(), M, F, C); });
  gflops("tensor.gemm_tn", [&] { tensor::gemm_tn(x.data(), y.data(), dw.data(), M, C, F); });
}

int cmd_pretrain(std::uint64_t seed, int steps, int setups,
                 const std::string& trace_path) {
  Report rep;
  Tracer off(false);
  Tracer tr(!trace_path.empty());
  set_num_threads(1);
  auto eva = timed_prepare(setups, Kernel::kPretrain, rep, tr);
  const nn::ModelConfig mcfg = eva->model().config();
  const auto& corpus = eva->corpus();

  if (!tr.on()) {
    const PretrainRun run = run_pretrain(mcfg, corpus, seed, steps, off);
    check_pretrain(run, steps, rep);
    rep.samples("step_ms", run.step_ms);
    rep.samples("step_tokens", run.step_tokens);
    rep.samples("ref_ms", run.ref_ms);
    rep.value("harness_threads", proc_threads());
  } else {
    const double faults0 = minor_faults();
    const PretrainRun run = run_pretrain(mcfg, corpus, seed, steps, tr);
    rep.value("tensor.minor_faults_per_step",
              (minor_faults() - faults0) / static_cast<double>(steps));
    check_pretrain(run, steps, rep);
    rep.samples("step_ms", run.step_ms);
    rep.samples("step_tokens", run.step_tokens);
    rep.value("harness_threads", proc_threads());
    rep.value("tensor.gemm_flops_per_step",
              run.gemm_flops / static_cast<double>(steps));
    probe_training_step(mcfg, corpus, seed, 20, rep, tr);

    // Pool wake-up sensitivity: the first steps again at the hardware
    // default width, against the same steps of the width-1 run.
    const int pool_steps = std::min(steps, 30);
    set_num_threads(0);
    const auto [idle0, total0] = cpu_jiffies();
    const PretrainRun wide = run_pretrain(mcfg, corpus, seed, pool_steps, tr);
    const auto [idle1, total1] = cpu_jiffies();
    set_num_threads(1);
    double narrow_ms = 0.0, wide_ms = 0.0;
    for (int i = 0; i < pool_steps; ++i) {
      narrow_ms += run.step_ms[static_cast<std::size_t>(i)];
      wide_ms += wide.step_ms[static_cast<std::size_t>(i)];
    }
    rep.value("util.pool.speedup", wide_ms > 0 ? narrow_ms / wide_ms : 0.0);
    rep.value("util.pool.idle_frac",
              total1 > total0 ? (idle1 - idle0) / (total1 - total0) : 0.0);
    probe_dataset_build(rep, tr);
    tr.write(trace_path, "pretrain");
  }
  rep.value("peak_rss_kb", peak_rss_kb());
  std::printf("%s\n", rep.json().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// decode: replay of the fleet's requests through a BatchedDecoder built
// exactly like a replica's (bench-scale model, fresh weights from seed
// 1234, width 8, default sampling), plus the decode step split.

std::vector<std::uint64_t> read_seeds(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::uint64_t> seeds;
  std::uint64_t s = 0;
  while (f >> s) seeds.push_back(s);
  if (seeds.empty()) throw std::runtime_error("no seeds in " + path);
  return seeds;
}

int cmd_decode(const std::string& seeds_path, const std::string& trace_path) {
  Report rep;
  Tracer tr(!trace_path.empty());
  set_num_threads(1);
  const nn::Tokenizer tok({4, 4, 2, 2, 2, 2, 2, 2});
  Rng init(1234);
  const nn::ModelConfig mcfg = nn::ModelConfig::bench_scale(tok.vocab_size());
  const nn::TransformerLM model(mcfg, init);
  constexpr int kWidth = 8, kItems = 8;
  nn::BatchedDecoder decoder(model, tok, kWidth);

  const auto seeds = read_seeds(seeds_path);
  std::vector<std::vector<int>> seqs;
  double decode_ms = 0.0, steps = 0.0, occupancy = 0.0, tokens = 0.0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    Rng rng(seeds[i]);
    Scoped s(tr, "nn.BatchedDecoder.decode", static_cast<std::int64_t>(i));
    const auto out = decoder.decode(rng, kItems);
    const auto& st = decoder.last_decode_stats();
    decode_ms += st.duration_ms;
    steps += static_cast<double>(st.steps);
    occupancy += st.occupancy * static_cast<double>(st.steps);
    tokens += static_cast<double>(st.tokens);
    for (const auto& r : out) seqs.push_back(r.ids);
  }
  rep.value("nn.decode.occupancy", steps > 0 ? occupancy / steps : 0.0);
  rep.value("replay.tokens", tokens);
  rep.value("replay.steps", steps);

  // Forward-only steps at 8 and 1 rows over the replay's own tokens and
  // positions (the median replayed length), at most kMaxSteps timed steps
  // per width.
  constexpr int kMaxSteps = 3200;
  std::vector<double> lens;
  for (const auto& s : seqs) lens.push_back(static_cast<double>(s.size()));
  const int len = std::max(2, static_cast<int>(median_of(lens)));
  const auto forward_ms = [&](int rows) {
    auto cache = model.make_batched_cache(rows);
    std::vector<int> slots(static_cast<std::size_t>(rows));
    std::vector<int> toks(static_cast<std::size_t>(rows));
    std::vector<float> logits;
    double total = 0.0;
    int n = 0;
    for (std::size_t base = 0; base + rows <= seqs.size() && n < kMaxSteps;
         base += static_cast<std::size_t>(rows)) {
      for (int r = 0; r < rows; ++r) {
        slots[static_cast<std::size_t>(r)] = r;
        cache.reset_slot(r);
      }
      Scoped s(tr, rows == 1 ? "nn.infer_step_batched.w1"
                             : "nn.infer_step_batched.w8",
               static_cast<std::int64_t>(base));
      for (int t = 0; t < len; ++t) {
        for (int r = 0; r < rows; ++r) {
          const auto& q = seqs[base + static_cast<std::size_t>(r)];
          toks[static_cast<std::size_t>(r)] =
              q[static_cast<std::size_t>(t) % q.size()];
        }
        const auto t0 = Clock::now();
        model.infer_step_batched(cache, slots, toks, logits);
        total += ms_between(t0, Clock::now());
        ++n;
      }
    }
    return n > 0 ? total / n : 0.0;
  };
  const double w8 = forward_ms(8), w1 = forward_ms(1);
  rep.value("nn.decode.forward_ms_per_step_w8", w8);
  rep.value("nn.decode.forward_ms_per_step_w1", w1);
  // Mask + sample + refill: decode time minus the forward time at the
  // replay's mean filled rows (linear between the 1- and 8-row steps).
  const double mean_rows =
      std::clamp(steps > 0 ? occupancy / steps * kWidth : 1.0, 1.0,
                 static_cast<double>(kWidth));
  const double fwd_at_rows = w1 + (w8 - w1) * (mean_rows - 1.0) / (kWidth - 1);
  rep.value("nn.decode.sample_ms_per_step",
            steps > 0 ? decode_ms / steps - fwd_at_rows : 0.0);

  // The digest covers the netlist text each replayed item is served with
  // (empty when it does not decode), one line per item, so run.py can
  // confirm the replay decoded what the fleet served.
  std::vector<double> decode_us, hash_us;
  std::int64_t decoded = 0;
  Digest served;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    auto t0 = Clock::now();
    Scoped s(tr, "nn.ids_to_netlist_checked", static_cast<std::int64_t>(i));
    const auto dec = nn::ids_to_netlist_checked(tok, seqs[i]);
    decode_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    if (dec.netlist) {
      ++decoded;
      t0 = Clock::now();
      {
        Scoped h(tr, "circuit.canonical_hash", static_cast<std::int64_t>(i),
                 s.index());
        (void)circuit::canonical_hash(*dec.netlist);
      }
      hash_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      served.add_text(dec.netlist->to_spice());
    }
    served.add_text("\n");
  }
  rep.digest(served.value());
  rep.samples("circuit.ids_to_netlist_us", decode_us);
  rep.samples("circuit.canonical_hash_us", hash_us);
  rep.value("replay.decoded", static_cast<double>(decoded));
  rep.count(static_cast<std::int64_t>(seeds.size()), 0);
  if (tr.on()) tr.write(trace_path, "decode-replay");
  std::printf("%s\n", rep.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: eva_perfbench sizing|pretrain|decode|reference "
                 "[options]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  const auto get = [&](const char* k, const char* fallback) {
    const auto it = opt.find(k);
    return it == opt.end() ? std::string(fallback) : it->second;
  };
  try {
    const std::uint64_t seed = std::stoull(get("--seed", "1"));
    const int setups = std::stoi(get("--setups", "3"));
    const std::string trace = get("--trace", "");
    if (cmd == "sizing") {
      return cmd_sizing(seed, std::stoi(get("--rounds", "10")), setups,
                        get("--reference", ""), trace);
    }
    if (cmd == "pretrain") {
      return cmd_pretrain(seed, std::stoi(get("--steps", "100")), setups,
                          trace);
    }
    if (cmd == "decode") return cmd_decode(get("--seeds-file", ""), trace);
    if (cmd == "reference") return cmd_reference();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eva_perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "eva_perfbench: unknown command %s\n", cmd.c_str());
  return 2;
}
