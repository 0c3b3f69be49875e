// Tests for Mini-SPICE's Newton DC solve in SIMD lanes: every lane of
// solve_dc_batch and of the real lane LU must be bit for bit the scalar
// reference in dc_reference.cpp, whatever its batch, its lane and its
// neighbours; and every converged operating point must satisfy Kirchhoff's
// current law through the reference's stamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>

#include "circuit/classify.hpp"
#include "circuit/validity.hpp"
#include "data/builder.hpp"
#include "data/generators.hpp"
#include "dc_reference.hpp"
#include "obs/metrics.hpp"
#include "spice/engine.hpp"
#include "spice/mna.hpp"
#include "spice/sizing.hpp"
#include "util/fault.hpp"

namespace {

using namespace eva::spice;
using namespace eva::circuit;
using eva::Rng;
using eva::spice::detail::lane;

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

// --- the real lane LU -------------------------------------------------------

/// A real system whose dominant entry in row i sits in column perm[i], so
/// the pivot search has to find every pivot; `sparse` zeroes about half of
/// the other entries, and half of all zeros are made -0.
struct RealSystem {
  std::size_t n = 0;
  std::vector<double> a, b;
};

RealSystem random_system(Rng& rng, std::size_t n, bool sparse,
                         const std::vector<std::size_t>& perm) {
  RealSystem s{n, std::vector<double>(n * n), std::vector<double>(n)};
  for (auto& x : s.a) {
    x = rng.uniform(-1.0, 1.0);
    if (sparse && rng.index(2) == 0) x = 0.0;
  }
  for (std::size_t r = 0; r < n; ++r) {
    s.a[r * n + perm[r]] = (rng.index(2) == 0 ? 1.0 : -1.0) *
                           (2.0 * static_cast<double>(n) + rng.uniform());
    s.b[r] = rng.index(4) == 0 ? 0.0 : rng.uniform(-1.0, 1.0);
  }
  for (auto& x : s.a) {
    if (x == 0.0 && rng.index(2) == 0) x = -0.0;
  }
  return s;
}

/// Solves every system with the scalar reference and all of them, W to a
/// call, with the lane LU: each lane's verdict, solution and U factor must
/// be the reference's, bit for bit.
template <std::size_t W>
void expect_real_lanes_match(const std::vector<RealSystem>& batch,
                             const std::string& what) {
  ASSERT_EQ(batch.size(), W);
  const std::size_t n = batch[0].n;
  RealLaneSystem<W> sys(n);
  for (std::size_t l = 0; l < W; ++l) {
    for (std::size_t i = 0; i < n * n; ++i) lane(sys.a[i], l) = batch[l].a[i];
    for (std::size_t i = 0; i < n; ++i) lane(sys.b[i], l) = batch[l].b[i];
  }
  MaskOf<W> ok = lu_solve_lanes(sys);
  for (std::size_t l = 0; l < W; ++l) {
    DenseMatrix<double> a(n);
    for (std::size_t i = 0; i < n * n; ++i) a.at(i / n, i % n) = batch[l].a[i];
    std::vector<double> b = batch[l].b;
    const bool want = reference::lu_solve(a, b);
    ASSERT_EQ(lane(ok, l) != 0, want) << what << " lane " << l;
    for (std::size_t i = 0; i < n; ++i) {
      const double got = lane(sys.b[i], l);
      EXPECT_TRUE(want ? same_bits(got, b[i]) : got == 0.0)
          << what << " lane " << l << " x[" << i << "] = " << got
          << ", scalar " << b[i];
    }
    if (!want) continue;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = r; c < n; ++c) {
        EXPECT_TRUE(same_bits(lane(sys.a[r * n + c], l), a.at(r, c)))
            << what << " lane " << l << " U(" << r << ", " << c << ")";
      }
    }
  }
}

std::vector<std::size_t> shuffled(Rng& rng, std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  rng.shuffle(perm);
  return perm;
}

TEST(DcLu, LaneSolveMatchesScalarBitwise) {
  Rng rng(26);
  for (std::size_t n = 1; n <= 16; ++n) {
    const std::string tag = " n=" + std::to_string(n);
    for (int trial = 0; trial < 8; ++trial) {
      // Dense and sparse, with the lanes' rows shuffled alike or apart.
      const bool sparse = trial % 4 >= 2;
      const auto shared = shuffled(rng, n);
      std::vector<RealSystem> batch;
      for (std::size_t l = 0; l < kLanes; ++l) {
        batch.push_back(random_system(
            rng, n, sparse, trial % 2 == 1 ? shuffled(rng, n) : shared));
      }
      const std::string what = "trial " + std::to_string(trial) + tag;
      expect_real_lanes_match<kLanes>(batch, what);
      for (std::size_t l = 0; l < kLanes; ++l) {
        expect_real_lanes_match<1>({batch[l]}, what + " alone");
      }
    }
    // One singular lane (a zero column) among solvable ones, in each lane.
    for (std::size_t bad = 0; bad < kLanes; ++bad) {
      std::vector<RealSystem> batch;
      for (std::size_t l = 0; l < kLanes; ++l) {
        const auto perm = shuffled(rng, n);
        auto sys = random_system(rng, n, l % 2 == 1, perm);
        if (l == bad) {
          for (std::size_t r = 0; r < n; ++r) sys.a[r * n + perm[n - 1]] = 0.0;
        }
        batch.push_back(sys);
      }
      expect_real_lanes_match<kLanes>(batch,
                                      "singular lane " + std::to_string(bad) +
                                          tag);
    }
  }
}

TEST(DcLu, ZeroMultiplierLeavesLaneUntouched) {
  // Lane 0's multiplier in row 1 is a signed zero, lane 1's is not. A lane
  // updated where the scalar solve skips the row would turn the -0 at (1, 2)
  // into +0.
  for (const double m : {0.0, -0.0}) {
    std::vector<RealSystem> batch;
    for (std::size_t l = 0; l < kLanes; ++l) {
      RealSystem s{3, {4.0, 1.0, 2.0,  //
                       l == 0 ? m : 1.0, 3.0, -0.0,  //
                       0.5, -0.0, 5.0},
                   {1.0, -0.0, 2.0}};
      batch.push_back(s);
    }
    expect_real_lanes_match<kLanes>(batch, "signed-zero multiplier");
  }
}

// --- Newton in lanes against the scalar reference ---------------------------

/// One circuit, one set of options and a pool of sizings to solve at.
struct DcCase {
  std::string what;
  const Netlist* nl = nullptr;
  SimOptions opts;
  std::vector<std::vector<double>> sizes;
};

/// What each case of the pool must cover between them, by the reference.
struct Coverage {
  int plain = 0, stepped = 0, failed_cap = 0, singular = 0, attempt_cap = 0,
      deadline = 0;
};

void classify(const SolveResult& r, const SimOptions& opts, Coverage& cov) {
  if (r.converged && !r.used_source_stepping) ++cov.plain;
  if (r.converged && r.used_source_stepping) ++cov.stepped;
  if (!r.converged && r.failed_attempts > 0 && !r.deadline_exceeded &&
      r.iterations >= opts.max_newton_iter) {
    ++cov.failed_cap;
  }
  if (r.failed_attempts > 0 && r.iterations == r.failed_attempts &&
      !r.deadline_exceeded) {
    ++cov.singular;  // every attempt failed on its first LU
  }
  if (r.deadline_exceeded && r.iterations > 0) ++cov.attempt_cap;
  if (r.deadline_exceeded && r.iterations == 0) ++cov.deadline;
}

/// Sizings at the unit cube's center and corners plus random points.
std::vector<std::vector<double>> sizing_pool(const Netlist& nl, Rng& rng,
                                             std::size_t count) {
  const auto space = sizing_space(nl);
  std::vector<std::vector<double>> pool;
  pool.push_back(default_sizing(nl).value);
  const std::vector<double> corners[2] = {
      std::vector<double>(space.size(), 0.0),
      std::vector<double>(space.size(), 1.0)};
  for (const auto& u : corners) {
    pool.push_back(sizing_from_unit(space, u).value);
  }
  while (pool.size() < count) {
    std::vector<double> u(space.size());
    for (double& x : u) x = rng.uniform();
    pool.push_back(sizing_from_unit(space, u).value);
  }
  return pool;
}

/// Netlists that outlive the cases pointing at them.
std::deque<Netlist>& netlists() {
  static std::deque<Netlist> all;
  return all;
}

/// A node reached only through capacitors: with gmin = 0 every Newton
/// system is singular.
const Netlist& floating_node() {
  static const Netlist nl = [] {
    eva::data::NetBuilder b;
    b.rails();
    b.io("out", IoPin::Vout1);
    b.two(DeviceKind::Resistor, "VDD", "out");
    b.two(DeviceKind::Resistor, "out", "VSS");
    b.two(DeviceKind::Capacitor, "VDD", "x");
    b.two(DeviceKind::Capacitor, "x", "VSS");
    return b.take();
  }();
  return nl;
}

std::vector<DcCase> dc_cases() {
  std::vector<DcCase> cases;
  Rng rng(2026);
  // At least kLanes + 1 sizings, and as many on narrow builds, so the pool
  // reaches every path a lane can take whatever the lane count.
  const std::size_t pool = std::max(kLanes + 1, std::size_t{9});
  for (int t = 0; t < kNumCircuitTypes; ++t) {
    const auto type = static_cast<CircuitType>(t);
    const bool converter = type == CircuitType::PowerConverter;
    int made = 0;
    for (int attempt = 0; attempt < 40 && made < 3; ++attempt) {
      Netlist nl = eva::data::generate(type, rng);
      if (!structurally_valid(nl)) continue;
      ++made;
      netlists().push_back(std::move(nl));
      const Netlist& kept = netlists().back();
      const auto sizes = sizing_pool(kept, rng, pool);
      const std::string name =
          std::string(type_name(type)) + " #" + std::to_string(made);
      SimOptions base;
      base.converter_mode = converter;
      base.phase_a = made % 2 == 1;
      SimOptions capped = base;  // few iterations: stepping and failures
      capped.max_newton_iter = 6;
      SimOptions few_attempts = capped;  // stepping cut by the attempt cap
      few_attempts.max_dc_attempts = 4;
      cases.push_back({name + " default", &kept, base, sizes});
      cases.push_back({name + " 6 iterations", &kept, capped, sizes});
      cases.push_back({name + " 4 attempts", &kept, few_attempts, sizes});
    }
  }
  SimOptions no_gmin;
  no_gmin.gmin = 0.0;
  SimOptions late;  // a deadline that has passed before the first iteration
  late.dc_deadline_ms = 1e-9;
  Rng frng(7);
  const auto sizes = sizing_pool(floating_node(), frng, pool);
  cases.push_back({"floating node, gmin 0", &floating_node(), no_gmin, sizes});
  cases.push_back({"floating node, default", &floating_node(), {}, sizes});
  cases.push_back(
      {"floating node, passed deadline", &floating_node(), late, sizes});
  return cases;
}

/// The counters a batch moves.
struct Counts {
  std::int64_t solves = 0, nonconverged = 0, deadline = 0;
  std::uint64_t iters_n = 0;
  double iters_sum = 0.0;

  static Counts now() {
    const auto h = eva::obs::histogram("spice.nr_iters").snapshot();
    return {eva::obs::counter("spice.dc_solves").value(),
            eva::obs::counter("spice.dc_nonconverged").value(),
            eva::obs::counter("spice.dc_deadline_exceeded").value(), h.count,
            h.mean * static_cast<double>(h.count)};
  }
};

void expect_same(const DcPoint& got, const DcPoint& want,
                 const std::string& what) {
  const SolveResult& g = got.result;
  const SolveResult& w = want.result;
  EXPECT_EQ(g.converged, w.converged) << what;
  EXPECT_EQ(g.iterations, w.iterations) << what;
  EXPECT_EQ(g.failed_attempts, w.failed_attempts) << what;
  EXPECT_EQ(g.used_source_stepping, w.used_source_stepping) << what;
  EXPECT_EQ(g.deadline_exceeded, w.deadline_exceeded) << what;
  ASSERT_EQ(got.v.size(), want.v.size()) << what;
  for (std::size_t i = 0; i < want.v.size(); ++i) {
    EXPECT_TRUE(same_bits(got.v[i], want.v[i]))
        << what << " v[" << i << "] = " << got.v[i] << ", scalar "
        << want.v[i];
  }
}

TEST(DcLanes, EveryLaneMatchesScalarReferenceBitwise) {
  // Batches of 1, kLanes - 1, kLanes and kLanes + 1 candidates, rotated
  // through the pool so that every candidate sits in every lane, beside
  // every kind of neighbour.
  const std::size_t sizes_b[] = {1, kLanes - 1, kLanes, kLanes + 1};
  Coverage cov;
  for (const DcCase& cs : dc_cases()) {
    const PreparedCircuit circuit(*cs.nl);
    std::vector<DcPoint> want;
    for (const auto& size : cs.sizes) {
      want.push_back(reference::solve_dc(circuit, size, cs.opts));
      classify(want.back().result, cs.opts, cov);
    }
    const std::size_t m = cs.sizes.size();
    for (const std::size_t b : sizes_b) {
      for (std::size_t rot = 0; rot < m; ++rot) {
        std::vector<const std::vector<double>*> batch;
        std::vector<std::size_t> which;
        for (std::size_t j = 0; j < b; ++j) {
          which.push_back((rot + j) % m);
          batch.push_back(&cs.sizes[which.back()]);
        }
        std::vector<DcPoint> got(b);
        const Counts c0 = Counts::now();
        solve_dc_batch(circuit, batch, cs.opts, got);
        const Counts c1 = Counts::now();
        Counts expect;
        for (std::size_t j = 0; j < b; ++j) {
          const SolveResult& r = want[which[j]].result;
          expect.nonconverged += !r.converged;
          expect.deadline += r.deadline_exceeded;
          expect.iters_sum += r.iterations;
          expect_same(got[j], want[which[j]],
                      cs.what + ", batch of " + std::to_string(b) +
                          ", rotation " + std::to_string(rot) + ", lane " +
                          std::to_string(j % kLanes) + ", sizing " +
                          std::to_string(which[j]));
        }
        const std::string what =
            cs.what + ", batch of " + std::to_string(b);
        // Every candidate counts once; padding lanes never count.
        EXPECT_EQ(c1.solves - c0.solves, static_cast<std::int64_t>(b)) << what;
        EXPECT_EQ(c1.iters_n - c0.iters_n, b) << what;
        EXPECT_EQ(c1.nonconverged - c0.nonconverged, expect.nonconverged)
            << what;
        EXPECT_EQ(c1.deadline - c0.deadline, expect.deadline) << what;
        EXPECT_EQ(std::llround(c1.iters_sum - c0.iters_sum),
                  std::llround(expect.iters_sum))
            << what;
      }
    }
  }
  // The pool exercises every path a lane can take.
  EXPECT_GT(cov.plain, 0);
  EXPECT_GT(cov.stepped, 0);
  EXPECT_GT(cov.failed_cap, 0);
  EXPECT_GT(cov.singular, 0);
  EXPECT_GT(cov.attempt_cap, 0);
  EXPECT_GT(cov.deadline, 0);
}

TEST(DcLanes, SimulatorSolvesAsTheBatch) {
  // The single-candidate path runs the same lanes at width 1.
  Rng rng(12);
  for (int t = 0; t < kNumCircuitTypes; ++t) {
    const auto type = static_cast<CircuitType>(t);
    const Netlist nl = eva::data::generate(type, rng);
    if (!structurally_valid(nl)) continue;
    SimOptions opts;
    opts.converter_mode = type == CircuitType::PowerConverter;
    const PreparedCircuit circuit(nl);
    for (const auto& size : sizing_pool(nl, rng, 4)) {
      Simulator sim(circuit, Sizing{size}, opts);
      const bool ok = sim.solve_dc();
      const DcPoint want = reference::solve_dc(circuit, size, opts);
      EXPECT_EQ(ok, want.result.converged) << type_name(type);
      EXPECT_EQ(sim.dc_result().iterations, want.result.iterations);
      if (!ok) continue;
      for (int p = 0; p < kNumIoPins; ++p) {
        const int node = circuit.io_node[static_cast<std::size_t>(p)];
        const double v =
            node < 0 ? 0.0 : want.v[static_cast<std::size_t>(node)];
        EXPECT_TRUE(same_bits(sim.io_voltage(static_cast<IoPin>(p)), v))
            << type_name(type) << " pin " << p;
      }
    }
  }
}

TEST(DcLanes, FaultSiteFiresPerCandidateInOrder) {
  Rng rng(3);
  const Netlist nl = eva::data::generate(CircuitType::OpAmp, rng);
  ASSERT_TRUE(structurally_valid(nl));
  const PreparedCircuit circuit(nl);
  const auto sizes = sizing_pool(nl, rng, 3);
  std::vector<const std::vector<double>*> batch;
  for (const auto& s : sizes) batch.push_back(&s);
  std::vector<DcPoint> got(batch.size());
  eva::fault::set_spec("spice_dc:2");
  const Counts c0 = Counts::now();
  solve_dc_batch(circuit, batch, {}, got);
  const Counts c1 = Counts::now();
  eva::fault::set_spec("");
  EXPECT_EQ(c1.solves - c0.solves, 3);
  EXPECT_EQ(c1.iters_n - c0.iters_n, 2u);  // the faulted solve never ran
  EXPECT_FALSE(got[1].result.converged);
  EXPECT_EQ(got[1].result.iterations, 0);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    expect_same(got[i], reference::solve_dc(circuit, sizes[i], {}),
                "unfaulted candidate " + std::to_string(i));
  }
}

// --- Kirchhoff's current law at the DC point --------------------------------

TEST(DcLanes, KclHoldsAtEveryConvergedPoint) {
  // F(v) = A(v) v - rhs(v) by the reference's stamps is the current each
  // node leaks at v (device currents, not their linearisation: the
  // companion terms cancel) and each source's voltage error. Newton stops
  // once its last step moved every node by less than newton_tol; that step
  // solved F's linearisation, so to first order the residual left is the
  // step's error through the row's conductances. Bound, per row i:
  //   |F_i| <= newton_tol * sum_j |A_ij| + 1e-9 * (sum_j |A_ij v_j| + |rhs_i|)
  // the second term covering rounding in the sums themselves.
  Rng rng(9);
  int checked = 0;
  for (int t = 0; t < kNumCircuitTypes; ++t) {
    const auto type = static_cast<CircuitType>(t);
    int made = 0;
    for (int attempt = 0; attempt < 40 && made < 3; ++attempt) {
      const Netlist nl = eva::data::generate(type, rng);
      if (!structurally_valid(nl)) continue;
      ++made;
      const PreparedCircuit circuit(nl);
      const auto pool = sizing_pool(nl, rng, 4);
      for (const bool phase_a : {true, false}) {
        SimOptions opts;
        opts.converter_mode = type == CircuitType::PowerConverter;
        opts.phase_a = phase_a;
        if (!phase_a && !opts.converter_mode) continue;
        std::vector<const std::vector<double>*> batch;
        for (const auto& s : pool) batch.push_back(&s);
        std::vector<DcPoint> got(batch.size());
        solve_dc_batch(circuit, batch, opts, got);
        for (std::size_t k = 0; k < got.size(); ++k) {
          if (!got[k].result.converged) continue;
          ++checked;
          const auto kcl =
              reference::kcl_residual(circuit, pool[k], opts, got[k].v);
          for (std::size_t i = 0; i < kcl.residual.size(); ++i) {
            const double bound = opts.newton_tol * kcl.conductance[i] +
                                 1e-9 * kcl.magnitude[i];
            EXPECT_LE(std::abs(kcl.residual[i]), bound)
                << type_name(type) << " #" << made << " sizing " << k
                << " row " << i;
          }
        }
      }
    }
    EXPECT_EQ(made, 3) << type_name(type);
  }
  EXPECT_GT(checked, 60);
}

}  // namespace
