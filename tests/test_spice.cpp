// Tests for the mini-SPICE substrate: linear algebra, DC operating points
// on analytically-solvable circuits, AC behaviour, FoM extraction, and the
// simulatability oracle over generated topologies.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "circuit/classify.hpp"
#include "data/builder.hpp"
#include "data/generators.hpp"
#include "spice/engine.hpp"
#include "spice/fom.hpp"
#include "spice/mna.hpp"
#include "spice/sizing.hpp"

namespace {

using namespace eva::spice;
using namespace eva::circuit;
using eva::Rng;
using eva::data::NetBuilder;

// --- dense LU ---------------------------------------------------------------

TEST(Mna, SolvesIdentity) {
  DenseMatrix<double> a(3);
  for (std::size_t i = 0; i < 3; ++i) a.at(i, i) = 1.0;
  std::vector<double> b{1, 2, 3};
  ASSERT_TRUE(lu_solve(a, b));
  EXPECT_DOUBLE_EQ(b[1], 2.0);
}

TEST(Mna, SolvesGeneralSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  DenseMatrix<double> a(2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  std::vector<double> b{5, 10};
  ASSERT_TRUE(lu_solve(a, b));
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(Mna, PivotsOnZeroDiagonal) {
  DenseMatrix<double> a(2);
  a.at(0, 0) = 0;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 0;
  std::vector<double> b{2, 3};
  ASSERT_TRUE(lu_solve(a, b));
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(Mna, DetectsSingular) {
  DenseMatrix<double> a(2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  std::vector<double> b{1, 2};
  EXPECT_FALSE(lu_solve(a, b));
}

TEST(Mna, ComplexSolve) {
  // (2j) x = 4 -> x = -2j
  SplitMatrix a(1);
  a.im[0] = 2.0;
  SplitVector b(1);
  b.re[0] = 4.0;
  ASSERT_TRUE(lu_solve_split(a, b));
  EXPECT_NEAR(b.re[0], 0.0, 1e-12);
  EXPECT_NEAR(b.im[0], -2.0, 1e-12);
}

// --- split-plane complex LU against the std::complex oracle -----------------

using cd = std::complex<double>;

/// Row-major complex system A x = b.
struct ComplexSystem {
  std::size_t n = 0;
  std::vector<cd> a, b;
};

/// Solves `sys` with lu_solve<std::complex<double>> (the oracle) and with
/// lu_solve_split. `rel_err` is the largest solution difference over the
/// oracle's largest component, when both solved.
struct SplitVsOracle {
  bool oracle_ok = false, split_ok = false;
  double rel_err = 0.0;
};

SplitVsOracle solve_both(const ComplexSystem& sys) {
  const std::size_t n = sys.n;
  DenseMatrix<cd> dense(n);
  SplitMatrix split(n);
  for (std::size_t i = 0; i < n * n; ++i) {
    dense.at(i / n, i % n) = sys.a[i];
    split.re[i] = sys.a[i].real();
    split.im[i] = sys.a[i].imag();
  }
  std::vector<cd> x = sys.b;
  SplitVector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y.re[i] = sys.b[i].real();
    y.im[i] = sys.b[i].imag();
  }
  SplitVsOracle r;
  r.oracle_ok = lu_solve(dense, x);
  r.split_ok = lu_solve_split(split, y);
  if (r.oracle_ok && r.split_ok) {
    double diff = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      diff = std::max(diff, std::abs(x[i] - cd{y.re[i], y.im[i]}));
      scale = std::max(scale, std::abs(x[i]));
    }
    r.rel_err = diff / scale;
  }
  return r;
}

cd random_complex(Rng& rng) {
  return {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
}

/// A well-conditioned system whose dominant entry in row i sits in column
/// perm[i]: a diagonally dominant matrix with its rows permuted, so the
/// pivot search has to find every pivot. `sparse` gives the other entries
/// MNA's mix of zero, conductance-only and capacitance-only values.
ComplexSystem permuted_dominant(Rng& rng, std::size_t n,
                                const std::vector<std::size_t>& perm,
                                bool sparse = false) {
  ComplexSystem sys{n, std::vector<cd>(n * n), std::vector<cd>(n)};
  for (auto& z : sys.a) {
    z = random_complex(rng);
    if (!sparse) continue;
    switch (rng.index(4)) {
      case 0: z = 0.0; break;
      case 1: z = z.real(); break;
      case 2: z = {0.0, z.imag()}; break;
      default: break;
    }
  }
  for (auto& z : sys.b) z = random_complex(rng);
  for (std::size_t i = 0; i < n; ++i) {
    sys.a[i * n + perm[i]] +=
        std::polar(2.0 * static_cast<double>(n), rng.uniform(0.0, 6.283));
  }
  return sys;
}

TEST(Mna, SplitSolveMatchesComplexOracle) {
  Rng rng(11);
  for (std::size_t n = 1; n <= 16; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::size_t> perm(n);
      for (std::size_t i = 0; i < n; ++i) perm[i] = i;
      if (trial % 2 == 1) rng.shuffle(perm);
      const bool sparse = trial % 4 >= 2;
      const auto r = solve_both(permuted_dominant(rng, n, perm, sparse));
      ASSERT_TRUE(r.oracle_ok) << "n=" << n << " trial " << trial;
      ASSERT_TRUE(r.split_ok) << "n=" << n << " trial " << trial;
      EXPECT_LE(r.rel_err, 1e-12) << "n=" << n << " trial " << trial;
    }
  }
}

TEST(Mna, SplitSolvePivotsOnZeroDiagonal) {
  // Dominant entries on the cyclic superdiagonal, an exactly zero diagonal:
  // every column needs a row swap before it can be eliminated.
  Rng rng(12);
  for (std::size_t n = 2; n <= 16; ++n) {
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = (i + 1) % n;
    auto sys = permuted_dominant(rng, n, perm, n % 2 == 1);
    for (std::size_t i = 0; i < n; ++i) sys.a[i * n + i] = 0.0;
    const auto r = solve_both(sys);
    ASSERT_TRUE(r.oracle_ok) << "n=" << n;
    ASSERT_TRUE(r.split_ok) << "n=" << n;
    EXPECT_LE(r.rel_err, 1e-12) << "n=" << n;
  }
  // [0 1; 1 0] x = [2; 3] -> x = [3; 2], as Mna.PivotsOnZeroDiagonal.
  SplitMatrix a(2);
  a.re[1] = 1.0;
  a.re[2] = 1.0;
  SplitVector b(2);
  b.re = {2.0, 3.0};
  ASSERT_TRUE(lu_solve_split(a, b));
  EXPECT_NEAR(b.re[0], 3.0, 1e-12);
  EXPECT_NEAR(b.re[1], 2.0, 1e-12);
}

TEST(Mna, SplitSolveAgreesOnSingularVerdict) {
  Rng rng(13);
  const auto expect_verdict = [](const ComplexSystem& sys, bool solvable,
                                 const std::string& what) {
    const auto r = solve_both(sys);
    EXPECT_EQ(r.oracle_ok, solvable) << what;
    EXPECT_EQ(r.split_ok, r.oracle_ok) << what;
  };
  for (std::size_t n = 1; n <= 16; ++n) {
    const std::string tag = " n=" + std::to_string(n);
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    rng.shuffle(perm);
    const std::size_t k = perm[0];

    auto zero_col = permuted_dominant(rng, n, perm);
    for (std::size_t r = 0; r < n; ++r) zero_col.a[r * n + k] = 0.0;
    expect_verdict(zero_col, false, "zero column" + tag);

    auto zero_row = permuted_dominant(rng, n, perm);
    for (std::size_t c = 0; c < n; ++c) zero_row.a[k * n + c] = 0.0;
    expect_verdict(zero_row, false, "zero row" + tag);

    auto tiny = permuted_dominant(rng, n, perm);
    for (auto& z : tiny.a) z *= 1e-20 / (2.0 * static_cast<double>(n) + 2.0);
    expect_verdict(tiny, false, "all entries below the threshold" + tag);

    // Row-permuted upper triangle: elimination is exact, so the last pivot
    // is exactly the chosen magnitude, on either side of 1e-18.
    for (const double last : {1e-19, 1e-17}) {
      ComplexSystem tri{n, std::vector<cd>(n * n), std::vector<cd>(n)};
      for (std::size_t r = 0; r < n; ++r) {
        tri.b[r] = random_complex(rng);
        for (std::size_t c = r + 1; c < n; ++c) {
          tri.a[perm[r] * n + c] = random_complex(rng);
        }
        tri.a[perm[r] * n + r] =
            std::polar(r + 1 == n ? last : 1.0, rng.uniform(0.0, 6.283));
      }
      expect_verdict(tri, last > 1e-18,
                     "last pivot " + std::to_string(last) + tag);
    }
  }
}

// --- sizing -----------------------------------------------------------------

TEST(Sizing, DefaultsWithinBounds) {
  Rng rng(1);
  const Netlist nl = eva::data::gen_opamp(rng);
  const auto space = sizing_space(nl);
  const auto def = default_sizing(nl);
  ASSERT_EQ(space.size(), def.value.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_GE(def.value[i], space[i].lo);
    EXPECT_LE(def.value[i], space[i].hi);
  }
}

TEST(Sizing, UnitCubeMapsToBounds) {
  Rng rng(2);
  const Netlist nl = eva::data::gen_opamp(rng);
  const auto space = sizing_space(nl);
  const std::vector<double> zeros(space.size(), 0.0);
  const std::vector<double> ones(space.size(), 1.0);
  const auto lo = sizing_from_unit(nl, zeros);
  const auto hi = sizing_from_unit(nl, ones);
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_NEAR(lo.value[i], space[i].lo, space[i].lo * 1e-9);
    EXPECT_NEAR(hi.value[i], space[i].hi, space[i].hi * 1e-9);
  }
}

// --- DC on analytic circuits --------------------------------------------------

TEST(Dc, ResistorDividerHalvesSupply) {
  NetBuilder b;
  b.rails();
  b.io("out", IoPin::Vout1);
  b.two(DeviceKind::Resistor, "VDD", "out");
  b.two(DeviceKind::Resistor, "out", "VSS");
  const Netlist nl = b.take();
  Simulator sim(nl, default_sizing(nl));
  ASSERT_TRUE(sim.solve_dc());
  EXPECT_NEAR(sim.io_voltage(IoPin::Vout1), 0.9, 1e-3);
}

TEST(Dc, UnequalDividerRatio) {
  NetBuilder b;
  b.rails();
  b.io("out", IoPin::Vout1);
  b.two(DeviceKind::Resistor, "VDD", "out");  // device 0
  b.two(DeviceKind::Resistor, "out", "VSS");  // device 1
  const Netlist nl = b.take();
  Sizing sz = default_sizing(nl);
  sz.value[0] = 10e3;
  sz.value[1] = 30e3;
  Simulator sim(nl, sz);
  ASSERT_TRUE(sim.solve_dc());
  EXPECT_NEAR(sim.io_voltage(IoPin::Vout1), 1.8 * 0.75, 1e-3);
}

TEST(Dc, DiodeDropNearHalfVolt) {
  NetBuilder b;
  b.rails();
  b.io("out", IoPin::Vout1);
  b.two(DeviceKind::Resistor, "VDD", "out");
  b.two(DeviceKind::Diode, "out", "VSS");
  const Netlist nl = b.take();
  Simulator sim(nl, default_sizing(nl));
  ASSERT_TRUE(sim.solve_dc());
  const double vd = sim.io_voltage(IoPin::Vout1);
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.8);
}

TEST(Dc, NmosDiodeConnectedSitsAboveVth) {
  NetBuilder b;
  b.rails();
  b.io("out", IoPin::Vout1);
  b.two(DeviceKind::Resistor, "VDD", "out");
  b.mos(DeviceKind::Nmos, "out", "out", "VSS");  // diode-connected
  const Netlist nl = b.take();
  Simulator sim(nl, default_sizing(nl));
  ASSERT_TRUE(sim.solve_dc());
  const double v = sim.io_voltage(IoPin::Vout1);
  EXPECT_GT(v, 0.5);  // must exceed VTH to conduct
  EXPECT_LT(v, 1.2);
}

TEST(Dc, CommonSourceOutputBetweenRails) {
  NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);  // biased at vcm = 0.9 V
  b.io("out", IoPin::Vout1);
  b.mos(DeviceKind::Nmos, "in", "out", "VSS");
  b.two(DeviceKind::Resistor, "VDD", "out");
  const Netlist nl = b.take();
  Simulator sim(nl, default_sizing(nl));
  ASSERT_TRUE(sim.solve_dc());
  const double v = sim.io_voltage(IoPin::Vout1);
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, 1.8);
  EXPECT_GT(sim.supply_power(), 0.0);
}

TEST(Dc, SupplyPowerScalesWithLoad) {
  auto run = [](double r) {
    NetBuilder b;
    b.rails();
    b.io("out", IoPin::Vout1);
    b.two(DeviceKind::Resistor, "VDD", "out");
    b.two(DeviceKind::Resistor, "out", "VSS");
    const Netlist nl = b.take();
    Sizing sz = default_sizing(nl);
    sz.value[0] = r;
    sz.value[1] = r;
    Simulator sim(nl, sz);
    EXPECT_TRUE(sim.solve_dc());
    return sim.supply_power();
  };
  EXPECT_GT(run(1e3), run(1e4));
}

// --- AC ------------------------------------------------------------------------

TEST(Ac, RcLowpassCorner) {
  // R from VIN1 to out, C from out to VSS: f3dB = 1/(2 pi R C).
  NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);
  b.io("out", IoPin::Vout1);
  b.two(DeviceKind::Resistor, "in", "out");   // 10k default
  b.two(DeviceKind::Capacitor, "out", "VSS"); // 1p default
  // Anchor VDD somewhere so validity-independent sim still has the rail.
  b.two(DeviceKind::Resistor, "VDD", "out");
  const Netlist nl = b.take();
  Sizing sz = default_sizing(nl);
  sz.value[0] = 1e4;    // R
  sz.value[1] = 1e-9;   // C (1 nF -> f3dB ~ 15.9 kHz)
  sz.value[2] = 1e9;    // make the anchor resistor negligible

  SimOptions opts;
  opts.load_cap = 0.0;  // isolate the intended RC
  Simulator sim(nl, sz, opts);
  ASSERT_TRUE(sim.solve_dc());
  const auto sweep = sim.ac_sweep(10.0, 1e7, 141);
  const double a0 = std::abs(sweep.front().h);
  EXPECT_NEAR(a0, 1.0, 0.05);
  // Find -3 dB point.
  double f3 = 0;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    if (std::abs(sweep[i].h) < a0 / std::sqrt(2.0)) {
      f3 = sweep[i].freq_hz;
      break;
    }
  }
  const double expected = 1.0 / (2 * 3.14159265 * 1e4 * 1e-9);
  EXPECT_GT(f3, expected / 2);
  EXPECT_LT(f3, expected * 2);
}

TEST(Ac, RlLowpassCorner) {
  // L from VIN1 to out, R from out to VSS. With the model's 1 ohm inductor
  // series resistance, H = R / (R + 1 + jwL): |H(low f)| = R/(R+1) and
  // the corner is at (R+1)/(2 pi L). The sweep is centred on the corner.
  NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);
  b.io("out", IoPin::Vout1);
  const int ind = b.two(DeviceKind::Inductor, "in", "out");
  const int res = b.two(DeviceKind::Resistor, "out", "VSS");
  const int anchor = b.two(DeviceKind::Resistor, "VDD", "out");
  const Netlist nl = b.take();
  const double r = 99.0, l = 1e-3;
  Sizing sz = default_sizing(nl);
  sz.value[static_cast<std::size_t>(ind)] = l;
  sz.value[static_cast<std::size_t>(res)] = r;
  sz.value[static_cast<std::size_t>(anchor)] = 1e9;  // negligible

  SimOptions opts;
  opts.load_cap = 0.0;  // isolate the intended RL
  Simulator sim(nl, sz, opts);
  ASSERT_TRUE(sim.solve_dc());
  const double fc = (r + 1.0) / (2.0 * 3.141592653589793 * l);
  const auto sweep = sim.ac_sweep(fc / 1e3, fc * 1e3, 121);
  for (const auto& pt : sweep) {
    const double w = 2.0 * 3.141592653589793 * pt.freq_hz;
    const cd h = r / cd{r + 1.0, w * l};
    EXPECT_LE(std::abs(pt.h - h), 1e-6 * std::abs(h)) << pt.freq_hz;
  }
  const double a0 = std::abs(sweep.front().h);
  EXPECT_NEAR(a0, r / (r + 1.0), 1e-6);
  const AcPoint& corner = sweep[60];
  EXPECT_NEAR(corner.freq_hz, fc, 1e-9 * fc);
  EXPECT_NEAR(std::abs(corner.h), a0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(std::arg(corner.h), -3.141592653589793 / 4.0, 1e-6);
  // The first point below a0/sqrt(2) is the one just past the corner.
  std::size_t first_below = 0;
  for (std::size_t i = 1; i < sweep.size() && first_below == 0; ++i) {
    if (std::abs(sweep[i].h) < a0 / std::sqrt(2.0)) first_below = i;
  }
  EXPECT_EQ(first_below, 61u);
}

TEST(Ac, SeriesRlcPeaksAtResonance) {
  // VIN1 -> L -> C -> out, R from out to VSS:
  // H = R / (R + 1 + jwL + 1/(jwC)), a band-pass that peaks at
  // f0 = 1/(2 pi sqrt(LC)) with |H(f0)| = R/(R+1) and zero phase (Q = 10).
  NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);
  b.io("out", IoPin::Vout1);
  const int ind = b.two(DeviceKind::Inductor, "in", "mid");
  const int cap = b.two(DeviceKind::Capacitor, "mid", "out");
  const int res = b.two(DeviceKind::Resistor, "out", "VSS");
  const int anchor = b.two(DeviceKind::Resistor, "VDD", "out");
  const Netlist nl = b.take();
  const double r = 99.0, l = 1e-3, c = 1e-9;
  Sizing sz = default_sizing(nl);
  sz.value[static_cast<std::size_t>(ind)] = l;
  sz.value[static_cast<std::size_t>(cap)] = c;
  sz.value[static_cast<std::size_t>(res)] = r;
  sz.value[static_cast<std::size_t>(anchor)] = 1e9;  // negligible

  SimOptions opts;
  opts.load_cap = 0.0;
  // Near f0 the reactances cancel and leave the 100 ohm loop, so the
  // default gmin leak at the L-C node (~1e-3 ohm of reactance) would move
  // H by 1e-5; a smaller gmin isolates the intended RLC.
  opts.gmin = 1e-12;
  Simulator sim(nl, sz, opts);
  ASSERT_TRUE(sim.solve_dc());
  const double f0 = 1.0 / (2.0 * 3.141592653589793 * std::sqrt(l * c));
  const auto sweep = sim.ac_sweep(f0 / 100.0, f0 * 100.0, 401);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double w = 2.0 * 3.141592653589793 * sweep[i].freq_hz;
    const cd h = r / (cd{r + 1.0, w * l} + 1.0 / cd{0.0, w * c});
    EXPECT_LE(std::abs(sweep[i].h - h), 1e-6 * std::abs(h))
        << sweep[i].freq_hz;
    if (std::abs(sweep[i].h) > std::abs(sweep[peak].h)) peak = i;
  }
  EXPECT_EQ(peak, 200u);  // the middle point, f0
  EXPECT_NEAR(sweep[peak].freq_hz, f0, 1e-9 * f0);
  EXPECT_NEAR(std::abs(sweep[peak].h), r / (r + 1.0), 1e-6);
  EXPECT_NEAR(std::arg(sweep[peak].h), 0.0, 1e-6);
}

TEST(Ac, CommonSourceHasGain) {
  NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);
  b.io("out", IoPin::Vout1);
  b.mos(DeviceKind::Nmos, "in", "out", "VSS");
  b.two(DeviceKind::Resistor, "VDD", "out");
  const Netlist nl = b.take();
  Simulator sim(nl, default_sizing(nl));
  ASSERT_TRUE(sim.solve_dc());
  const auto sweep = sim.ac_sweep();
  // gm * RL > 1 for default sizing.
  EXPECT_GT(std::abs(sweep.front().h), 1.0);
  // Gain must roll off at high frequency due to the output load cap.
  EXPECT_LT(std::abs(sweep.back().h), std::abs(sweep.front().h));
}

// --- FoM ------------------------------------------------------------------------

TEST(Fom, OpAmpEvaluates) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const Netlist nl = eva::data::gen_opamp(rng);
    const auto perf = evaluate_default(nl, CircuitType::OpAmp);
    if (!perf.ok) continue;
    EXPECT_GE(perf.fom, 0.0);
    EXPECT_GT(perf.power_w, 0.0);
    return;  // at least one op-amp evaluated
  }
  FAIL() << "no generated op-amp produced a DC point";
}

TEST(Fom, AcPointsScalesSweepNotVerdict) {
  // The verification-fidelity knob (SimOptions::ac_points) changes AC
  // sweep cost, not which circuits pass: a denser sweep must
  // still evaluate ok with a gain within a whisker of the default, and
  // the floor of 2 points must not crash.
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const Netlist nl = eva::data::gen_opamp(rng);
    const auto base = evaluate_default(nl, CircuitType::OpAmp);
    if (!base.ok) continue;
    SimOptions dense;
    dense.ac_points = 501;
    const auto hi = evaluate(nl, default_sizing(nl), CircuitType::OpAmp,
                             dense);
    ASSERT_TRUE(hi.ok);
    // Low-frequency gain comes from the first sweep point (1 Hz in both
    // sweeps), so it is resolution-independent.
    EXPECT_NEAR(hi.gain, base.gain, 1e-9 * std::abs(base.gain));
    // The denser grid brackets the -3 dB crossing at least as tightly.
    EXPECT_GT(hi.bw_hz, 0.0);
    SimOptions floor_opts;
    floor_opts.ac_points = 1;  // clamped to 2 inside evaluate
    const auto lo = evaluate(nl, default_sizing(nl), CircuitType::OpAmp,
                             floor_opts);
    EXPECT_TRUE(lo.ok);
    return;
  }
  FAIL() << "no generated op-amp produced a DC point";
}

TEST(Fom, BuckConverterStepsDown) {
  // Non-synchronous buck built explicitly.
  NetBuilder b;
  b.rails();
  b.io("clk", IoPin::Clk1);
  b.mos(DeviceKind::Pmos, "clk", "sw", "VDD");
  b.two(DeviceKind::Diode, "VSS", "sw");
  b.two(DeviceKind::Inductor, "sw", "out");
  b.two(DeviceKind::Capacitor, "out", "VSS");
  b.io("out", IoPin::Vout1);
  const Netlist nl = b.take();
  const auto perf = evaluate_default(nl, CircuitType::PowerConverter);
  ASSERT_TRUE(perf.ok);
  EXPECT_GT(perf.ratio, 0.05);
  EXPECT_LT(perf.ratio, 1.0);  // buck: output below the supply
  EXPECT_GT(perf.efficiency, 0.0);
  EXPECT_LE(perf.efficiency, 1.0);
  EXPECT_GT(perf.fom, 0.0);
}

TEST(Fom, GeneratedConvertersEvaluate) {
  Rng rng(6);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    const Netlist nl = eva::data::gen_power_converter(rng);
    const auto perf = evaluate_default(nl, CircuitType::PowerConverter);
    ok += perf.ok;
  }
  EXPECT_GE(ok, 5);
}

TEST(Fom, InvalidNetlistNotOk) {
  Netlist empty;
  const auto perf = evaluate_default(empty, CircuitType::OpAmp);
  EXPECT_FALSE(perf.ok);
}

TEST(Fom, BiggerInputPairRaisesOpAmpFom) {
  // Monotonicity sanity for the GA: widening the input devices of a fixed
  // 5T OTA topology should not reduce gain*GBW/power catastrophically.
  NetBuilder b;
  b.rails();
  b.io("inp", IoPin::Vin1);
  b.io("inn", IoPin::Vin2);
  b.io("bt", IoPin::Vb1);
  b.mos(DeviceKind::Nmos, "inp", "d1", "tail");  // 0
  b.mos(DeviceKind::Nmos, "inn", "out", "tail"); // 1
  b.mos(DeviceKind::Nmos, "bt", "tail", "VSS");  // 2
  b.mos(DeviceKind::Pmos, "d1", "d1", "VDD");    // 3
  b.mos(DeviceKind::Pmos, "d1", "out", "VDD");   // 4
  b.io("out", IoPin::Vout1);
  const Netlist nl = b.take();

  auto fom_with_w = [&](double w) {
    Sizing sz = default_sizing(nl);
    sz.value[0] = w;
    sz.value[1] = w;
    const auto perf = evaluate(nl, sz, CircuitType::OpAmp);
    EXPECT_TRUE(perf.ok);
    return perf.fom;
  };
  const double f_small = fom_with_w(2e-6);
  const double f_big = fom_with_w(4e-5);
  EXPECT_GT(f_big, 0.0);
  EXPECT_GT(f_small, 0.0);
}

TEST(Simulatable, AcceptsGeneratedTopologies) {
  Rng rng(7);
  int ok = 0;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    const Netlist nl = eva::data::generate(
        static_cast<CircuitType>(i % 11), rng);
    ok += simulatable(nl);
  }
  EXPECT_GE(ok, n * 3 / 5);
}

TEST(Simulatable, RejectsStructurallyInvalid) {
  Netlist nl;  // empty
  EXPECT_FALSE(simulatable(nl));
}

}  // namespace
