// Tests for the mini-SPICE substrate: linear algebra, DC operating points
// on analytically-solvable circuits, AC behaviour, FoM extraction, and the
// simulatability oracle over generated topologies.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>

#include "circuit/classify.hpp"
#include "circuit/validity.hpp"
#include "data/builder.hpp"
#include "data/generators.hpp"
#include "dc_reference.hpp"
#include "obs/metrics.hpp"
#include "spice/engine.hpp"
#include "spice/fom.hpp"
#include "spice/mna.hpp"
#include "spice/sizing.hpp"

namespace {

using namespace eva::spice;
using namespace eva::circuit;
using eva::Rng;
using eva::data::NetBuilder;
using eva::spice::reference::lu_solve;

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

// --- scalar split-plane reference -------------------------------------------

/// x + jy = (a + jb) / (c + jd) by Smith's method, the scalar form of the
/// divide lu_solve_lanes does in every lane.
void complex_divide(double a, double b, double c, double d, double& x,
                    double& y) {
  if (std::abs(c) < std::abs(d)) {
    const double ratio = c / d;
    const double denom = c * ratio + d;
    x = (a * ratio + b) / denom;
    y = (b * ratio - a) / denom;
  } else {
    const double ratio = d / c;
    const double denom = d * ratio + c;
    x = (b * ratio + a) / denom;
    y = (b - a * ratio) / denom;
  }
}

/// Complex square matrix as two row-major planes, real and imaginary.
struct SplitMatrix {
  explicit SplitMatrix(std::size_t size = 0)
      : n(size), re(size * size, 0.0), im(size * size, 0.0), cols(size) {}
  std::size_t n;
  std::vector<double> re, im;
  std::vector<std::size_t> cols;  // lu_solve_split's scratch
};

/// Complex vector as two planes, real and imaginary.
struct SplitVector {
  explicit SplitVector(std::size_t size = 0) : re(size, 0.0), im(size, 0.0) {}
  std::vector<double> re, im;
};

/// The scalar reference for lu_solve_lanes: complex A x = b in place by
/// lu_solve's LU in explicit real arithmetic. The pivot is the largest
/// squared magnitude, singular when |p|^2 < 1e-36; row updates visit only
/// the columns where the pivot row is nonzero and skip rows whose
/// multiplier is exactly zero. Every lane of lu_solve_lanes must do these
/// operations in this order.
bool lu_solve_split(SplitMatrix& a, SplitVector& b) {
  const std::size_t n = a.n;
  double* ar = a.re.data();
  double* ai = a.im.data();
  double* br = b.re.data();
  double* bi = b.im.data();
  const auto norm2 = [&](std::size_t r, std::size_t c) {
    return ar[r * n + c] * ar[r * n + c] + ai[r * n + c] * ai[r * n + c];
  };

  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = norm2(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double m = norm2(r, col);
      if (m > best) {
        best = m;
        pivot = r;
      }
    }
    if (best < 1e-36) return false;
    if (pivot != col) {
      std::swap_ranges(ar + col * n, ar + col * n + n, ar + pivot * n);
      std::swap_ranges(ai + col * n, ai + col * n + n, ai + pivot * n);
      std::swap(br[col], br[pivot]);
      std::swap(bi[col], bi[pivot]);
    }
    const double* pr = ar + col * n;
    const double* pi = ai + col * n;
    double inv_re = 0.0, inv_im = 0.0;
    complex_divide(1.0, 0.0, pr[col], pi[col], inv_re, inv_im);
    std::size_t nnz = 0;  // pivot-row nonzeros right of the pivot
    for (std::size_t c = col + 1; c < n; ++c) {
      if (pr[c] != 0.0 || pi[c] != 0.0) a.cols[nnz++] = c;
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      double* rr = ar + r * n;
      double* ri = ai + r * n;
      const double fr = rr[col] * inv_re - ri[col] * inv_im;
      const double fi = rr[col] * inv_im + ri[col] * inv_re;
      if (fr == 0.0 && fi == 0.0) continue;
      rr[col] = 0.0;
      ri[col] = 0.0;
      for (std::size_t k = 0; k < nnz; ++k) {
        const std::size_t c = a.cols[k];
        rr[c] -= fr * pr[c] - fi * pi[c];
        ri[c] -= fr * pi[c] + fi * pr[c];
      }
      br[r] -= fr * br[col] - fi * bi[col];
      bi[r] -= fr * bi[col] + fi * br[col];
    }
  }
  for (std::size_t r = n; r-- > 0;) {
    const double* rr = ar + r * n;
    const double* ri = ai + r * n;
    double acc_re = br[r];
    double acc_im = bi[r];
    for (std::size_t c = r + 1; c < n; ++c) {
      acc_re -= rr[c] * br[c] - ri[c] * bi[c];
      acc_im -= rr[c] * bi[c] + ri[c] * br[c];
    }
    complex_divide(acc_re, acc_im, rr[r], ri[r], br[r], bi[r]);
  }
  return true;
}

// --- lane solver -------------------------------------------------------------

using cd = std::complex<double>;

/// Row-major complex system A x = b.
struct ComplexSystem {
  std::size_t n = 0;
  std::vector<cd> a, b;
};

/// One lu_solve_lanes call on kLanes systems of one size, system l in
/// lane l: per lane, whether it solved, its solution and the matrix the
/// solve left (its upper triangle is the U factor).
struct LaneResult {
  std::vector<bool> ok;
  std::vector<std::vector<cd>> x, a;
  bool pivots_split = false;
};

LaneResult solve_lanes(const std::vector<ComplexSystem>& systems) {
  EXPECT_EQ(systems.size(), kLanes);
  const std::size_t n = systems.front().n;
  LaneMatrix a(n);
  LaneVector b(n);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const ComplexSystem& sys = systems.at(l);
    EXPECT_EQ(sys.n, n);
    for (std::size_t i = 0; i < n * n; ++i) {
      a.re[i][l] = sys.a[i].real();
      a.im[i][l] = sys.a[i].imag();
    }
    for (std::size_t i = 0; i < n; ++i) {
      b.re[i][l] = sys.b[i].real();
      b.im[i][l] = sys.b[i].imag();
    }
  }
  const LaneSolve solved = lu_solve_lanes(a, b);
  LaneResult r;
  r.pivots_split = solved.pivots_split;
  for (std::size_t l = 0; l < kLanes; ++l) {
    r.ok.push_back(solved.ok[l] != 0);
    r.x.emplace_back();
    for (std::size_t i = 0; i < n; ++i) {
      r.x[l].push_back({b.re[i][l], b.im[i][l]});
    }
    r.a.emplace_back();
    for (std::size_t i = 0; i < n * n; ++i) {
      r.a[l].push_back({a.re[i][l], a.im[i][l]});
    }
  }
  return r;
}

TEST(Mna, ComplexSolve) {
  // (2j) x = 4 -> x = -2j, in every lane.
  const ComplexSystem sys{1, {cd{0.0, 2.0}}, {cd{4.0, 0.0}}};
  const auto r = solve_lanes(std::vector<ComplexSystem>(kLanes, sys));
  for (std::size_t l = 0; l < kLanes; ++l) {
    ASSERT_TRUE(r.ok[l]) << "lane " << l;
    EXPECT_NEAR(r.x[l][0].real(), 0.0, 1e-12) << "lane " << l;
    EXPECT_NEAR(r.x[l][0].imag(), -2.0, 1e-12) << "lane " << l;
  }
}

// --- lane solver against the std::complex oracle ---------------------------

/// Solves each system with lu_solve<std::complex<double>> (the oracle), and
/// all of them at once with lu_solve_lanes, system l in lane l. `rel_err`
/// is the largest solution difference over the oracle's largest component,
/// when both solved.
struct LaneVsOracle {
  bool oracle_ok = false, lane_ok = false;
  double rel_err = 0.0;
};

std::vector<LaneVsOracle> solve_both(
    const std::vector<ComplexSystem>& systems) {
  const LaneResult lanes = solve_lanes(systems);
  std::vector<LaneVsOracle> out;
  for (std::size_t l = 0; l < kLanes; ++l) {
    const ComplexSystem& sys = systems[l];
    const std::size_t n = sys.n;
    DenseMatrix<cd> dense(n);
    for (std::size_t i = 0; i < n * n; ++i) dense.at(i / n, i % n) = sys.a[i];
    std::vector<cd> x = sys.b;
    LaneVsOracle r;
    r.oracle_ok = lu_solve(dense, x);
    r.lane_ok = lanes.ok[l];
    if (r.oracle_ok && r.lane_ok) {
      double diff = 0.0, scale = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        diff = std::max(diff, std::abs(x[i] - lanes.x[l][i]));
        scale = std::max(scale, std::abs(x[i]));
      }
      r.rel_err = diff / scale;
    }
    out.push_back(r);
  }
  return out;
}

cd random_complex(Rng& rng) {
  return {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
}

std::vector<std::size_t> identity_perm(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  return perm;
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
      // Odd trials give every lane its own row permutation.
      std::vector<ComplexSystem> batch;
      for (std::size_t l = 0; l < kLanes; ++l) {
        auto perm = identity_perm(n);
        if (trial % 2 == 1) rng.shuffle(perm);
        batch.push_back(permuted_dominant(rng, n, perm, trial % 4 >= 2));
      }
      const auto rs = solve_both(batch);
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::string at = "n=" + std::to_string(n) + " trial " +
                               std::to_string(trial) + " lane " +
                               std::to_string(l);
        ASSERT_TRUE(rs[l].oracle_ok) << at;
        ASSERT_TRUE(rs[l].lane_ok) << at;
        EXPECT_LE(rs[l].rel_err, 1e-12) << at;
      }
    }
  }
}

TEST(Mna, SplitSolvePivotsOnZeroDiagonal) {
  // Dominant entries on a cyclic superdiagonal, an exactly zero diagonal:
  // every column needs a row swap before it can be eliminated. Lane l
  // shifts by 1 + l % (n - 1), so the lanes swap different rows.
  Rng rng(12);
  for (std::size_t n = 2; n <= 16; ++n) {
    std::vector<ComplexSystem> batch;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::size_t shift = 1 + l % (n - 1);
      std::vector<std::size_t> perm(n);
      for (std::size_t i = 0; i < n; ++i) perm[i] = (i + shift) % n;
      auto sys = permuted_dominant(rng, n, perm, n % 2 == 1);
      for (std::size_t i = 0; i < n; ++i) sys.a[i * n + i] = 0.0;
      batch.push_back(sys);
    }
    const auto rs = solve_both(batch);
    for (std::size_t l = 0; l < kLanes; ++l) {
      ASSERT_TRUE(rs[l].oracle_ok) << "n=" << n << " lane " << l;
      ASSERT_TRUE(rs[l].lane_ok) << "n=" << n << " lane " << l;
      EXPECT_LE(rs[l].rel_err, 1e-12) << "n=" << n << " lane " << l;
    }
  }
  // [0 1; 1 0] x = [2; 3] -> x = [3; 2], as Mna.PivotsOnZeroDiagonal.
  const ComplexSystem swap{2, {0.0, 1.0, 1.0, 0.0}, {2.0, 3.0}};
  const auto r = solve_lanes(std::vector<ComplexSystem>(kLanes, swap));
  for (std::size_t l = 0; l < kLanes; ++l) {
    ASSERT_TRUE(r.ok[l]) << "lane " << l;
    EXPECT_NEAR(r.x[l][0].real(), 3.0, 1e-12) << "lane " << l;
    EXPECT_NEAR(r.x[l][1].real(), 2.0, 1e-12) << "lane " << l;
  }
}

TEST(Mna, SplitSolveAgreesOnSingularVerdict) {
  // Each batch holds one case in lane `bad` and solvable systems in the
  // other lanes: every lane must agree with the oracle's verdict.
  Rng rng(13);
  std::size_t bad = 0;
  const auto expect_verdict = [&](std::size_t n, const ComplexSystem& sys,
                                  bool solvable, const std::string& what) {
    std::vector<ComplexSystem> batch;
    for (std::size_t l = 0; l < kLanes; ++l) {
      auto perm = identity_perm(n);
      rng.shuffle(perm);
      batch.push_back(l == bad ? sys : permuted_dominant(rng, n, perm));
    }
    const auto rs = solve_both(batch);
    for (std::size_t l = 0; l < kLanes; ++l) {
      EXPECT_EQ(rs[l].oracle_ok, l == bad ? solvable : true)
          << what << " lane " << l;
      EXPECT_EQ(rs[l].lane_ok, rs[l].oracle_ok) << what << " lane " << l;
      if (l != bad) {
        EXPECT_LE(rs[l].rel_err, 1e-12) << what << " lane " << l;
      }
    }
    bad = (bad + 1) % kLanes;
  };
  for (std::size_t n = 1; n <= 16; ++n) {
    const std::string tag = " n=" + std::to_string(n);
    std::vector<std::size_t> perm = identity_perm(n);
    rng.shuffle(perm);
    const std::size_t k = perm[0];

    auto zero_col = permuted_dominant(rng, n, perm);
    for (std::size_t r = 0; r < n; ++r) zero_col.a[r * n + k] = 0.0;
    expect_verdict(n, zero_col, false, "zero column" + tag);

    auto zero_row = permuted_dominant(rng, n, perm);
    for (std::size_t c = 0; c < n; ++c) zero_row.a[k * n + c] = 0.0;
    expect_verdict(n, zero_row, false, "zero row" + tag);

    auto tiny = permuted_dominant(rng, n, perm);
    for (auto& z : tiny.a) z *= 1e-20 / (2.0 * static_cast<double>(n) + 2.0);
    expect_verdict(n, tiny, false, "all entries below the threshold" + tag);

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
      expect_verdict(n, tri, last > 1e-18,
                     "last pivot " + std::to_string(last) + tag);
    }
  }
}

// --- lane solver against the scalar reference, bit for bit -------------------

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

bool same_bits(cd x, cd y) {
  return same_bits(x.real(), y.real()) && same_bits(x.imag(), y.imag());
}

/// Solves each system alone with lu_solve_split and all of them with
/// lu_solve_lanes: every lane's verdict, solution and U factor must equal
/// the scalar solve's, bit for bit (so a zero keeps its sign); a singular
/// lane must hold zeros. Half the zero parts of the inputs are made -0, so
/// that a lane updated where the scalar solve skips shows as a flipped
/// zero sign.
void expect_lanes_match_scalar(std::vector<ComplexSystem> batch,
                               const std::string& what) {
  Rng signs(std::hash<std::string>{}(what));
  const auto sign_zero = [&](double v) {
    return v == 0.0 && signs.index(2) == 1 ? -0.0 : v;
  };
  for (auto& sys : batch) {
    for (auto& z : sys.a) z = {sign_zero(z.real()), sign_zero(z.imag())};
  }
  const LaneResult lanes = solve_lanes(batch);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const ComplexSystem& sys = batch[l];
    const std::size_t n = sys.n;
    SplitMatrix a(n);
    SplitVector b(n);
    for (std::size_t i = 0; i < n * n; ++i) {
      a.re[i] = sys.a[i].real();
      a.im[i] = sys.a[i].imag();
    }
    for (std::size_t i = 0; i < n; ++i) {
      b.re[i] = sys.b[i].real();
      b.im[i] = sys.b[i].imag();
    }
    const bool ok = lu_solve_split(a, b);
    ASSERT_EQ(lanes.ok[l], ok) << what << " lane " << l;
    for (std::size_t i = 0; i < n; ++i) {
      const cd want = ok ? cd{b.re[i], b.im[i]} : cd{};
      const cd got = lanes.x[l][i];
      EXPECT_TRUE(ok ? same_bits(got, want) : got == want)
          << what << " lane " << l << " x[" << i << "] = " << got
          << ", scalar " << want;
    }
    if (!ok) continue;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = r; c < n; ++c) {
        const cd want{a.re[r * n + c], a.im[r * n + c]};
        const cd got = lanes.a[l][r * n + c];
        EXPECT_TRUE(same_bits(got, want))
            << what << " lane " << l << " U(" << r << ", " << c
            << ") = " << got << ", scalar " << want;
      }
    }
  }
}

/// kLanes MNA-like systems A = G + j w_l C with one sparsity pattern:
/// a sweep's batch. `kill` zeroes one entry of G in lane 0 only, so that
/// lane's pattern departs from the others.
std::vector<ComplexSystem> mna_batch(Rng& rng, std::size_t n, bool kill) {
  const auto perm = identity_perm(n);
  ComplexSystem base = permuted_dominant(rng, n, perm, true);
  if (kill && n > 1) base.a[1] = random_complex(rng);
  std::vector<ComplexSystem> batch;
  for (std::size_t l = 0; l < kLanes; ++l) {
    ComplexSystem sys = base;
    const double w = std::pow(10.0, static_cast<double>(l));
    for (auto& z : sys.a) z = {z.real(), w * z.imag()};
    batch.push_back(sys);
  }
  if (kill && n > 1) batch[0].a[1] = 0.0;
  return batch;
}

TEST(Mna, LaneSolveMatchesScalarBitwise) {
  Rng rng(14);
  for (std::size_t n = 1; n <= 16; ++n) {
    const std::string tag = " n=" + std::to_string(n);
    for (int trial = 0; trial < 8; ++trial) {
      // Dense and sparse, with the lanes' rows shuffled alike or apart.
      std::vector<ComplexSystem> batch;
      auto shared = identity_perm(n);
      rng.shuffle(shared);
      for (std::size_t l = 0; l < kLanes; ++l) {
        auto perm = shared;
        if (trial % 2 == 1) rng.shuffle(perm);
        batch.push_back(permuted_dominant(rng, n, perm, trial % 4 >= 2));
      }
      expect_lanes_match_scalar(batch, "random trial " +
                                           std::to_string(trial) + tag);
    }
    expect_lanes_match_scalar(mna_batch(rng, n, false), "sweep-like" + tag);
    expect_lanes_match_scalar(mna_batch(rng, n, true),
                              "sweep-like, lane 0 sparser" + tag);

    // One singular lane (a zero column) among solvable ones.
    for (std::size_t bad = 0; bad < kLanes; ++bad) {
      std::vector<ComplexSystem> batch;
      for (std::size_t l = 0; l < kLanes; ++l) {
        auto perm = identity_perm(n);
        rng.shuffle(perm);
        auto sys = permuted_dominant(rng, n, perm, l % 2 == 1);
        if (l == bad) {
          for (std::size_t r = 0; r < n; ++r) sys.a[r * n + perm[n - 1]] = 0.0;
        }
        batch.push_back(sys);
      }
      expect_lanes_match_scalar(batch,
                                "singular lane " + std::to_string(bad) + tag);
    }
  }
}

TEST(Mna, LaneSolveReportsDivergentPivots) {
  Rng rng(15);
  const std::size_t n = 6;
  std::vector<ComplexSystem> alike, apart;
  auto perm = identity_perm(n);
  rng.shuffle(perm);
  for (std::size_t l = 0; l < kLanes; ++l) {
    alike.push_back(permuted_dominant(rng, n, perm));
    std::vector<std::size_t> shifted(n);
    for (std::size_t i = 0; i < n; ++i) shifted[i] = (i + l) % n;
    apart.push_back(permuted_dominant(rng, n, shifted));
  }
  EXPECT_FALSE(solve_lanes(alike).pivots_split);
  EXPECT_TRUE(solve_lanes(apart).pivots_split);
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

TEST(Ac, LowestPointMatchesDcSlope) {
  // At 1 Hz the capacitors are open and the inductors shorted, so the
  // lowest AC point is the stage's small-signal gain at its DC point:
  // dVout/dVin, taken here as a central difference of two DC solves.
  struct Stage {
    const char* name;
    void (*add)(NetBuilder&);
  };
  const Stage stages[] = {
      {"common source",
       [](NetBuilder& b) {
         b.mos(DeviceKind::Nmos, "in", "out", "VSS");
         b.two(DeviceKind::Resistor, "VDD", "out");
       }},
      {"source follower",
       [](NetBuilder& b) {
         b.mos(DeviceKind::Nmos, "in", "VDD", "out");
         b.two(DeviceKind::Resistor, "out", "VSS");
       }},
      {"degenerated common source",
       [](NetBuilder& b) {
         b.mos(DeviceKind::Nmos, "in", "out", "src");
         b.two(DeviceKind::Resistor, "src", "VSS");
         b.two(DeviceKind::Resistor, "VDD", "out");
         b.two(DeviceKind::Capacitor, "out", "VSS");
       }},
      {"R-L into a resistor and a diode",
       [](NetBuilder& b) {
         b.two(DeviceKind::Resistor, "in", "mid");
         b.two(DeviceKind::Inductor, "mid", "out");
         b.two(DeviceKind::Resistor, "out", "VSS");
         b.two(DeviceKind::Diode, "out", "VSS");
       }},
      {"CMOS inverter",
       [](NetBuilder& b) {
         b.mos(DeviceKind::Nmos, "in", "out", "VSS");
         b.mos(DeviceKind::Pmos, "in", "out", "VDD");
       }},
  };
  constexpr double kDv = 1e-4;
  for (const Stage& stage : stages) {
    NetBuilder b;
    b.rails();
    b.io("in", IoPin::Vin1);
    b.io("out", IoPin::Vout1);
    stage.add(b);
    const Netlist nl = b.take();
    const Sizing sz = default_sizing(nl);
    const auto vout_at = [&](double vcm) {
      SimOptions opts;
      opts.vcm = vcm;
      Simulator sim(nl, sz, opts);
      EXPECT_TRUE(sim.solve_dc()) << stage.name << " at " << vcm;
      return sim.io_voltage(IoPin::Vout1);
    };
    const double vcm = SimOptions{}.vcm;
    const double slope =
        (vout_at(vcm + kDv) - vout_at(vcm - kDv)) / (2.0 * kDv);
    Simulator sim(nl, sz);
    ASSERT_TRUE(sim.solve_dc()) << stage.name;
    const std::complex<double> h = sim.ac_sweep().front().h;
    EXPECT_LE(std::abs(h - slope), 1e-4 * std::abs(slope))
        << stage.name << ": AC " << h << ", DC slope " << slope;
  }
}

TEST(Ac, SweepPointMatchesSameFrequencyAlone) {
  // A sweep solves its points kLanes at a time, point i in lane i % kLanes,
  // with a short last batch. Every point must be bitwise the point that a
  // two-point sweep starting at its frequency solves in lane 0.
  std::vector<int> counts;
  for (const std::size_t c : {std::size_t{2}, kLanes - 1, kLanes, kLanes + 1,
                              std::size_t{61}}) {
    if (c >= 2) counts.push_back(static_cast<int>(c));
  }
  Rng rng(21);
  for (int t = 0; t < eva::circuit::kNumCircuitTypes; ++t) {
    const auto type = static_cast<CircuitType>(t);
    if (type == CircuitType::PowerConverter) continue;  // no AC sweep
    int checked = 0;
    for (int attempt = 0; attempt < 20 && checked < 2; ++attempt) {
      const Netlist nl = eva::data::generate(type, rng);
      if (!structurally_valid(nl)) continue;
      std::vector<double> unit(nl.devices().size());
      for (double& u : unit) u = rng.uniform(0.0, 1.0);
      const Sizing sizing =
          checked == 0 ? default_sizing(nl) : sizing_from_unit(nl, unit);
      Simulator sim(nl, sizing);
      if (!sim.solve_dc()) continue;
      ++checked;
      for (const int points : counts) {
        const auto sweep = sim.ac_sweep(1.0, 1e10, points);
        ASSERT_EQ(sweep.size(), static_cast<std::size_t>(points));
        for (std::size_t i = 0; i < sweep.size(); ++i) {
          const double f = sweep[i].freq_hz;
          const AcPoint alone = sim.ac_sweep(f, 2.0 * f, 2).front();
          EXPECT_TRUE(same_bits(alone.freq_hz, f) &&
                      same_bits(alone.h.real(), sweep[i].h.real()) &&
                      same_bits(alone.h.imag(), sweep[i].h.imag()))
              << type_name(type) << " sizing " << checked
              << " points " << points << " point " << i << ": "
              << sweep[i].h << " vs " << alone.h;
        }
      }
    }
    EXPECT_EQ(checked, 2) << type_name(type);
  }
}

TEST(Ac, RepeatedGridKeepsFormulaBits) {
  // A thread keeps the last grid it swept: going to another grid and back,
  // or to one that differs in a single field, must recompute it, and every
  // frequency keeps the formula's bits.
  NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);
  b.io("out", IoPin::Vout1);
  b.two(DeviceKind::Resistor, "in", "out");
  b.two(DeviceKind::Capacitor, "out", "VSS");
  b.two(DeviceKind::Resistor, "VDD", "out");
  const Netlist nl = b.take();
  Simulator sim(nl, default_sizing(nl));
  ASSERT_TRUE(sim.solve_dc());
  struct Grid {
    double f_lo, f_hi;
    int points;
  };
  std::vector<std::vector<AcPoint>> sweeps;
  for (const Grid g : {Grid{1.0, 1e10, 61}, Grid{10.0, 1e6, 31},
                       Grid{1.0, 1e10, 61}, Grid{1.0, 1e6, 61},
                       Grid{10.0, 1e6, 61}, Grid{10.0, 1e6, 31}}) {
    sweeps.push_back(sim.ac_sweep(g.f_lo, g.f_hi, g.points));
    const auto& sweep = sweeps.back();
    ASSERT_EQ(sweep.size(), static_cast<std::size_t>(g.points));
    for (std::size_t pt = 0; pt < sweep.size(); ++pt) {
      const double f =
          g.f_lo * std::pow(g.f_hi / g.f_lo,
                            static_cast<double>(pt) /
                                static_cast<double>(g.points - 1));
      EXPECT_TRUE(same_bits(sweep[pt].freq_hz, f))
          << g.f_lo << ".." << g.f_hi << " point " << pt << ": "
          << sweep[pt].freq_hz << " vs " << f;
    }
  }
  for (std::size_t pt = 0; pt < sweeps[0].size(); ++pt) {
    EXPECT_TRUE(same_bits(sweeps[0][pt].h.real(), sweeps[2][pt].h.real()) &&
                same_bits(sweeps[0][pt].h.imag(), sweeps[2][pt].h.imag()))
        << "point " << pt;
  }
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

bool same_perf(const Performance& a, const Performance& b) {
  return a.ok == b.ok && same_bits(a.fom, b.fom) && same_bits(a.gain, b.gain) &&
         same_bits(a.gain_db, b.gain_db) && same_bits(a.bw_hz, b.bw_hz) &&
         same_bits(a.ugbw_hz, b.ugbw_hz) && same_bits(a.power_w, b.power_w) &&
         same_bits(a.ratio, b.ratio) && same_bits(a.efficiency, b.efficiency);
}

/// Sizings at the unit cube's center and corners plus random points.
std::vector<Sizing> sizings_for(const Netlist& nl, Rng& rng, std::size_t n) {
  const auto space = sizing_space(nl);
  std::vector<Sizing> out{default_sizing(nl),
                          sizing_from_unit(nl, std::vector<double>(space.size(), 0.0)),
                          sizing_from_unit(nl, std::vector<double>(space.size(), 1.0))};
  while (out.size() < n) {
    std::vector<double> u(space.size());
    for (double& x : u) x = rng.uniform();
    out.push_back(sizing_from_unit(nl, u));
  }
  return out;
}

TEST(Fom, PreparedEvaluatorRepeatsBitwise) {
  // One prepared circuit evaluated at A, B, then A again gives A's bits
  // both times, equal to a fresh evaluate: no state leaks between calls.
  Rng rng(31);
  for (int t = 0; t < eva::circuit::kNumCircuitTypes; ++t) {
    const auto type = static_cast<CircuitType>(t);
    const Netlist nl = eva::data::generate(type, rng);
    const auto sz = sizings_for(nl, rng, 4);
    const Evaluator ev(nl, type);
    for (std::size_t b = 1; b < sz.size(); ++b) {
      const Performance first = ev.evaluate(sz[0]);
      (void)ev.evaluate(sz[b]);
      const Performance again = ev.evaluate(sz[0]);
      EXPECT_TRUE(same_perf(first, again)) << type_name(type) << " B=" << b;
      EXPECT_TRUE(same_perf(first, evaluate(nl, sz[0], type)))
          << type_name(type) << " B=" << b;
    }
  }
}

TEST(Fom, BatchEvaluateMatchesSingleBitwise) {
  // A batch solves its DC points side by side; every result must be the
  // single-candidate evaluate's, whatever its place in the batch.
  Rng rng(32);
  const std::size_t sizes[] = {1, kLanes - 1, kLanes, kLanes + 1};
  for (int t = 0; t < eva::circuit::kNumCircuitTypes; ++t) {
    const auto type = static_cast<CircuitType>(t);
    const Netlist nl = eva::data::generate(type, rng);
    const auto pool = sizings_for(nl, rng, kLanes + 1);
    std::vector<Performance> want;
    for (const auto& s : pool) want.push_back(evaluate(nl, s, type));
    const Evaluator ev(nl, type);
    for (const std::size_t b : sizes) {
      for (std::size_t rot = 0; rot < pool.size(); ++rot) {
        std::vector<Sizing> batch;
        for (std::size_t j = 0; j < b; ++j) {
          batch.push_back(pool[(rot + j) % pool.size()]);
        }
        std::vector<Performance> got(b);
        ev.evaluate(batch, got);
        for (std::size_t j = 0; j < b; ++j) {
          EXPECT_TRUE(same_perf(got[j], want[(rot + j) % pool.size()]))
              << type_name(type) << " batch " << b << " rotation " << rot
              << " slot " << j << ": fom " << got[j].fom << " vs "
              << want[(rot + j) % pool.size()].fom;
        }
      }
    }
  }
}

TEST(Fom, StructurallyInvalidRunsNoSolve) {
  NetBuilder b;
  b.rails();
  b.io("out", IoPin::Vout1);
  b.two(DeviceKind::Resistor, "VDD", "out");  // VOUT has no path to VSS
  const Netlist nl = b.take();
  ASSERT_FALSE(structurally_valid(nl));
  const auto before = eva::obs::counter("spice.dc_solves").value();
  const Evaluator ev(nl, CircuitType::OpAmp);
  std::vector<Sizing> batch(3, default_sizing(nl));
  std::vector<Performance> got(3);
  ev.evaluate(batch, got);
  for (const auto& p : got) EXPECT_FALSE(p.ok);
  EXPECT_FALSE(evaluate(nl, default_sizing(nl), CircuitType::OpAmp).ok);
  EXPECT_EQ(eva::obs::counter("spice.dc_solves").value(), before);
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

TEST(Simulatable, MalformedPinsThrowError) {
  NetBuilder b;
  b.rails();
  b.io("out", IoPin::Vout1);
  b.two(DeviceKind::Resistor, "VDD", "out");
  b.two(DeviceKind::Resistor, "out", "VSS");
  const Netlist good = b.take();
  const Sizing sz = default_sizing(good);
  Netlist dangling = good;
  dangling.disconnect(dev_ref(1, two::N));
  EXPECT_THROW(Simulator(dangling, sz), eva::Error);
  // Netlist::connect checks neither the device nor the pin index.
  Netlist no_device = good;
  no_device.connect(0, dev_ref(2, 0));
  EXPECT_THROW(Simulator(no_device, sz), eva::Error);
  Netlist no_pin = good;
  no_pin.connect(0, dev_ref(0, 2));
  EXPECT_THROW(Simulator(no_pin, sz), eva::Error);
}

TEST(Simulatable, RejectsStructurallyInvalid) {
  Netlist nl;  // empty
  EXPECT_FALSE(simulatable(nl));
}

}  // namespace
