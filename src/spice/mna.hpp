// Dense linear algebra for modified nodal analysis (MNA).
//
// Circuits in this project are small (tens of nets), so a dense LU with
// partial pivoting is the right tool — no sparse machinery needed. The
// generic solver is templated over the scalar; the Newton DC solve uses it
// at double. The AC solve uses lu_solve_split, a complex LU on separate
// real and imaginary planes (DESIGN.md, "Mini-SPICE AC solve").
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "util/error.hpp"

namespace eva::spice {

/// Dense square matrix with row-major storage.
template <typename Scalar>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(std::size_t n) : n_(n), a_(n * n, Scalar{}) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  Scalar& at(std::size_t r, std::size_t c) { return a_[r * n_ + c]; }
  [[nodiscard]] const Scalar& at(std::size_t r, std::size_t c) const {
    return a_[r * n_ + c];
  }
  [[nodiscard]] const std::vector<Scalar>& data() const { return a_; }
  void clear() { std::fill(a_.begin(), a_.end(), Scalar{}); }

 private:
  std::size_t n_ = 0;
  std::vector<Scalar> a_;
};

/// Solve A x = b in place via LU with partial pivoting: `a` is overwritten
/// by its factors and `b` by the solution x.
/// Returns false if the matrix is numerically singular.
template <typename Scalar>
[[nodiscard]] bool lu_solve(DenseMatrix<Scalar>& a, std::vector<Scalar>& b) {
  const std::size_t n = a.size();
  EVA_ASSERT(b.size() == n, "lu_solve dimension mismatch");

  for (std::size_t col = 0; col < n; ++col) {
    // Pivot selection.
    std::size_t pivot = col;
    double best = std::abs(a.at(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double m = std::abs(a.at(r, col));
      if (m > best) {
        best = m;
        pivot = r;
      }
    }
    if (best < 1e-18) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a.at(col, c), a.at(pivot, c));
      }
      std::swap(b[col], b[pivot]);
    }
    // Eliminate below.
    const Scalar inv = Scalar{1} / a.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const Scalar f = a.at(r, col) * inv;
      if (f == Scalar{}) continue;
      a.at(r, col) = Scalar{};
      for (std::size_t c = col + 1; c < n; ++c) {
        a.at(r, c) -= f * a.at(col, c);
      }
      b[r] -= f * b[col];
    }
  }
  // Back substitution.
  for (std::size_t ri = n; ri-- > 0;) {
    Scalar acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a.at(ri, c) * b[c];
    b[ri] = acc / a.at(ri, ri);
  }
  return true;
}

namespace detail {
/// x + jy = (a + jb) / (c + jd) by Smith's method, the formula libgcc's
/// complex divide uses for operands in the normal range. Unlike
/// conj(p)/|p|^2, it divides by a near-real p the way std::complex does,
/// in one rounding (a/c), so the split solver often matches it bitwise.
inline void complex_divide(double a, double b, double c, double d,
                           double& x, double& y) {
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
}  // namespace detail

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

/// Complex A x = b in place, by the same LU as lu_solve, on split planes
/// in explicit real arithmetic: no std::complex multiply (with its NaN
/// recovery branch) or divide (a library call). The pivot is the largest
/// squared magnitude, so no hypot either; the singular threshold is
/// lu_solve's |p| < 1e-18 as |p|^2 < 1e-36. Row updates visit only the
/// columns where the pivot row is nonzero (MNA rows are sparse), which
/// skips exact no-ops. Agrees with lu_solve<std::complex<double>> to
/// rounding, and often bitwise.
[[nodiscard]] inline bool lu_solve_split(SplitMatrix& a, SplitVector& b) {
  const std::size_t n = a.n;
  EVA_ASSERT(a.re.size() == n * n && a.im.size() == n * n &&
                 a.cols.size() == n && b.re.size() == n && b.im.size() == n,
             "lu_solve_split dimension mismatch");
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
    detail::complex_divide(1.0, 0.0, pr[col], pi[col], inv_re, inv_im);
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
    detail::complex_divide(acc_re, acc_im, rr[r], ri[r], br[r], bi[r]);
  }
  return true;
}

}  // namespace eva::spice
