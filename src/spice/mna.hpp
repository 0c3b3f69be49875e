// Dense linear algebra for modified nodal analysis (MNA).
//
// Circuits in this project are small (tens of nets), so a dense LU with
// partial pivoting is the right tool — no sparse machinery needed. The
// generic solver is templated over the scalar; the Newton DC solve uses it
// at double. The AC solve uses lu_solve_lanes, a complex LU on separate
// real and imaginary planes that solves one sweep point per SIMD lane
// (DESIGN.md, "Mini-SPICE AC solve").
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// Systems lu_solve_lanes solves side by side: the doubles in one vector
/// register of the ISA the build targets. Wider vectors than the ISA has
/// would be split into several registers and lose to the scalar solve.
#if defined(__AVX512F__)
inline constexpr std::size_t kLanes = 8;
#elif defined(__AVX__)
inline constexpr std::size_t kLanes = 4;
#else
inline constexpr std::size_t kLanes = 2;
#endif

/// One double per lane. A GCC vector extension type, not an intrinsic:
/// arithmetic and comparisons act lane by lane, a scalar operand is
/// broadcast, `m ? x : y` selects per lane, and v[l] reads lane l.
using Lanes = double __attribute__((vector_size(kLanes * sizeof(double))));
/// Per-lane truth, as Lanes comparisons return it: -1 (all bits) or 0.
using LaneMask = decltype(Lanes{} < Lanes{});

/// `v` in every lane.
[[nodiscard]] inline Lanes splat(double v) {
  Lanes out{};
  for (std::size_t l = 0; l < kLanes; ++l) out[l] = v;
  return out;
}

namespace detail {
// Reductions over every lane, written without early exits so that the
// compiler folds them in log2(kLanes) vector steps.
[[nodiscard]] inline bool any(LaneMask m) {
  std::int64_t acc = 0;
  for (std::size_t l = 0; l < kLanes; ++l) acc |= m[l];
  return acc != 0;
}

[[nodiscard]] inline bool all(LaneMask m) {
  std::int64_t acc = -1;
  for (std::size_t l = 0; l < kLanes; ++l) acc &= m[l];
  return acc != 0;
}

/// |v| per lane: the sign bit cleared.
[[nodiscard]] inline Lanes abs(Lanes v) {
  return (Lanes)((LaneMask)v & INT64_MAX);
}

/// x + jy = (a + jb) / (c + jd) by Smith's method, the formula libgcc's
/// complex divide uses for operands in the normal range. Each lane takes
/// the branch the scalar formula takes for its own operands and evaluates
/// that branch's expressions, so it rounds as the scalar divide does:
///   |c| <  |d|: r = c/d, x = (a r + b) / (c r + d), y = (b r - a) / (c r + d)
///   otherwise:  r = d/c, x = (b r + a) / (d r + c), y = (b - a r) / (d r + c)
inline void complex_divide(Lanes a, Lanes b, Lanes c, Lanes d, Lanes& x,
                           Lanes& y) {
  const LaneMask d_big = abs(c) < abs(d);
  const Lanes ratio = d_big ? c / d : d / c;
  const Lanes denom = (d_big ? c : d) * ratio + (d_big ? d : c);
  x = ((d_big ? a : b) * ratio + (d_big ? b : a)) / denom;
  y = (d_big ? b * ratio - a : b - a * ratio) / denom;
}

/// Exchanges columns [from, n) of rows `x` and `y` in the lanes of `take`.
inline void swap_rows(Lanes* x, Lanes* y, std::size_t from, std::size_t n,
                      LaneMask take) {
  for (std::size_t c = from; c < n; ++c) {
    const Lanes t = x[c];
    x[c] = take ? y[c] : t;
    y[c] = take ? t : y[c];
  }
}
}  // namespace detail

/// kLanes complex square matrices of one size, lane-interleaved: entry
/// (r, c) of lane l's matrix is re[r * n + c][l] + j im[r * n + c][l].
struct LaneMatrix {
  explicit LaneMatrix(std::size_t size = 0)
      : n(size), re(size * size), im(size * size), cols(size), col_nz(size) {}
  std::size_t n;
  std::vector<Lanes> re, im;
  std::vector<std::size_t> cols;  // lu_solve_lanes' scratch
  std::vector<LaneMask> col_nz;   // ... and the lanes nonzero in each
};

/// kLanes complex vectors, lane-interleaved as LaneMatrix.
struct LaneVector {
  explicit LaneVector(std::size_t size = 0) : re(size), im(size) {}
  std::vector<Lanes> re, im;
};

/// What lu_solve_lanes found: the lanes that solved (a singular lane holds
/// zeros), and whether the lanes ever chose different pivot rows.
struct LaneSolve {
  LaneMask ok{};
  bool pivots_split = false;
};

/// Solves kLanes complex systems A x = b in place, one per lane: `b` is
/// overwritten by the solutions and `a` by scratch. Each lane does exactly
/// the operations, in the order, of a scalar partial-pivoting LU on split
/// real and imaginary planes (`lu_solve_split`, kept in the tests as the
/// reference), so each lane's solution is bitwise that scalar solve's
/// under the same compiler flags:
/// - pivot: the first row of the largest squared magnitude |p|^2, so no
///   hypot; a lane is singular when |p|^2 < 1e-36, lu_solve's |p| < 1e-18;
/// - rows are exchanged in all lanes at once when every lane chose the
///   same pivot row, lane by lane when they did not;
/// - a row update visits the columns where some lane's pivot row is
///   nonzero (MNA rows are sparse) and skips a row whose multiplier is
///   exactly zero in every lane; a lane whose own pivot-row entry or
///   multiplier is zero keeps its old value, as the scalar solve skips it;
/// - divisions use Smith's method, with no std::complex multiply (and its
///   NaN recovery branch) or divide (a library call);
/// - a singular lane is set to an identity with a zero right-hand side
///   from its failing column on, so it solves to zeros without moving the
///   other lanes, and is cleared in `ok`.
[[nodiscard]] inline LaneSolve lu_solve_lanes(LaneMatrix& a, LaneVector& b) {
  const std::size_t n = a.n;
  EVA_ASSERT(a.re.size() == n * n && a.im.size() == n * n &&
                 a.cols.size() == n && a.col_nz.size() == n &&
                 b.re.size() == n && b.im.size() == n,
             "lu_solve_lanes dimension mismatch");
  Lanes* ar = a.re.data();
  Lanes* ai = a.im.data();
  Lanes* br = b.re.data();
  Lanes* bi = b.im.data();
  const auto norm2 = [&](std::size_t r, std::size_t c) {
    return ar[r * n + c] * ar[r * n + c] + ai[r * n + c] * ai[r * n + c];
  };
  const auto row_index = [](std::size_t r) {
    return LaneMask{} + static_cast<std::int64_t>(r);
  };

  LaneSolve out;
  out.ok = LaneMask{} == 0;
  for (std::size_t col = 0; col < n; ++col) {
    Lanes best = norm2(col, col);
    LaneMask pivot = row_index(col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const Lanes m = norm2(r, col);
      const LaneMask larger = m > best;
      best = larger ? m : best;
      pivot = larger ? row_index(r) : pivot;
    }
    const LaneMask singular = best < 1e-36;
    if (detail::any(singular)) {
      out.ok &= ~singular;
      for (std::size_t r = 0; r < n; ++r) {
        br[r] = singular ? Lanes{} : br[r];
        bi[r] = singular ? Lanes{} : bi[r];
      }
      for (std::size_t r = col; r < n; ++r) {
        for (std::size_t c = col; c < n; ++c) {
          const Lanes diag = splat(r == c ? 1.0 : 0.0);
          ar[r * n + c] = singular ? diag : ar[r * n + c];
          ai[r * n + c] = singular ? Lanes{} : ai[r * n + c];
        }
      }
      pivot = singular ? row_index(col) : pivot;
    }
    // Columns left of `col` are never read again, so swaps skip them.
    // Nearly every column has all lanes on one pivot row, where a plain
    // exchange beats the masked one (DESIGN.md §6, "Mini-SPICE AC solve").
    if (detail::all(pivot == pivot[0])) {
      const auto p = static_cast<std::size_t>(pivot[0]);
      if (p != col) {
        std::swap_ranges(ar + col * n + col, ar + col * n + n,
                         ar + p * n + col);
        std::swap_ranges(ai + col * n + col, ai + col * n + n,
                         ai + p * n + col);
        std::swap(br[col], br[p]);
        std::swap(bi[col], bi[p]);
      }
    } else {
      out.pivots_split = true;
      for (std::size_t r = col + 1; r < n; ++r) {
        const LaneMask take = pivot == row_index(r);
        if (!detail::any(take)) continue;
        detail::swap_rows(ar + col * n, ar + r * n, col, n, take);
        detail::swap_rows(ai + col * n, ai + r * n, col, n, take);
        detail::swap_rows(br + col, br + r, 0, 1, take);
        detail::swap_rows(bi + col, bi + r, 0, 1, take);
      }
    }
    const Lanes* pr = ar + col * n;
    const Lanes* pi = ai + col * n;
    Lanes inv_re{}, inv_im{};
    detail::complex_divide(splat(1.0), Lanes{}, pr[col], pi[col], inv_re,
                           inv_im);
    std::size_t nnz = 0;  // columns right of the pivot nonzero in some lane
    for (std::size_t c = col + 1; c < n; ++c) {
      const LaneMask nz = (pr[c] != 0.0) | (pi[c] != 0.0);
      if (!detail::any(nz)) continue;
      a.cols[nnz] = c;
      a.col_nz[nnz++] = nz;
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      Lanes* rr = ar + r * n;
      Lanes* ri = ai + r * n;
      const Lanes fr = rr[col] * inv_re - ri[col] * inv_im;
      const Lanes fi = rr[col] * inv_im + ri[col] * inv_re;
      const LaneMask live = (fr != 0.0) | (fi != 0.0);
      if (!detail::any(live)) continue;
      for (std::size_t k = 0; k < nnz; ++k) {
        const std::size_t c = a.cols[k];
        const LaneMask upd = live & a.col_nz[k];
        rr[c] = upd ? rr[c] - (fr * pr[c] - fi * pi[c]) : rr[c];
        ri[c] = upd ? ri[c] - (fr * pi[c] + fi * pr[c]) : ri[c];
      }
      br[r] = live ? br[r] - (fr * br[col] - fi * bi[col]) : br[r];
      bi[r] = live ? bi[r] - (fr * bi[col] + fi * br[col]) : bi[r];
    }
  }
  for (std::size_t r = n; r-- > 0;) {
    const Lanes* rr = ar + r * n;
    const Lanes* ri = ai + r * n;
    Lanes acc_re = br[r];
    Lanes acc_im = bi[r];
    for (std::size_t c = r + 1; c < n; ++c) {
      acc_re -= rr[c] * br[c] - ri[c] * bi[c];
      acc_im -= rr[c] * bi[c] + ri[c] * br[c];
    }
    detail::complex_divide(acc_re, acc_im, rr[r], ri[r], br[r], bi[r]);
  }
  return out;
}

}  // namespace eva::spice
