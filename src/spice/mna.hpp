// Dense linear algebra for modified nodal analysis (MNA).
//
// Circuits in this project are small (tens of nets), so a dense LU with
// partial pivoting is the right tool — no sparse machinery needed. Both
// solvers run one system per SIMD lane and share their pivot, exchange
// and zero-skip machinery: the AC solve's complex lu_solve_lanes solves
// one sweep point per lane on separate real and imaginary planes
// (DESIGN.md §6, "Mini-SPICE AC solve"), and the Newton DC solve's real
// one solves one candidate sizing per lane ("Mini-SPICE DC solve").
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
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

namespace detail {
template <std::size_t W>
struct LaneType;
/// One system: a plain double, so width 1 compiles to scalar code.
template <>
struct LaneType<1> {
  using type = double;
};
template <>
struct LaneType<kLanes> {
  using type = double __attribute__((vector_size(kLanes * sizeof(double))));
};
}  // namespace detail

/// W doubles side by side, W = 1 or kLanes. At kLanes a GCC vector
/// extension type, not an intrinsic: arithmetic and comparisons act lane
/// by lane, a scalar operand is broadcast, and `m ? x : y` selects per
/// lane. At width 1 a double, so the same source solves one system as
/// scalar code.
template <std::size_t W>
using LanesOf = typename detail::LaneType<W>::type;
/// Per-lane truth, as LanesOf<W> comparisons return it: -1 (all bits) or 0
/// per lane, or a bool at width 1.
template <std::size_t W>
using MaskOf = decltype(LanesOf<W>{} < LanesOf<W>{});

using Lanes = LanesOf<kLanes>;
using LaneMask = MaskOf<kLanes>;

/// `v` in every lane.
[[nodiscard]] inline Lanes splat(double v) {
  Lanes out{};
  for (std::size_t l = 0; l < kLanes; ++l) out[l] = v;
  return out;
}

namespace detail {
/// True for the width-1 types: double, bool and a pivot row index.
template <class T>
inline constexpr bool one_lane = std::is_arithmetic_v<T>;

/// Lanes in a value, mask or pivot type.
template <class T>
inline constexpr std::size_t width_of =
    one_lane<T> ? 1 : sizeof(T) / sizeof(double);

/// Lane l of a vector, or the value itself at width 1.
template <class T>
[[nodiscard]] inline decltype(auto) lane(T& x, std::size_t l) {
  if constexpr (one_lane<std::remove_const_t<T>>) {
    (void)l;
    return (x);
  } else {
    return (x[l]);
  }
}

/// Pivot row per lane: the mask's integer vector, or one index.
template <class V>
using PivotOf =
    std::conditional_t<one_lane<V>, std::int64_t, decltype(V{} < V{})>;

// Reductions over every lane, written without early exits so that the
// compiler folds them in log2(kLanes) vector steps.
template <class M>
[[nodiscard]] inline bool any(M m) {
  if constexpr (one_lane<M>) {
    return m;
  } else {
    std::int64_t acc = 0;
    for (std::size_t l = 0; l < width_of<M>; ++l) acc |= m[l];
    return acc != 0;
  }
}

template <class M>
[[nodiscard]] inline bool all(M m) {
  if constexpr (one_lane<M>) {
    return m;
  } else {
    std::int64_t acc = -1;
    for (std::size_t l = 0; l < width_of<M>; ++l) acc &= m[l];
    return acc != 0;
  }
}

/// The lanes outside `m`.
template <class M>
[[nodiscard]] inline M none_of(M m) {
  if constexpr (one_lane<M>) {
    return !m;
  } else {
    return ~m;
  }
}

/// |v| per lane: the sign bit cleared.
template <class V>
[[nodiscard]] inline V abs(V v) {
  if constexpr (one_lane<V>) {
    return std::abs(v);
  } else {
    using M = decltype(v < v);
    return (V)((M)v & INT64_MAX);
  }
}

/// `v` in every lane of a V.
// GCC 12 reports `out` as maybe uninitialized wherever this inlines into the
// lane solver, a false positive on lane-by-lane writes into a
// value-initialized vector; the warning is off for this function alone.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
template <class V>
[[nodiscard]] inline V broadcast(double v) {
  V out{};
  for (std::size_t l = 0; l < width_of<V>; ++l) lane(out, l) = v;
  return out;
}
#pragma GCC diagnostic pop

/// Row index `r` in every lane of a pivot.
template <class P>
[[nodiscard]] inline P row_index(std::size_t r) {
  return P{} + static_cast<std::int64_t>(r);
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
template <class V, class M>
inline void swap_rows(V* x, V* y, std::size_t from, std::size_t n, M take) {
  for (std::size_t c = from; c < n; ++c) {
    const V t = x[c];
    x[c] = take ? y[c] : t;
    y[c] = take ? t : y[c];
  }
}

/// The lane LUs' systems as planes of lane-interleaved row-major entries:
/// one plane for a real system, a real and an imaginary one for a complex
/// system. The pivot machinery below moves and selects entries but does
/// no arithmetic on them, so both solvers share it whatever their files'
/// floating-point contraction.
template <class V, std::size_t P>
struct Planes {
  std::size_t n = 0;
  std::array<V*, P> a{};  // n x n each
  std::array<V*, P> b{};  // n each
};

/// The first row, from `col` down, of the largest magnitude mag(r) per
/// lane (strict `>`, as the scalar scan); `best` receives that magnitude.
template <class V, class Mag>
[[nodiscard]] inline PivotOf<V> pick_pivot(std::size_t col, std::size_t n,
                                           Mag mag, V& best) {
  best = mag(col);
  PivotOf<V> pivot = row_index<PivotOf<V>>(col);
  for (std::size_t r = col + 1; r < n; ++r) {
    const V m = mag(r);
    const auto larger = m > best;
    best = larger ? m : best;
    pivot = larger ? row_index<PivotOf<V>>(r) : pivot;
  }
  return pivot;
}

/// Settles column `col`'s pivot for every lane. Lanes in `singular` are
/// set, from the failing column on, to an identity with a zero right-hand
/// side, so they solve to zeros without moving the other lanes. Then the
/// pivot rows are exchanged with row `col`: in all lanes at once when
/// every lane chose the same row, lane by lane when they did not (the
/// return value). Columns left of `col` are never read again, so swaps
/// skip them; nearly every column has all lanes on one pivot row, where a
/// plain exchange beats the masked one (DESIGN.md §6, "Mini-SPICE AC
/// solve").
template <class V, std::size_t P, class M>
inline bool exchange_pivot_rows(const Planes<V, P>& p, std::size_t col,
                                PivotOf<V> pivot, M singular) {
  const std::size_t n = p.n;
  if (any(singular)) {
    for (std::size_t k = 0; k < P; ++k) {
      for (std::size_t r = 0; r < n; ++r) {
        p.b[k][r] = singular ? V{} : p.b[k][r];
      }
      for (std::size_t r = col; r < n; ++r) {
        for (std::size_t c = col; c < n; ++c) {
          const V diag = broadcast<V>(k == 0 && r == c ? 1.0 : 0.0);
          p.a[k][r * n + c] = singular ? diag : p.a[k][r * n + c];
        }
      }
    }
    pivot = singular ? row_index<PivotOf<V>>(col) : pivot;
  }
  if (all(pivot == lane(pivot, 0))) {
    const auto r = static_cast<std::size_t>(lane(pivot, 0));
    if (r != col) {
      for (std::size_t k = 0; k < P; ++k) {
        std::swap_ranges(p.a[k] + col * n + col, p.a[k] + col * n + n,
                         p.a[k] + r * n + col);
        std::swap(p.b[k][col], p.b[k][r]);
      }
    }
    return false;
  }
  for (std::size_t r = col + 1; r < n; ++r) {
    const auto take = pivot == row_index<PivotOf<V>>(r);
    if (!any(take)) continue;
    for (std::size_t k = 0; k < P; ++k) {
      swap_rows(p.a[k] + col * n, p.a[k] + r * n, col, n, take);
      swap_rows(p.b[k] + col, p.b[k] + r, 0, 1, take);
    }
  }
  return true;
}

/// The columns right of `col` where the pivot row is nonzero in some lane
/// (MNA rows are sparse), each with the lanes nonzero in it; returns their
/// count. A row update visits only these, and a lane whose own pivot-row
/// entry is zero keeps its old value there, as the scalar solve skips it.
template <class V, std::size_t P, class M>
[[nodiscard]] inline std::size_t nonzero_columns(const Planes<V, P>& p,
                                                 std::size_t col,
                                                 std::size_t* cols,
                                                 M* col_nz) {
  const std::size_t n = p.n;
  std::size_t nnz = 0;
  for (std::size_t c = col + 1; c < n; ++c) {
    M nz = p.a[0][col * n + c] != 0.0;
    for (std::size_t k = 1; k < P; ++k) nz |= p.a[k][col * n + c] != 0.0;
    if (!any(nz)) continue;
    cols[nnz] = c;
    col_nz[nnz++] = nz;
  }
  return nnz;
}
}  // namespace detail

/// W real square systems of one size, lane-interleaved: entry (r, c) of
/// lane l's matrix is a[r * n + c][l], and its right-hand side b[r][l].
template <std::size_t W>
struct RealLaneSystem {
  explicit RealLaneSystem(std::size_t size = 0)
      : n(size),
        a(size * size),
        b(size),
        cols(size),
        col_nz(std::make_unique<MaskOf<W>[]>(size)) {}
  std::size_t n;
  std::vector<LanesOf<W>> a, b;
  std::vector<std::size_t> cols;   // lu_solve_lanes' scratch
  std::unique_ptr<MaskOf<W>[]> col_nz;  // ... and the lanes nonzero in each
};

/// Solves W real systems A x = b in place, one per lane, and returns the
/// lanes that solved (a singular lane holds zeros): `b` is overwritten by
/// the solutions and `a` by scratch. Each lane does exactly the operations,
/// in order, of the scalar partial-pivoting LU the tests keep as the
/// reference (`reference::lu_solve`, tests/dc_reference.hpp): the pivot is
/// the first row of the largest |a|, singular below 1e-18; pivots are
/// settled and rows updated as lu_solve_lanes' complex solve does, with the
/// multiplier a(r, col) * (1 / pivot); the back-substitution rounds each
/// subtract on its own. Defined for W = 1 and kLanes in spice/newton.cpp
/// (DESIGN.md §6, "Mini-SPICE DC solve").
template <std::size_t W>
[[nodiscard]] MaskOf<W> lu_solve_lanes(RealLaneSystem<W>& s);

extern template MaskOf<1> lu_solve_lanes(RealLaneSystem<1>& s);
extern template MaskOf<kLanes> lu_solve_lanes(RealLaneSystem<kLanes>& s);

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
  const detail::Planes<Lanes, 2> planes{n, {ar, ai}, {br, bi}};

  LaneSolve out;
  out.ok = LaneMask{} == 0;
  for (std::size_t col = 0; col < n; ++col) {
    Lanes best{};
    const LaneMask pivot = detail::pick_pivot(
        col, n,
        [&](std::size_t r) {
          const std::size_t i = r * n + col;
          return ar[i] * ar[i] + ai[i] * ai[i];
        },
        best);
    const LaneMask singular = best < 1e-36;
    out.ok &= ~singular;
    out.pivots_split |=
        detail::exchange_pivot_rows(planes, col, pivot, singular);
    const Lanes* pr = ar + col * n;
    const Lanes* pi = ai + col * n;
    Lanes inv_re{}, inv_im{};
    detail::complex_divide(splat(1.0), Lanes{}, pr[col], pi[col], inv_re,
                           inv_im);
    const std::size_t nnz =
        detail::nonzero_columns(planes, col, a.cols.data(), a.col_nz.data());
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
