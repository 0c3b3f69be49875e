// The scalar Newton DC solve and dense LU that Mini-SPICE's lane solver
// must equal bit for bit (DESIGN.md §6, "Mini-SPICE DC solve").
//
// This is the solver the library ran before the DC solve went into SIMD
// lanes: one candidate, one double per unknown. It and src/spice/newton.cpp
// are compiled with -ffp-contract=off, and each writes the multiply-adds
// that solver had fused as explicit fused() calls, so both round every
// operation alike on every build.
#pragma once

#include <complex>
#include <vector>

#include "spice/engine.hpp"
#include "spice/mna.hpp"

namespace eva::spice::reference {

/// Solve A x = b in place via LU with partial pivoting: `a` is overwritten
/// by its factors and `b` by the solution x. Returns false if the matrix
/// is numerically singular (the largest pivot candidate below 1e-18). A
/// row update skips the row when its multiplier is exactly zero, and the
/// columns where the pivot row is exactly zero; eliminations are fused
/// multiply-adds on FMA targets, back-substitution subtracts are not.
/// Instantiated for double and std::complex<double>.
template <typename Scalar>
[[nodiscard]] bool lu_solve(DenseMatrix<Scalar>& a, std::vector<Scalar>& b);

/// Newton DC solve of one sizing (one value per device), with the source-
/// stepping fallback: the scalar form of solve_dc_batch, without its
/// metrics or fault site.
[[nodiscard]] DcPoint solve_dc(const PreparedCircuit& circuit,
                               const std::vector<double>& size,
                               const SimOptions& opts);

/// Kirchhoff's current law at `v` by the same stamps, one entry per
/// unknown: the residual A(v) v - rhs(v) (the current each node leaks, and
/// each source's voltage error), sum_j |A_ij| and the magnitude of the
/// residual's terms, sum_j |A_ij v_j| + |rhs_i|.
struct Kcl {
  std::vector<double> residual, conductance, magnitude;
};
[[nodiscard]] Kcl kcl_residual(const PreparedCircuit& circuit,
                               const std::vector<double>& size,
                               const SimOptions& opts,
                               const std::vector<double>& v);

}  // namespace eva::spice::reference
