// The scalar reference for Mini-SPICE's lane Newton; see dc_reference.hpp.
// Compiled with -ffp-contract=off (tests/CMakeLists.txt): every operation
// rounds as written, and fused() marks the multiply-adds GCC 12 fused when
// it compiled this solver with contraction, on targets with FMA.
#include "dc_reference.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <type_traits>

namespace eva::spice::reference {

using circuit::DeviceKind;
using namespace model;

namespace {

/// a·b + c, rounded once where the target has FMA and twice where it has
/// not. std::complex (the oracle tests' scalar) is never fused.
template <typename Scalar>
Scalar fused(Scalar a, Scalar b, Scalar c) {
#if defined(__FMA__)
  if constexpr (std::is_same_v<Scalar, double>) return __builtin_fma(a, b, c);
#endif
  return a * b + c;
}

/// Current into the drain of an NMOS-like device plus its partials with
/// respect to the gate/drain/source node voltages.
struct MosEval {
  double id = 0.0;
  double gg = 0.0, gd = 0.0, gs = 0.0;
};

void nmos_core(double vgs, double vds, double k, double vth, double& id,
               double& gm, double& go) {
  const double vov = vgs - vth;
  if (vov <= 0.0) {
    id = 0.0;
    gm = 0.0;
    go = 0.0;
    return;
  }
  const double clm = fused(vds, kLambda, 1.0);  // 1 + lambda vds
  if (vds < vov) {  // triode
    const double kq = k * fused(vov, vds, -(0.5 * vds * vds));
    id = kq * clm;
    gm = k * vds * clm;
    go = fused(k * (vov - vds), clm, kq * kLambda);
  } else {  // saturation
    id = 0.5 * k * vov * vov * clm;
    gm = k * vov * clm;
    go = 0.5 * k * vov * vov * kLambda;
  }
}

MosEval eval_nmos_like(double vg, double vd, double vs, double k, double vth) {
  MosEval e;
  if (vd >= vs) {
    double id = 0, gm = 0, go = 0;
    nmos_core(vg - vs, vd - vs, k, vth, id, gm, go);
    e.id = id;
    e.gg = gm;
    e.gd = go;
    e.gs = -(gm + go);
  } else {
    // Conduction with drain/source roles swapped.
    double id = 0, gm = 0, go = 0;
    nmos_core(vg - vd, vs - vd, k, vth, id, gm, go);
    e.id = -id;
    e.gg = -gm;
    e.gd = gm + go;
    e.gs = -go;
  }
  return e;
}

MosEval eval_mos(double vg, double vd, double vs, double width, bool pmos) {
  const double wl = width / kMosL;
  if (!pmos) return eval_nmos_like(vg, vd, vs, kKpN * wl, kVthN);
  MosEval e = eval_nmos_like(-vg, -vd, -vs, kKpP * wl, kVthP);
  e.id = -e.id;
  return e;
}

/// Diode current A->K and conductance, with exponent clamping.
void eval_diode(double v, double area, double& id, double& g) {
  const double x = std::clamp(v / kVt, -60.0, 40.0);
  const double ex = std::exp(x);
  id = kDiodeIs * area * (ex - 1.0);
  g = kDiodeIs * area * ex / kVt;
  if (x >= 40.0) {
    // Linear continuation beyond the clamp keeps Newton bounded.
    id = fused(g, v - 40.0 * kVt, id);
  }
}

struct BjtEval {
  double ic = 0.0, ibe = 0.0;
  double gm = 0.0, go = 0.0, gbe = 0.0;
};

BjtEval eval_bjt(double vb, double vc, double ve, double area, bool pnp,
                 double gmin) {
  const double sign = pnp ? -1.0 : 1.0;
  const double vbe = sign * (vb - ve);
  const double vce = sign * (vc - ve);
  BjtEval e;
  eval_diode(vbe, area / kBjtBeta, e.ibe, e.gbe);
  const double early = 1.0 + std::max(vce, 0.0) / kBjtVa;
  e.ic = kBjtBeta * e.ibe * early;
  e.gm = kBjtBeta * e.gbe * early;
  e.go = vce > 0.0 ? kBjtBeta * e.ibe / kBjtVa : gmin;
  return e;
}

/// Conductance g between nodes na and nb (either may be ground, -1).
void stamp_g(DenseMatrix<double>& a, int na, int nb, double g) {
  const auto u = [](int n) { return static_cast<std::size_t>(n); };
  if (na >= 0) a.at(u(na), u(na)) += g;
  if (nb >= 0) a.at(u(nb), u(nb)) += g;
  if (na >= 0 && nb >= 0) {
    a.at(u(na), u(nb)) -= g;
    a.at(u(nb), u(na)) -= g;
  }
}

void stamp_partial(DenseMatrix<double>& a, int row, int col, double g) {
  if (row >= 0 && col >= 0) {
    a.at(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += g;
  }
}

void stamp_mos(DenseMatrix<double>& a, int nd, int ng, int ns,
               const MosEval& e) {
  stamp_partial(a, nd, ng, e.gg);
  stamp_partial(a, nd, nd, e.gd);
  stamp_partial(a, nd, ns, e.gs);
  stamp_partial(a, ns, ng, -e.gg);
  stamp_partial(a, ns, nd, -e.gd);
  stamp_partial(a, ns, ns, -e.gs);
}

void stamp_bjt(DenseMatrix<double>& a, int nc, int nb, int ne,
               const BjtEval& e) {
  stamp_partial(a, nc, nb, e.gm);
  stamp_partial(a, nc, ne, -e.gm - e.go);
  stamp_partial(a, nc, nc, e.go);
  stamp_partial(a, nb, nb, e.gbe);
  stamp_partial(a, nb, ne, -e.gbe);
  stamp_partial(a, ne, nb, -e.gm - e.gbe);
  stamp_partial(a, ne, ne, e.gm + e.go + e.gbe);
  stamp_partial(a, ne, nc, -e.go);
}

/// The linearised MNA system at v: A(v) x = rhs(v) is one Newton step.
void stamp_dc(const PreparedCircuit& c, const std::vector<double>& size,
              const SimOptions& opts, DenseMatrix<double>& a,
              std::vector<double>& rhs, const std::vector<double>& v,
              double source_scale) {
  const auto K = static_cast<std::size_t>(c.num_nodes);
  auto volt = [&](int n) {
    return n < 0 ? 0.0 : v[static_cast<std::size_t>(n)];
  };
  auto stamp_current = [&](int node, double current_into) {
    if (node >= 0) rhs[static_cast<std::size_t>(node)] += current_into;
  };

  for (std::size_t n = 0; n < K; ++n) a.at(n, n) += opts.gmin;

  for (std::size_t i = 0; i < c.devices.size(); ++i) {
    const auto& d = c.devices[i];
    switch (d.kind) {
      case DeviceKind::Resistor:
        stamp_g(a, d.n[0], d.n[1], 1.0 / std::max(size[i], 1e-3));
        break;
      case DeviceKind::Capacitor:
        stamp_g(a, d.n[0], d.n[1], opts.gmin);
        break;
      case DeviceKind::Inductor:
        stamp_g(a, d.n[0], d.n[1], 1.0 / kIndDcRes);
        break;
      case DeviceKind::Diode: {
        const double vv = volt(d.n[0]) - volt(d.n[1]);
        double id = 0, g = 0;
        eval_diode(vv, size[i], id, g);
        stamp_g(a, d.n[0], d.n[1], g);
        const double ieq = fused(-g, vv, id);
        stamp_current(d.n[0], -ieq);
        stamp_current(d.n[1], ieq);
        break;
      }
      case DeviceKind::Nmos:
      case DeviceKind::Pmos: {
        if (opts.converter_mode && d.clk_gate) {
          const bool on = d.clk_is_phase1 == opts.phase_a;
          stamp_g(a, d.n[circuit::mos::D], d.n[circuit::mos::S],
                  1.0 / (on ? kSwitchOn : kSwitchOff));
          break;
        }
        const int ng = d.n[circuit::mos::G];
        const int nd = d.n[circuit::mos::D];
        const int ns = d.n[circuit::mos::S];
        const MosEval e = eval_mos(volt(ng), volt(nd), volt(ns), size[i],
                                   d.kind == DeviceKind::Pmos);
        stamp_mos(a, nd, ng, ns, e);
        const double ieq =
            fused(-e.gs, volt(ns),
                  fused(-e.gd, volt(nd), fused(-e.gg, volt(ng), e.id)));
        stamp_current(nd, -ieq);
        stamp_current(ns, ieq);
        stamp_g(a, nd, ns, opts.gmin);
        break;
      }
      case DeviceKind::Npn:
      case DeviceKind::Pnp: {
        const int nc = d.n[circuit::bjt::C];
        const int nb = d.n[circuit::bjt::B];
        const int ne = d.n[circuit::bjt::E];
        const double sign = d.kind == DeviceKind::Pnp ? -1.0 : 1.0;
        const BjtEval e = eval_bjt(volt(nb), volt(nc), volt(ne), size[i],
                                   d.kind == DeviceKind::Pnp, opts.gmin);
        stamp_bjt(a, nc, nb, ne, e);
        const double ic_eq =
            fused(-e.go, volt(nc) - volt(ne),
                  fused(-e.gm, volt(nb) - volt(ne), sign * e.ic));
        const double ib_eq = sign * e.ibe - e.gbe * (volt(nb) - volt(ne));
        stamp_current(nc, -ic_eq);
        stamp_current(nb, -ib_eq);
        stamp_current(ne, ic_eq + ib_eq);
        break;
      }
    }
  }

  if (opts.converter_mode && !c.out_nodes.empty()) {
    stamp_g(a, c.out_nodes.front(), -1, 1.0 / opts.load_res);
  }
  for (const auto& [n, sign] : c.iref_nodes) {
    if (n >= 0) {
      double& r = rhs[static_cast<std::size_t>(n)];
      r = fused(sign * opts.iref, source_scale, r);
    }
  }
  for (std::size_t s = 0; s < c.sources.size(); ++s) {
    const std::size_t br = K + s;
    const int n = c.sources[s].node;
    if (n >= 0) {
      a.at(static_cast<std::size_t>(n), br) += 1.0;
      a.at(br, static_cast<std::size_t>(n)) += 1.0;
    }
    rhs[br] = PreparedCircuit::source_dc(c.sources[s], opts) * source_scale;
  }
}

/// One Newton solve: attempts, the deadline and the result trail.
class Newton {
 public:
  Newton(const PreparedCircuit& c, const std::vector<double>& size,
         const SimOptions& opts)
      : c_(c), size_(size), opts_(opts), v_(c.num_unknowns(), 0.0) {}

  DcPoint solve() {
    deadline_armed_ = opts_.dc_deadline_ms > 0.0;
    if (deadline_armed_) {
      using Clock = std::chrono::steady_clock;
      deadline_ = Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          opts_.dc_deadline_ms));
    }
    bool converged = false;
    if (attempt(1.0)) {
      converged = true;
    } else if (!res_.deadline_exceeded) {
      // Source stepping: ramp supplies from v = 0, reusing each stage's
      // solution as the next one's guess.
      res_.used_source_stepping = true;
      std::fill(v_.begin(), v_.end(), 0.0);
      converged = true;
      for (double scale = 0.1; scale <= 1.0001; scale += 0.1) {
        if (!attempt(scale)) {
          converged = false;
          break;
        }
      }
    }
    res_.converged = converged;
    DcPoint out;
    out.result = res_;
    out.v = converged ? v_ : std::vector<double>(v_.size(), 0.0);
    return out;
  }

 private:
  bool attempt(double scale) {
    if (++attempts_ > opts_.max_dc_attempts) {
      res_.deadline_exceeded = true;
      ++res_.failed_attempts;
      return false;
    }
    return newton(scale);
  }

  bool newton(double source_scale) {
    const std::size_t total = c_.num_unknowns();
    const auto K = static_cast<std::size_t>(c_.num_nodes);
    DenseMatrix<double> a(total);
    std::vector<double> x(total);
    for (int iter = 0; iter < opts_.max_newton_iter; ++iter) {
      if (deadline_armed_ && !(std::chrono::steady_clock::now() < deadline_)) {
        res_.deadline_exceeded = true;
        ++res_.failed_attempts;
        return false;
      }
      ++res_.iterations;
      a.clear();
      std::fill(x.begin(), x.end(), 0.0);
      stamp_dc(c_, size_, opts_, a, x, v_, source_scale);
      if (!lu_solve(a, x)) {
        ++res_.failed_attempts;
        return false;
      }
      double max_dv = 0.0;
      for (std::size_t n = 0; n < K; ++n) {
        double dv = x[n] - v_[n];
        max_dv = std::max(max_dv, std::abs(dv));
        dv = std::clamp(dv, -opts_.max_step, opts_.max_step);
        v_[n] += dv;
      }
      for (std::size_t b = K; b < total; ++b) v_[b] = x[b];
      if (max_dv < opts_.newton_tol) return true;
    }
    ++res_.failed_attempts;
    return false;
  }

  const PreparedCircuit& c_;
  const std::vector<double>& size_;
  const SimOptions& opts_;
  std::vector<double> v_;
  SolveResult res_;
  int attempts_ = 0;
  bool deadline_armed_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace

template <typename Scalar>
bool lu_solve(DenseMatrix<Scalar>& a, std::vector<Scalar>& b) {
  const std::size_t n = a.size();
  EVA_ASSERT(b.size() == n, "lu_solve dimension mismatch");

  for (std::size_t col = 0; col < n; ++col) {
    // Pivot selection: the first row of the largest magnitude.
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
        if (a.at(col, c) == Scalar{}) continue;
        a.at(r, c) = fused(-f, a.at(col, c), a.at(r, c));
      }
      b[r] = fused(-f, b[col], b[r]);
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

template bool lu_solve(DenseMatrix<double>&, std::vector<double>&);
template bool lu_solve(DenseMatrix<std::complex<double>>&,
                       std::vector<std::complex<double>>&);

DcPoint solve_dc(const PreparedCircuit& circuit,
                 const std::vector<double>& size, const SimOptions& opts) {
  return Newton(circuit, size, opts).solve();
}

Kcl kcl_residual(const PreparedCircuit& circuit,
                 const std::vector<double>& size, const SimOptions& opts,
                 const std::vector<double>& v) {
  const std::size_t total = circuit.num_unknowns();
  DenseMatrix<double> a(total);
  std::vector<double> rhs(total, 0.0);
  stamp_dc(circuit, size, opts, a, rhs, v, 1.0);
  Kcl out{std::vector<double>(total), std::vector<double>(total),
          std::vector<double>(total)};
  for (std::size_t i = 0; i < total; ++i) {
    double acc = -rhs[i];
    double g = 0.0;
    double mag = std::abs(rhs[i]);
    for (std::size_t j = 0; j < total; ++j) {
      acc += a.at(i, j) * v[j];
      g += std::abs(a.at(i, j));
      mag += std::abs(a.at(i, j) * v[j]);
    }
    out.residual[i] = acc;
    out.conductance[i] = g;
    out.magnitude[i] = mag;
  }
  return out;
}

}  // namespace eva::spice::reference
