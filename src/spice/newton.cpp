// Mini-SPICE's device models and its Newton DC solve, one candidate sizing
// per SIMD lane (DESIGN.md §6, "Mini-SPICE DC solve").
//
// This file is compiled with -ffp-contract=off (src/spice/CMakeLists.txt),
// as is the scalar reference in tests/dc_reference.cpp: every operation
// rounds as written, so each lane is bitwise the reference at any width and
// on every build. The multiply-adds GCC 12 fused in the scalar solver these
// replace are written out with fused(), so an FMA build keeps its results:
// any other rounding changes which of the corpus' generated topologies
// converge.
#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spice/engine.hpp"
#include "util/fault.hpp"

namespace eva::spice {

using circuit::DeviceKind;
using detail::broadcast;
using namespace model;

namespace {

template <class V>
using MaskFor = decltype(V{} < V{});

/// a·b + c per lane, rounded once where the target has FMA and twice where
/// it has not: the contraction GCC gave the scalar solver, made explicit.
// GCC 12 reports `r` as maybe uninitialized, a false positive on lane-by-lane
// writes into a value-initialized vector (as detail::broadcast's); the
// warning is off for this function alone.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
template <class V>
[[nodiscard]] V fused(V a, V b, V c) {
#if defined(__FMA__)
  V r{};
  for (std::size_t l = 0; l < detail::width_of<V>; ++l) {
    detail::lane(r, l) = __builtin_fma(detail::lane(a, l), detail::lane(b, l),
                                       detail::lane(c, l));
  }
  return r;
#else
  return a * b + c;
#endif
}
#pragma GCC diagnostic pop

// --- device models, per lane -------------------------------------------------
//
// Each is the scalar model with its branches turned into per-lane selects:
// a lane evaluates every branch's expressions exactly as written in the
// reference and keeps the one the scalar code would have taken.

/// Current into the drain of an NMOS-like device plus its partials with
/// respect to the gate/drain/source node voltages.
template <class V>
struct MosEval {
  V id{}, gg{}, gd{}, gs{};
};

template <class V>
void nmos_core(V vgs, V vds, V k, double vth, V& id, V& gm, V& go) {
  const V vov = vgs - vth;
  const MaskFor<V> off = vov <= 0.0;
  const MaskFor<V> triode = vds < vov;
  const V clm = fused(vds, broadcast<V>(kLambda), broadcast<V>(1.0));
  // A region no lane is in is not evaluated.
  V t_id{}, t_gm{}, t_go{}, s_id{}, s_gm{}, s_go{};
  if (detail::any(triode & detail::none_of(off))) {
    const V kq = k * fused(vov, vds, -(0.5 * vds * vds));
    t_id = kq * clm;
    t_gm = k * vds * clm;
    t_go = fused(k * (vov - vds), clm, kq * kLambda);
  }
  if (detail::any(detail::none_of(triode | off))) {
    s_id = 0.5 * k * vov * vov * clm;
    s_gm = k * vov * clm;
    s_go = 0.5 * k * vov * vov * kLambda;
  }
  id = off ? V{} : triode ? t_id : s_id;
  gm = off ? V{} : triode ? t_gm : s_gm;
  go = off ? V{} : triode ? t_go : s_go;
}

template <class V>
MosEval<V> eval_nmos_like(V vg, V vd, V vs, V k, double vth) {
  // Conduction with drain/source roles swapped where vd < vs.
  const MaskFor<V> fwd = vd >= vs;
  V id{}, gm{}, go{};
  nmos_core(fwd ? vg - vs : vg - vd, fwd ? vd - vs : vs - vd, k, vth, id, gm,
            go);
  MosEval<V> e;
  e.id = fwd ? id : -id;
  e.gg = fwd ? gm : -gm;
  e.gd = fwd ? go : gm + go;
  e.gs = fwd ? -(gm + go) : -go;
  return e;
}

template <class V>
MosEval<V> eval_mos(V vg, V vd, V vs, V width, bool pmos) {
  const V wl = width / kMosL;
  if (!pmos) return eval_nmos_like(vg, vd, vs, kKpN * wl, kVthN);
  MosEval<V> e = eval_nmos_like(-vg, -vd, -vs, kKpP * wl, kVthP);
  e.id = -e.id;  // partials keep their sign (see DESIGN notes)
  return e;
}

/// Diode current A->K and conductance, with exponent clamping. The
/// exponential is glibc's exp, lane by lane.
template <class V>
void eval_diode(V v, V area, V& id, V& g) {
  const V q = v / kVt;
  const V x = q < -60.0 ? broadcast<V>(-60.0)
              : 40.0 < q  ? broadcast<V>(40.0)
                          : q;
  V ex{};
  for (std::size_t l = 0; l < detail::width_of<V>; ++l) {
    detail::lane(ex, l) = std::exp(detail::lane(x, l));
  }
  id = kDiodeIs * area * (ex - 1.0);
  g = kDiodeIs * area * ex / kVt;
  // Linear continuation beyond the clamp keeps Newton bounded.
  id = x >= 40.0 ? fused(g, v - 40.0 * kVt, id) : id;
}

/// BJT as a base-emitter diode driving a beta-scaled VCCS with an Early
/// slope: collector and base currents plus the partials Newton and the AC
/// linearisation stamp. Currents are NPN-signed (`pnp` flips them).
template <class V>
struct BjtEval {
  V ic{}, ibe{};
  V gm{}, go{}, gbe{};
};

template <class V>
BjtEval<V> eval_bjt(V vb, V vc, V ve, V area, bool pnp, double gmin) {
  const double sign = pnp ? -1.0 : 1.0;
  const V vbe = sign * (vb - ve);
  const V vce = sign * (vc - ve);
  BjtEval<V> e;
  eval_diode(vbe, area / kBjtBeta, e.ibe, e.gbe);
  const V early = 1.0 + (vce < 0.0 ? V{} : vce) / kBjtVa;
  e.ic = kBjtBeta * e.ibe * early;
  e.gm = kBjtBeta * e.gbe * early;
  e.go = vce > 0.0 ? kBjtBeta * e.ibe / kBjtVa : broadcast<V>(gmin);
  return e;
}

// --- stamping ----------------------------------------------------------------

/// Row-major n x n matrix of V plus its right-hand side: W lanes, or
/// doubles for the small-signal stamps.
template <class V>
struct Stamp {
  V* a;
  V* rhs;
  std::size_t n;

  V& at(int r, int c) const {
    return a[static_cast<std::size_t>(r) * n + static_cast<std::size_t>(c)];
  }
  /// Conductance y between nodes na and nb (either may be ground, -1).
  void g(int na, int nb, V y) const {
    if (na >= 0) at(na, na) += y;
    if (nb >= 0) at(nb, nb) += y;
    if (na >= 0 && nb >= 0) {
      at(na, nb) -= y;
      at(nb, na) -= y;
    }
  }
  /// Partial y of the current leaving node `row` w.r.t. node `col`'s
  /// voltage.
  void partial(int row, int col, V y) const {
    if (row >= 0 && col >= 0) at(row, col) += y;
  }
  /// Companion current flowing INTO `node`.
  void current(int node, V i) const {
    if (node >= 0) rhs[static_cast<std::size_t>(node)] += i;
  }
  /// MOS partials: the drain current e.id enters at D and leaves at S.
  void mos(int nd, int ng, int ns, const MosEval<V>& e) const {
    partial(nd, ng, e.gg);
    partial(nd, nd, e.gd);
    partial(nd, ns, e.gs);
    partial(ns, ng, -e.gg);
    partial(ns, nd, -e.gd);
    partial(ns, ns, -e.gs);
  }
  /// BJT partials. NPN currents: IC into C, IB into B, -(IC+IB) into E.
  /// For PNP all currents and controlling voltages flip sign; partials
  /// w.r.t. node voltages keep their sign (double negation).
  void bjt(int nc, int nb, int ne, const BjtEval<V>& e) const {
    // Row C: ic = gm*vbe + go*vce (about the OP)
    partial(nc, nb, e.gm);
    partial(nc, ne, -e.gm - e.go);
    partial(nc, nc, e.go);
    // Row B: ibe = gbe*vbe
    partial(nb, nb, e.gbe);
    partial(nb, ne, -e.gbe);
    // Row E: -(ic + ibe)
    partial(ne, nb, -e.gm - e.gbe);
    partial(ne, ne, e.gm + e.go + e.gbe);
    partial(ne, nc, -e.go);
  }
};

/// Converter-mode switch conductance of a clock-gated MOS.
double switch_g(const PreparedCircuit::Device& d, const SimOptions& opts) {
  const bool on = d.clk_is_phase1 == opts.phase_a;
  return 1.0 / (on ? kSwitchOn : kSwitchOff);
}

// --- Newton in lanes ---------------------------------------------------------

/// Lanes a group runs at its full width while more than this many are
/// live; the rest finish at width 1. Along the GA's sizing runs first
/// attempts take 13.0 Newton iterations on average (p50 10, p90 19), so
/// a group that waits for its slowest lane does useful work in 59% of its
/// lane-iterations, and one that finishes its last two lanes alone in 84%.
constexpr std::size_t kTailLanes = kLanes / 4 > 0 ? kLanes / 4 : 1;

/// The solve's wall-clock budget, read once per batch iteration.
struct Deadline {
  bool armed = false;
  std::chrono::steady_clock::time_point at{};

  [[nodiscard]] bool passed() const {
    return armed && !(std::chrono::steady_clock::now() < at);
  }
};

/// W candidates of one circuit mid-solve, lane-interleaved.
template <std::size_t W>
struct DcLanes {
  RealLaneSystem<W> sys;          // the Newton step's system, then its solution
  std::vector<LanesOf<W>> v;      // node voltages then source currents
  std::vector<LanesOf<W>> size;   // device values

  /// This thread's scratch, sized for `c`: every solve reuses it.
  static DcLanes& scratch(const PreparedCircuit& c) {
    thread_local DcLanes s;
    if (s.sys.n != c.num_unknowns()) {
      s.sys = RealLaneSystem<W>(c.num_unknowns());
    }
    s.v.resize(c.num_unknowns());
    s.size.resize(c.devices.size());
    return s;
  }
};

template <class M>
std::size_t count(M m) {
  std::size_t n = 0;
  for (std::size_t l = 0; l < detail::width_of<M>; ++l) {
    n += detail::lane(m, l) != 0;
  }
  return n;
}

/// One group's solve: up to kLanes candidates, or one at width 1.
class GroupSolve {
 public:
  GroupSolve(const PreparedCircuit& c, const SimOptions& opts)
      : c_(c), opts_(opts) {}

  /// Solves sizes[0..n) (n <= W) into out[0..n). Lanes past n repeat the
  /// last candidate but never iterate, so they are not counted anywhere.
  template <std::size_t W>
  void run(const std::vector<double>* const* sizes, std::size_t n,
           DcPoint* const* out) {
    using V = LanesOf<W>;
    using M = MaskOf<W>;
    deadline_.armed = opts_.dc_deadline_ms > 0.0;
    if (deadline_.armed) {
      deadline_.at =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(opts_.dc_deadline_ms));
    }
    attempts_ = 0;
    DcLanes<W>& s = DcLanes<W>::scratch(c_);
    for (std::size_t d = 0; d < s.size.size(); ++d) {
      for (std::size_t l = 0; l < W; ++l) {
        detail::lane(s.size[d], l) = (*sizes[std::min(l, n - 1)])[d];
      }
    }
    std::fill(s.v.begin(), s.v.end(), V{});
    SolveResult res[W];
    V index{};
    for (std::size_t l = 0; l < W; ++l) {
      detail::lane(index, l) = static_cast<double>(l);
    }
    const M in = index < static_cast<double>(n);

    M converged = attempt(s, in, 1.0, res);
    M retry = in & detail::none_of(converged);
    for (std::size_t l = 0; l < W; ++l) {
      if (res[l].deadline_exceeded) detail::lane(retry, l) = 0;
    }
    if (detail::any(retry)) {
      // Source stepping: ramp the supplies from v = 0, reusing each
      // stage's solution as the next one's guess.
      for (std::size_t l = 0; l < W; ++l) {
        if (detail::lane(retry, l) == 0) continue;
        res[l].used_source_stepping = true;
        for (auto& x : s.v) detail::lane(x, l) = 0.0;
      }
      // The ramp ends at 0.9999999999999999, not 1: ending it at full
      // supply changes which generated topologies converge (DESIGN.md §6).
      for (double scale = 0.1; scale <= 1.0001 && detail::any(retry);
           scale += 0.1) {
        retry = attempt(s, retry, scale, res);
      }
      converged |= retry;
    }
    for (std::size_t l = 0; l < n; ++l) {
      res[l].converged = detail::lane(converged, l) != 0;
      out[l]->result = res[l];
      if (!res[l].converged) continue;
      for (std::size_t i = 0; i < s.v.size(); ++i) {
        out[l]->v[i] = detail::lane(s.v[i], l);
      }
    }
  }

 private:
  /// One Newton attempt at `scale` for the lanes in `in`, from v as it
  /// stands; returns the lanes that converged. The attempt cap counts
  /// attempts, which every lane of `in` has made alike.
  template <std::size_t W>
  MaskOf<W> attempt(DcLanes<W>& s, MaskOf<W> in, double scale,
                    SolveResult* res) {
    if (++attempts_ > opts_.max_dc_attempts) {
      for (std::size_t l = 0; l < W; ++l) {
        if (detail::lane(in, l) == 0) continue;
        res[l].deadline_exceeded = true;
        ++res[l].failed_attempts;
      }
      return MaskOf<W>{};
    }
    return newton(s, in, MaskOf<W>{}, scale, 0, res);
  }

  /// Newton iterations `iter`.. of the current attempt for the lanes in
  /// `live`; returns `converged` plus the lanes that converge. A lane
  /// leaves `live` when it converges, hits the iteration cap or the
  /// deadline, or its system is singular, and from then on its values
  /// stay as they are.
  template <std::size_t W>
  MaskOf<W> newton(DcLanes<W>& s, MaskOf<W> live, MaskOf<W> converged,
                   double scale, int iter, SolveResult* res) {
    using V = LanesOf<W>;
    using M = MaskOf<W>;
    const std::size_t K = static_cast<std::size_t>(c_.num_nodes);
    const std::size_t total = s.v.size();
    const auto each_live = [&](auto f) {
      for (std::size_t l = 0; l < W; ++l) {
        if (detail::lane(live, l) != 0) f(res[l]);
      }
    };
    for (;; ++iter) {
      if constexpr (W > 1) {
        if (count(live) <= kTailLanes) {
          return finish_alone(s, live, converged, scale, iter, res);
        }
      }
      if (!detail::any(live)) return converged;
      if (iter == opts_.max_newton_iter) {
        each_live([](SolveResult& r) { ++r.failed_attempts; });
        return converged;
      }
      if (deadline_.passed()) {
        each_live([](SolveResult& r) {
          r.deadline_exceeded = true;
          ++r.failed_attempts;
        });
        return converged;
      }
      each_live([](SolveResult& r) { ++r.iterations; });
      std::fill(s.sys.a.begin(), s.sys.a.end(), V{});
      std::fill(s.sys.b.begin(), s.sys.b.end(), V{});
      stamp(s, scale);
      const M ok = lu_solve_lanes(s.sys);
      const M singular = live & detail::none_of(ok);
      for (std::size_t l = 0; l < W; ++l) {
        if (detail::lane(singular, l) != 0) ++res[l].failed_attempts;
      }
      live &= ok;
      const V* x = s.sys.b.data();
      V max_dv{};
      for (std::size_t n = 0; n < K; ++n) {
        V dv = x[n] - s.v[n];
        const V mag = detail::abs(dv);
        max_dv = max_dv < mag ? mag : max_dv;
        dv = dv < -opts_.max_step ? broadcast<V>(-opts_.max_step)
             : opts_.max_step < dv ? broadcast<V>(opts_.max_step)
                                   : dv;
        s.v[n] = live ? s.v[n] + dv : s.v[n];
      }
      for (std::size_t b = K; b < total; ++b) {
        s.v[b] = live ? x[b] : s.v[b];
      }
      const M done = live & (max_dv < opts_.newton_tol);
      converged |= done;
      live &= detail::none_of(done);
    }
  }

  /// Finishes the attempt of each lane in `live` at width 1, from its
  /// own values only.
  template <std::size_t W>
  MaskOf<W> finish_alone(DcLanes<W>& s, MaskOf<W> live, MaskOf<W> converged,
                         double scale, int iter, SolveResult* res) {
    DcLanes<1>& one = DcLanes<1>::scratch(c_);
    for (std::size_t l = 0; l < W; ++l) {
      if (live[l] == 0) continue;
      for (std::size_t i = 0; i < s.v.size(); ++i) one.v[i] = s.v[i][l];
      for (std::size_t d = 0; d < s.size.size(); ++d) {
        one.size[d] = s.size[d][l];
      }
      const bool ok = newton(one, true, false, scale, iter, res + l);
      for (std::size_t i = 0; i < s.v.size(); ++i) s.v[i][l] = one.v[i];
      converged[l] = ok ? -1 : 0;
    }
    return converged;
  }

  /// The Newton step's linearised system at v, all lanes.
  template <std::size_t W>
  void stamp(DcLanes<W>& s, double scale) const {
    using V = LanesOf<W>;
    const std::size_t K = static_cast<std::size_t>(c_.num_nodes);
    const Stamp<V> st{s.sys.a.data(), s.sys.b.data(), s.sys.n};
    const auto volt = [&](int n) {
      return n < 0 ? V{} : s.v[static_cast<std::size_t>(n)];
    };

    // gmin from every node to ground.
    for (std::size_t n = 0; n < K; ++n) {
      s.sys.a[n * s.sys.n + n] += opts_.gmin;
    }

    for (std::size_t i = 0; i < c_.devices.size(); ++i) {
      const auto& d = c_.devices[i];
      const V size = s.size[i];
      switch (d.kind) {
        case DeviceKind::Resistor:
          st.g(d.n[0], d.n[1],
               1.0 / (size < 1e-3 ? broadcast<V>(1e-3) : size));
          break;
        case DeviceKind::Capacitor:
          // Open at DC (gmin keeps the node anchored).
          st.g(d.n[0], d.n[1], broadcast<V>(opts_.gmin));
          break;
        case DeviceKind::Inductor:
          st.g(d.n[0], d.n[1], broadcast<V>(1.0 / kIndDcRes));
          break;
        case DeviceKind::Diode: {
          const V vv = volt(d.n[0]) - volt(d.n[1]);
          V id{}, g{};
          eval_diode(vv, size, id, g);
          st.g(d.n[0], d.n[1], g);
          const V ieq = fused(-g, vv, id);  // companion current A->K
          st.current(d.n[0], -ieq);
          st.current(d.n[1], ieq);
          break;
        }
        case DeviceKind::Nmos:
        case DeviceKind::Pmos: {
          if (opts_.converter_mode && d.clk_gate) {
            st.g(d.n[circuit::mos::D], d.n[circuit::mos::S],
                 broadcast<V>(switch_g(d, opts_)));
            break;
          }
          const int ng = d.n[circuit::mos::G];
          const int nd = d.n[circuit::mos::D];
          const int ns = d.n[circuit::mos::S];
          const MosEval<V> e = eval_mos(volt(ng), volt(nd), volt(ns), size,
                                        d.kind == DeviceKind::Pmos);
          st.mos(nd, ng, ns, e);
          const V ieq =
              fused(-e.gs, volt(ns),
                    fused(-e.gd, volt(nd), fused(-e.gg, volt(ng), e.id)));
          st.current(nd, -ieq);
          st.current(ns, ieq);
          // Small drain-source leak improves conditioning.
          st.g(nd, ns, broadcast<V>(opts_.gmin));
          break;
        }
        case DeviceKind::Npn:
        case DeviceKind::Pnp: {
          const int nc = d.n[circuit::bjt::C];
          const int nb = d.n[circuit::bjt::B];
          const int ne = d.n[circuit::bjt::E];
          const double sign = d.kind == DeviceKind::Pnp ? -1.0 : 1.0;
          const BjtEval<V> e = eval_bjt(volt(nb), volt(nc), volt(ne), size,
                                        d.kind == DeviceKind::Pnp, opts_.gmin);
          st.bjt(nc, nb, ne, e);
          const V ic_eq =
              fused(-e.go, volt(nc) - volt(ne),
                    fused(-e.gm, volt(nb) - volt(ne), sign * e.ic));
          const V ib_eq = sign * e.ibe - e.gbe * (volt(nb) - volt(ne));
          st.current(nc, -ic_eq);
          st.current(nb, -ib_eq);
          st.current(ne, ic_eq + ib_eq);
          break;
        }
      }
    }

    // Converter-mode resistive load on the first output.
    if (opts_.converter_mode && !c_.out_nodes.empty()) {
      st.g(c_.out_nodes.front(), -1,
           broadcast<V>(1.0 / opts_.load_res));
    }

    // IREF current injection / sinking.
    for (const auto& [n, sign] : c_.iref_nodes) {
      V& rhs = s.sys.b[static_cast<std::size_t>(n)];
      rhs = fused(broadcast<V>(sign * opts_.iref), broadcast<V>(scale),
                  rhs);
    }

    // Voltage sources (branch unknowns after the node block).
    for (std::size_t k = 0; k < c_.sources.size(); ++k) {
      const std::size_t br = K + k;
      const int n = c_.sources[k].node;
      if (n >= 0) {
        st.at(n, static_cast<int>(br)) += 1.0;
        st.at(static_cast<int>(br), n) += 1.0;
      }
      st.rhs[br] = broadcast<V>(
          PreparedCircuit::source_dc(c_.sources[k], opts_) * scale);
    }
  }

  const PreparedCircuit& c_;
  const SimOptions& opts_;
  Deadline deadline_;
  int attempts_ = 0;
};

}  // namespace

// --- the real lane LU --------------------------------------------------------

template <std::size_t W>
MaskOf<W> lu_solve_lanes(RealLaneSystem<W>& s) {
  using V = LanesOf<W>;
  using M = MaskOf<W>;
  const std::size_t n = s.n;
  EVA_ASSERT(s.a.size() == n * n && s.b.size() == n && s.cols.size() == n,
             "lu_solve_lanes dimension mismatch");
  V* a = s.a.data();
  V* b = s.b.data();
  const detail::Planes<V, 1> planes{n, {a}, {b}};

  M ok = M{} == 0;  // every lane
  for (std::size_t col = 0; col < n; ++col) {
    V best{};
    const auto pivot = detail::pick_pivot(
        col, n, [&](std::size_t r) { return detail::abs(a[r * n + col]); },
        best);
    const M singular = best < 1e-18;
    ok &= detail::none_of(singular);
    (void)detail::exchange_pivot_rows(planes, col, pivot, singular);
    const V* pr = a + col * n;
    const V inv = 1.0 / pr[col];
    const std::size_t nnz =
        detail::nonzero_columns(planes, col, s.cols.data(), s.col_nz.get());
    for (std::size_t r = col + 1; r < n; ++r) {
      V* rr = a + r * n;
      const V f = rr[col] * inv;
      const M live = f != 0.0;
      if (!detail::any(live)) continue;
      for (std::size_t k = 0; k < nnz; ++k) {
        const std::size_t c = s.cols[k];
        const M upd = live & s.col_nz[k];
        rr[c] = upd ? fused(-f, pr[c], rr[c]) : rr[c];
      }
      b[r] = live ? fused(-f, b[col], b[r]) : b[r];
    }
  }
  for (std::size_t r = n; r-- > 0;) {
    const V* rr = a + r * n;
    V acc = b[r];
    for (std::size_t c = r + 1; c < n; ++c) acc -= rr[c] * b[c];
    b[r] = acc / rr[r];
  }
  return ok;
}

template MaskOf<1> lu_solve_lanes(RealLaneSystem<1>& s);
template MaskOf<kLanes> lu_solve_lanes(RealLaneSystem<kLanes>& s);

// --- the batch entry point ---------------------------------------------------

void solve_dc_batch(const PreparedCircuit& circuit,
                    std::span<const std::vector<double>* const> sizes,
                    const SimOptions& opts, std::span<DcPoint> out) {
  static obs::Counter& solves = obs::counter("spice.dc_solves");
  static obs::Counter& nonconverged = obs::counter("spice.dc_nonconverged");
  static obs::Counter& deadline_c = obs::counter("spice.dc_deadline_exceeded");
  static obs::Histogram& iters_h = obs::histogram("spice.nr_iters");

  EVA_REQUIRE(sizes.size() == out.size(), "solve_dc_batch: size mismatch");
  obs::Span span("spice.solve_dc");
  const auto devices = static_cast<int>(circuit.devices.size());
  GroupSolve group(circuit, opts);
  const std::vector<double>* group_sizes[kLanes];
  DcPoint* group_out[kLanes];
  std::size_t n = 0;  // candidates waiting in the group
  // Solves the waiting group, then counts its candidates.
  const auto flush = [&] {
    if (n == 1) {
      group.run<1>(group_sizes, n, group_out);
    } else if (n > 1) {
      group.run<kLanes>(group_sizes, n, group_out);
    }
    for (std::size_t l = 0; l < n; ++l) {
      const SolveResult& r = group_out[l]->result;
      iters_h.record(static_cast<double>(r.iterations));
      if (r.deadline_exceeded) {
        deadline_c.add();
        obs::log_every_n(obs::LogLevel::kWarn, "spice.dc_deadline_exceeded",
                         64,
                         {{"devices", devices},
                          {"iterations", r.iterations},
                          {"deadline_ms", opts.dc_deadline_ms}});
      }
      if (!r.converged) {
        nonconverged.add();
        obs::log_every_n(obs::LogLevel::kWarn, "spice.dc_nonconverged", 64,
                         {{"devices", devices},
                          {"nodes", circuit.num_nodes},
                          {"iterations", r.iterations},
                          {"failed_attempts", r.failed_attempts}});
      }
    }
    n = 0;
  };
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EVA_REQUIRE(sizes[i]->size() == circuit.devices.size(),
                "sizing does not match netlist");
    out[i].v.assign(circuit.num_unknowns(), 0.0);
    out[i].result = SolveResult{};
    solves.add();
    if (fault::enabled() && fault::should_fire("spice_dc")) {
      nonconverged.add();
      obs::log_warn("spice.dc_fault_injected", {{"devices", devices}});
      continue;
    }
    group_sizes[n] = sizes[i];
    group_out[n++] = &out[i];
    if (n == kLanes) flush();
  }
  flush();
}

// --- small-signal stamps ----------------------------------------------------

void Simulator::stamp_small_signal(DenseMatrix<double>& g,
                                   DenseMatrix<double>& c) const {
  const auto K = static_cast<std::size_t>(c_->num_nodes);
  const std::size_t total = g.size();
  const Stamp<double> sg{&g.at(0, 0), nullptr, total};
  const Stamp<double> sc{&c.at(0, 0), nullptr, total};
  const auto volt = [&](int n) {
    return n < 0 ? 0.0 : dc_.v[static_cast<std::size_t>(n)];
  };

  for (std::size_t n = 0; n < K; ++n) g.at(n, n) += opts_.gmin;

  for (std::size_t i = 0; i < c_->devices.size(); ++i) {
    const auto& d = c_->devices[i];
    const double size = size_[i];
    switch (d.kind) {
      case DeviceKind::Resistor:
        sg.g(d.n[0], d.n[1], 1.0 / std::max(size, 1e-3));
        break;
      case DeviceKind::Capacitor:
        sc.g(d.n[0], d.n[1], size);
        break;
      case DeviceKind::Inductor:
        break;  // 1/(R + jwL) depends on w: stamped per point
      case DeviceKind::Diode: {
        double id = 0.0, gd = 0.0;
        eval_diode(volt(d.n[0]) - volt(d.n[1]), size, id, gd);
        sg.g(d.n[0], d.n[1], gd);
        break;
      }
      case DeviceKind::Nmos:
      case DeviceKind::Pmos: {
        if (opts_.converter_mode && d.clk_gate) {
          sg.g(d.n[circuit::mos::D], d.n[circuit::mos::S],
               switch_g(d, opts_));
          break;
        }
        const int ng = d.n[circuit::mos::G];
        const int nd = d.n[circuit::mos::D];
        const int ns = d.n[circuit::mos::S];
        sg.mos(nd, ng, ns,
               eval_mos(volt(ng), volt(nd), volt(ns), size,
                        d.kind == DeviceKind::Pmos));
        break;
      }
      case DeviceKind::Npn:
      case DeviceKind::Pnp: {
        const int nc = d.n[circuit::bjt::C];
        const int nb = d.n[circuit::bjt::B];
        const int ne = d.n[circuit::bjt::E];
        sg.bjt(nc, nb, ne,
               eval_bjt(volt(nb), volt(nc), volt(ne), size,
                        d.kind == DeviceKind::Pnp, opts_.gmin));
        break;
      }
    }
  }

  // Output load capacitance.
  for (int n : c_->out_nodes) sc.g(n, -1, opts_.load_cap);
  if (opts_.converter_mode && !c_->out_nodes.empty()) {
    sg.g(c_->out_nodes.front(), -1, 1.0 / opts_.load_res);
  }

  for (std::size_t s = 0; s < c_->sources.size(); ++s) {
    const std::size_t br = K + s;
    const int n = c_->sources[s].node;
    if (n >= 0) {
      g.at(static_cast<std::size_t>(n), br) += 1.0;
      g.at(br, static_cast<std::size_t>(n)) += 1.0;
    }
  }
}

}  // namespace eva::spice
