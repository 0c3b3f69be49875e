#include "spice/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "circuit/validity.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"

namespace eva::spice {

using circuit::Device;
using circuit::DeviceKind;
using circuit::IoPin;
using circuit::Netlist;

namespace {

// Technology-like constants for the behavioural device models.
constexpr double kVthN = 0.5;
constexpr double kVthP = 0.5;
constexpr double kKpN = 2.0e-4;   // A/V^2 per W/L
constexpr double kKpP = 8.0e-5;
constexpr double kMosL = 1.0e-6;  // fixed channel length
constexpr double kLambda = 0.1;
constexpr double kDiodeIs = 1e-14;
constexpr double kVt = 0.02585;
constexpr double kBjtBeta = 100.0;
constexpr double kBjtVa = 50.0;
constexpr double kIndDcRes = 1.0;   // inductor DC series resistance
constexpr double kSwitchOn = 2.0;   // converter-mode switch on-resistance
constexpr double kSwitchOff = 1e8;  // ... off-resistance

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
  if (vds < vov) {  // triode
    id = k * (vov * vds - 0.5 * vds * vds) * (1.0 + kLambda * vds);
    gm = k * vds * (1.0 + kLambda * vds);
    go = k * (vov - vds) * (1.0 + kLambda * vds) +
         k * (vov * vds - 0.5 * vds * vds) * kLambda;
  } else {  // saturation
    id = 0.5 * k * vov * vov * (1.0 + kLambda * vds);
    gm = k * vov * (1.0 + kLambda * vds);
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
  e.id = -e.id;  // partials keep their sign (see DESIGN notes)
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
    id += g * (v - 40.0 * kVt);
  }
}

/// BJT as a base-emitter diode driving a beta-scaled VCCS with an Early
/// slope: collector and base currents plus the partials Newton and the AC
/// linearisation stamp. Currents are NPN-signed (`pnp` flips them).
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
  if (na >= 0) a.at(static_cast<std::size_t>(na), static_cast<std::size_t>(na)) += g;
  if (nb >= 0) a.at(static_cast<std::size_t>(nb), static_cast<std::size_t>(nb)) += g;
  if (na >= 0 && nb >= 0) {
    a.at(static_cast<std::size_t>(na), static_cast<std::size_t>(nb)) -= g;
    a.at(static_cast<std::size_t>(nb), static_cast<std::size_t>(na)) -= g;
  }
}

/// Partial g of the current leaving node `row` w.r.t. node `col`'s voltage.
void stamp_partial(DenseMatrix<double>& a, int row, int col, double g) {
  if (row >= 0 && col >= 0) {
    a.at(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += g;
  }
}

/// MOS partials: the drain current e.id enters at D and leaves at S.
void stamp_mos(DenseMatrix<double>& a, int nd, int ng, int ns,
               const MosEval& e) {
  stamp_partial(a, nd, ng, e.gg);
  stamp_partial(a, nd, nd, e.gd);
  stamp_partial(a, nd, ns, e.gs);
  stamp_partial(a, ns, ng, -e.gg);
  stamp_partial(a, ns, nd, -e.gd);
  stamp_partial(a, ns, ns, -e.gs);
}

/// BJT partials. NPN currents: IC into C, IB into B, -(IC+IB) into E. For
/// PNP all currents and controlling voltages flip sign; partials w.r.t.
/// node voltages keep their sign (double negation).
void stamp_bjt(DenseMatrix<double>& a, int nc, int nb, int ne,
               const BjtEval& e) {
  // Row C: ic = gm*vbe + go*vce (about the OP)
  stamp_partial(a, nc, nb, e.gm);
  stamp_partial(a, nc, ne, -e.gm - e.go);
  stamp_partial(a, nc, nc, e.go);
  // Row B: ibe = gbe*vbe
  stamp_partial(a, nb, nb, e.gbe);
  stamp_partial(a, nb, ne, -e.gbe);
  // Row E: -(ic + ibe)
  stamp_partial(a, ne, nb, -e.gm - e.gbe);
  stamp_partial(a, ne, ne, e.gm + e.go + e.gbe);
  stamp_partial(a, ne, nc, -e.go);
}

}  // namespace

Simulator::Simulator(const Netlist& nl, const Sizing& sizing, SimOptions opts)
    : nl_(&nl), opts_(opts) {
  EVA_REQUIRE(sizing.value.size() == nl.devices().size(),
              "sizing does not match netlist");

  // Map nets to nodes. The net containing VSS is ground (-1).
  const auto& nets = nl.nets();
  std::vector<int> net_node(nets.size(), -1);
  int ground = -1;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    for (const auto& p : nets[i]) {
      if (p.is_io() && p.io == IoPin::Vss) {
        ground = static_cast<int>(i);
      }
    }
  }
  EVA_REQUIRE(ground >= 0, "netlist has no VSS net");
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (static_cast<int>(i) == ground) continue;
    net_node[i] = num_nodes_++;
  }

  // Net of every device pin, in one pass over the nets (the first net
  // wins, as Netlist::net_of); -1 while unconnected.
  std::vector<std::array<int, 4>> pin_net(nl.devices().size(),
                                          {-1, -1, -1, -1});
  for (std::size_t i = 0; i < nets.size(); ++i) {
    for (const auto& p : nets[i]) {
      if (p.is_io()) continue;
      EVA_REQUIRE(p.device < nl.num_devices(),
                  "simulator requires pins of existing devices");
      const auto d = static_cast<std::size_t>(p.device);
      EVA_REQUIRE(p.pin >= 0 && p.pin < pin_count(nl.devices()[d].kind),
                  "simulator requires pins of existing devices");
      int& net = pin_net[d][static_cast<std::size_t>(p.pin)];
      if (net < 0) net = static_cast<int>(i);
    }
  }

  // Bias plan: forced DC value per IO pin (priority order within a net:
  // VDD > CLK > VB > VIN; IREF and VOUT are not voltage-forced).
  auto forced_voltage = [&](const circuit::Net& net) -> std::optional<double> {
    std::optional<double> v;
    int prio = -1;
    for (const auto& p : net) {
      if (!p.is_io()) continue;
      int pr = -1;
      double val = 0.0;
      switch (p.io) {
        case IoPin::Vdd: pr = 3; val = opts_.vdd; break;
        case IoPin::Clk1: pr = 2; val = opts_.vdd; break;
        case IoPin::Clk2: pr = 2; val = 0.0; break;
        case IoPin::Vb1: pr = 1; val = opts_.vb1; break;
        case IoPin::Vb2: pr = 1; val = opts_.vb2; break;
        case IoPin::Vin1:
        case IoPin::Vin2: pr = 0; val = opts_.vcm; break;
        default: break;
      }
      if (pr > prio) {
        prio = pr;
        v = val;
      }
    }
    return v;
  };

  io_node_.fill(-1);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const int node = net_node[i];
    bool has_vin1 = false, has_vin2 = false, has_vout = false, has_iref = false;
    bool has_vdd = false;
    for (const auto& p : nets[i]) {
      if (!p.is_io()) continue;
      io_node_[static_cast<std::size_t>(p.io)] = node;
      has_vin1 |= p.io == IoPin::Vin1;
      has_vin2 |= p.io == IoPin::Vin2;
      has_vout |= p.io == IoPin::Vout1 || p.io == IoPin::Vout2;
      has_iref |= p.io == IoPin::Iref;
      has_vdd |= p.io == IoPin::Vdd;
    }
    if (node < 0) continue;  // ground net: no sources
    if (auto fv = forced_voltage(nets[i])) {
      if (has_vdd) vdd_src_ = static_cast<int>(vsrcs_.size());
      vsrcs_.push_back(VSource{node, *fv, 0.0});
    }
    if (has_vin1) in1_node_ = node;
    if (has_vin2) in2_node_ = node;
    if (has_vout) out_nodes_.push_back(node);
    if (has_iref) {
      // Direction heuristic: a reference net touching a PMOS is a
      // PMOS-diode mirror input and must sink current; otherwise inject.
      double sign = 1.0;
      for (const auto& p : nets[i]) {
        if (!p.is_io() &&
            nl.devices()[static_cast<std::size_t>(p.device)].kind ==
                DeviceKind::Pmos) {
          sign = -1.0;
        }
      }
      iref_nodes_.emplace_back(node, sign);
    }
  }
  num_vsrc_ = static_cast<int>(vsrcs_.size());

  // AC drive on the input sources.
  for (auto& src : vsrcs_) {
    if (src.node == in1_node_ && in1_node_ >= 0) {
      src.ac = (in2_node_ >= 0 && in2_node_ != in1_node_) ? 0.5 : 1.0;
    } else if (src.node == in2_node_ && in2_node_ >= 0 &&
               in2_node_ != in1_node_) {
      src.ac = -0.5;
    }
  }

  // Device contexts.
  devs_.reserve(nl.devices().size());
  for (int d = 0; d < nl.num_devices(); ++d) {
    const Device& dev = nl.devices()[static_cast<std::size_t>(d)];
    const auto& dev_nets = pin_net[static_cast<std::size_t>(d)];
    DeviceCtx ctx;
    ctx.kind = dev.kind;
    ctx.size = sizing.value[static_cast<std::size_t>(d)];
    for (int p = 0; p < pin_count(dev.kind); ++p) {
      const int net = dev_nets[static_cast<std::size_t>(p)];
      EVA_REQUIRE(net >= 0, "simulator requires all pins connected");
      ctx.n[p] = net_node[static_cast<std::size_t>(net)];
    }
    if (dev.kind == DeviceKind::Nmos || dev.kind == DeviceKind::Pmos) {
      const int gnet = dev_nets[circuit::mos::G];
      for (const auto& p : nets[static_cast<std::size_t>(gnet)]) {
        if (p.is_io() && (p.io == IoPin::Clk1 || p.io == IoPin::Clk2)) {
          ctx.clk_gate = true;
          ctx.clk_is_phase1 = p.io == IoPin::Clk1;
        }
      }
    }
    devs_.push_back(ctx);
  }
  v_.assign(static_cast<std::size_t>(num_nodes_ + num_vsrc_), 0.0);
}

void Simulator::stamp_dc(DenseMatrix<double>& a, std::vector<double>& rhs,
                         const std::vector<double>& v,
                         double source_scale) const {
  const auto K = static_cast<std::size_t>(num_nodes_);
  auto volt = [&](int n) { return n < 0 ? 0.0 : v[static_cast<std::size_t>(n)]; };
  // Companion current flowing INTO `node`.
  auto stamp_current = [&](int node, double current_into) {
    if (node >= 0) rhs[static_cast<std::size_t>(node)] += current_into;
  };

  // gmin from every node to ground.
  for (std::size_t n = 0; n < K; ++n) a.at(n, n) += opts_.gmin;

  for (const auto& d : devs_) {
    switch (d.kind) {
      case DeviceKind::Resistor:
        stamp_g(a, d.n[0], d.n[1], 1.0 / std::max(d.size, 1e-3));
        break;
      case DeviceKind::Capacitor:
        // Open at DC (gmin keeps the node anchored).
        stamp_g(a, d.n[0], d.n[1], opts_.gmin);
        break;
      case DeviceKind::Inductor:
        stamp_g(a, d.n[0], d.n[1], 1.0 / kIndDcRes);
        break;
      case DeviceKind::Diode: {
        const double vv = volt(d.n[0]) - volt(d.n[1]);
        double id = 0, g = 0;
        eval_diode(vv, d.size, id, g);
        stamp_g(a, d.n[0], d.n[1], g);
        const double ieq = id - g * vv;  // companion current A->K
        stamp_current(d.n[0], -ieq);
        stamp_current(d.n[1], ieq);
        break;
      }
      case DeviceKind::Nmos:
      case DeviceKind::Pmos: {
        if (opts_.converter_mode && d.clk_gate) {
          const bool on = d.clk_is_phase1 == opts_.phase_a;
          stamp_g(a, d.n[circuit::mos::D], d.n[circuit::mos::S],
                  1.0 / (on ? kSwitchOn : kSwitchOff));
          break;
        }
        const int ng = d.n[circuit::mos::G];
        const int nd = d.n[circuit::mos::D];
        const int ns = d.n[circuit::mos::S];
        const MosEval e = eval_mos(volt(ng), volt(nd), volt(ns), d.size,
                                   d.kind == DeviceKind::Pmos);
        stamp_mos(a, nd, ng, ns, e);
        const double ieq =
            e.id - e.gg * volt(ng) - e.gd * volt(nd) - e.gs * volt(ns);
        stamp_current(nd, -ieq);
        stamp_current(ns, ieq);
        // Small drain-source leak improves conditioning.
        stamp_g(a, nd, ns, opts_.gmin);
        break;
      }
      case DeviceKind::Npn:
      case DeviceKind::Pnp: {
        const int nc = d.n[circuit::bjt::C];
        const int nb = d.n[circuit::bjt::B];
        const int ne = d.n[circuit::bjt::E];
        const double sign = d.kind == DeviceKind::Pnp ? -1.0 : 1.0;
        const BjtEval e = eval_bjt(volt(nb), volt(nc), volt(ne), d.size,
                                   d.kind == DeviceKind::Pnp, opts_.gmin);
        stamp_bjt(a, nc, nb, ne, e);
        const double ic_eq = sign * e.ic - e.gm * (volt(nb) - volt(ne)) -
                             e.go * (volt(nc) - volt(ne));
        const double ib_eq = sign * e.ibe - e.gbe * (volt(nb) - volt(ne));
        stamp_current(nc, -ic_eq);
        stamp_current(nb, -ib_eq);
        stamp_current(ne, ic_eq + ib_eq);
        break;
      }
    }
  }

  // Converter-mode resistive load on the first output.
  if (opts_.converter_mode && !out_nodes_.empty()) {
    stamp_g(a, out_nodes_.front(), -1, 1.0 / opts_.load_res);
  }

  // IREF current injection / sinking.
  for (const auto& [n, sign] : iref_nodes_) {
    stamp_current(n, sign * opts_.iref * source_scale);
  }

  // Voltage sources (branch unknowns after the node block).
  for (std::size_t s = 0; s < vsrcs_.size(); ++s) {
    const std::size_t br = K + s;
    const int n = vsrcs_[s].node;
    if (n >= 0) {
      a.at(static_cast<std::size_t>(n), br) += 1.0;
      a.at(br, static_cast<std::size_t>(n)) += 1.0;
    }
    rhs[br] = vsrcs_[s].dc * source_scale;
  }
}

bool Simulator::dc_deadline_hit() {
  if (!dc_deadline_armed_ ||
      std::chrono::steady_clock::now() < dc_deadline_) {
    return false;
  }
  dc_result_.deadline_exceeded = true;
  return true;
}

bool Simulator::newton(double source_scale) {
  const auto total = static_cast<std::size_t>(num_nodes_ + num_vsrc_);
  DenseMatrix<double> a(total);
  std::vector<double> x(total);  // right-hand side, then the solution
  for (int iter = 0; iter < opts_.max_newton_iter; ++iter) {
    if (dc_deadline_hit()) {
      ++dc_result_.failed_attempts;
      return false;
    }
    ++dc_result_.iterations;
    a.clear();
    std::fill(x.begin(), x.end(), 0.0);
    stamp_dc(a, x, v_, source_scale);
    if (!lu_solve(a, x)) {
      ++dc_result_.failed_attempts;
      return false;
    }
    double max_dv = 0.0;
    for (std::size_t n = 0; n < static_cast<std::size_t>(num_nodes_); ++n) {
      double dv = x[n] - v_[n];
      max_dv = std::max(max_dv, std::abs(dv));
      dv = std::clamp(dv, -opts_.max_step, opts_.max_step);
      v_[n] += dv;
    }
    for (std::size_t b = static_cast<std::size_t>(num_nodes_); b < total; ++b) {
      v_[b] = x[b];
    }
    if (max_dv < opts_.newton_tol) return true;
  }
  ++dc_result_.failed_attempts;
  return false;
}

bool Simulator::solve_dc() {
  static obs::Counter& solves = obs::counter("spice.dc_solves");
  static obs::Counter& nonconverged = obs::counter("spice.dc_nonconverged");
  static obs::Histogram& iters_h = obs::histogram("spice.nr_iters");

  obs::Span span("spice.solve_dc");
  dc_converged_ = false;
  dc_result_ = SolveResult{};
  solves.add();

  if (fault::enabled() && fault::should_fire("spice_dc")) {
    nonconverged.add();
    obs::log_warn("spice.dc_fault_injected", {{"devices", nl_->num_devices()}});
    return false;
  }

  dc_deadline_armed_ = opts_.dc_deadline_ms > 0.0;
  if (dc_deadline_armed_) {
    dc_deadline_ = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           opts_.dc_deadline_ms));
  }
  int attempts = 0;
  auto attempt = [&](double scale) {
    ++attempts;
    if (attempts > opts_.max_dc_attempts) {
      dc_result_.deadline_exceeded = true;
      ++dc_result_.failed_attempts;
      return false;
    }
    return newton(scale);
  };

  std::fill(v_.begin(), v_.end(), 0.0);
  if (attempt(1.0)) {
    dc_converged_ = true;
  } else if (!dc_result_.deadline_exceeded) {
    // Source stepping: ramp supplies, reusing each solution as the guess.
    dc_result_.used_source_stepping = true;
    std::fill(v_.begin(), v_.end(), 0.0);
    dc_converged_ = true;
    for (double scale = 0.1; scale <= 1.0001; scale += 0.1) {
      if (!attempt(scale)) {
        dc_converged_ = false;
        break;
      }
    }
  }
  dc_result_.converged = dc_converged_;
  iters_h.record(static_cast<double>(dc_result_.iterations));
  if (dc_result_.deadline_exceeded) {
    static obs::Counter& deadline_c =
        obs::counter("spice.dc_deadline_exceeded");
    deadline_c.add();
    obs::log_every_n(obs::LogLevel::kWarn, "spice.dc_deadline_exceeded", 64,
                     {{"devices", nl_->num_devices()},
                      {"iterations", dc_result_.iterations},
                      {"deadline_ms", opts_.dc_deadline_ms}});
  }
  if (!dc_converged_) {
    // Previously this path returned without any signal; now every give-up
    // is counted and (rate-limited) logged with its attempt trail.
    nonconverged.add();
    obs::log_every_n(obs::LogLevel::kWarn, "spice.dc_nonconverged", 64,
                     {{"devices", nl_->num_devices()},
                      {"nodes", num_nodes_},
                      {"iterations", dc_result_.iterations},
                      {"failed_attempts", dc_result_.failed_attempts}});
  }
  return dc_converged_;
}

double Simulator::io_voltage(IoPin pin) const {
  EVA_ASSERT(dc_converged_, "io_voltage requires a converged DC solve");
  const int node = io_node_[static_cast<std::size_t>(pin)];
  return node < 0 ? 0.0 : v_[static_cast<std::size_t>(node)];
}

double Simulator::supply_power() const {
  EVA_ASSERT(dc_converged_, "supply_power requires a converged DC solve");
  double p = opts_.vdd * opts_.iref * static_cast<double>(iref_nodes_.size());
  if (vdd_src_ >= 0) {
    const double i =
        v_[static_cast<std::size_t>(num_nodes_ + vdd_src_)];
    p += std::abs(i) * opts_.vdd;
  }
  return p;
}

void Simulator::stamp_small_signal(DenseMatrix<double>& g,
                                   DenseMatrix<double>& c) const {
  const auto K = static_cast<std::size_t>(num_nodes_);
  auto volt = [&](int n) {
    return n < 0 ? 0.0 : v_[static_cast<std::size_t>(n)];
  };

  for (std::size_t n = 0; n < K; ++n) g.at(n, n) += opts_.gmin;

  for (const auto& d : devs_) {
    switch (d.kind) {
      case DeviceKind::Resistor:
        stamp_g(g, d.n[0], d.n[1], 1.0 / std::max(d.size, 1e-3));
        break;
      case DeviceKind::Capacitor:
        stamp_g(c, d.n[0], d.n[1], d.size);
        break;
      case DeviceKind::Inductor:
        break;  // 1/(R + jwL) depends on w: stamped per point
      case DeviceKind::Diode: {
        double id = 0, gd = 0;
        eval_diode(volt(d.n[0]) - volt(d.n[1]), d.size, id, gd);
        stamp_g(g, d.n[0], d.n[1], gd);
        break;
      }
      case DeviceKind::Nmos:
      case DeviceKind::Pmos: {
        if (opts_.converter_mode && d.clk_gate) {
          const bool on = d.clk_is_phase1 == opts_.phase_a;
          stamp_g(g, d.n[circuit::mos::D], d.n[circuit::mos::S],
                  1.0 / (on ? kSwitchOn : kSwitchOff));
          break;
        }
        const int ng = d.n[circuit::mos::G];
        const int nd = d.n[circuit::mos::D];
        const int ns = d.n[circuit::mos::S];
        stamp_mos(g, nd, ng, ns,
                  eval_mos(volt(ng), volt(nd), volt(ns), d.size,
                           d.kind == DeviceKind::Pmos));
        break;
      }
      case DeviceKind::Npn:
      case DeviceKind::Pnp: {
        const int nc = d.n[circuit::bjt::C];
        const int nb = d.n[circuit::bjt::B];
        const int ne = d.n[circuit::bjt::E];
        stamp_bjt(g, nc, nb, ne,
                  eval_bjt(volt(nb), volt(nc), volt(ne), d.size,
                           d.kind == DeviceKind::Pnp, opts_.gmin));
        break;
      }
    }
  }

  // Output load capacitance.
  for (int n : out_nodes_) stamp_g(c, n, -1, opts_.load_cap);
  if (opts_.converter_mode && !out_nodes_.empty()) {
    stamp_g(g, out_nodes_.front(), -1, 1.0 / opts_.load_res);
  }

  for (std::size_t s = 0; s < vsrcs_.size(); ++s) {
    const std::size_t br = K + s;
    const int n = vsrcs_[s].node;
    if (n >= 0) {
      g.at(static_cast<std::size_t>(n), br) += 1.0;
      g.at(br, static_cast<std::size_t>(n)) += 1.0;
    }
  }
}

std::vector<AcPoint> Simulator::ac_sweep(double f_lo, double f_hi,
                                         int points) const {
  static obs::Counter& pivot_splits = obs::counter("spice.ac_pivot_splits");

  obs::Span span("spice.ac_sweep");
  EVA_ASSERT(dc_converged_, "ac_sweep requires a converged DC solve");
  EVA_REQUIRE(points >= 2 && f_hi > f_lo && f_lo > 0, "bad AC sweep range");
  const auto K = static_cast<std::size_t>(num_nodes_);
  const std::size_t total = K + vsrcs_.size();
  const int out = out_nodes_.empty() ? -1 : out_nodes_.front();

  // A(w) = G + jwC + inductor branches, with G and C stamped once.
  DenseMatrix<double> g(total), c(total);
  stamp_small_signal(g, c);
  std::vector<const DeviceCtx*> inductors;
  for (const auto& d : devs_) {
    if (d.kind == DeviceKind::Inductor) inductors.push_back(&d);
  }
  std::vector<double> drive(total, 0.0);
  for (std::size_t s = 0; s < vsrcs_.size(); ++s) drive[K + s] = vsrcs_[s].ac;

  LaneMatrix a(total);
  LaneVector x(total);
  // Admittance yr + j*yi between nodes na and nb (either may be ground).
  const auto stamp_y = [&](int na, int nb, Lanes yr, Lanes yi) {
    const auto add = [&](int r, int col, double sign) {
      const std::size_t i = static_cast<std::size_t>(r) * total +
                            static_cast<std::size_t>(col);
      a.re[i] += sign * yr;
      a.im[i] += sign * yi;
    };
    if (na >= 0) add(na, na, 1.0);
    if (nb >= 0) add(nb, nb, 1.0);
    if (na >= 0 && nb >= 0) {
      add(na, nb, -1.0);
      add(nb, na, -1.0);
    }
  };

  // Every GA evaluation sweeps the same grid, so each thread keeps the
  // last one it computed; the same expression keeps every frequency's bits.
  struct Grid {
    double f_lo = 0.0, f_hi = 0.0;
    std::vector<double> freq_hz;
  };
  thread_local Grid grid;
  if (grid.f_lo != f_lo || grid.f_hi != f_hi ||
      grid.freq_hz.size() != static_cast<std::size_t>(points)) {
    grid.f_lo = f_lo;
    grid.f_hi = f_hi;
    grid.freq_hz.resize(static_cast<std::size_t>(points));
    for (std::size_t pt = 0; pt < grid.freq_hz.size(); ++pt) {
      grid.freq_hz[pt] = f_lo * std::pow(f_hi / f_lo,
                                         static_cast<double>(pt) /
                                             static_cast<double>(points - 1));
    }
  }

  // Lane l of a batch solves point first + l; the lanes past the last
  // point of a short last batch repeat it.
  std::vector<AcPoint> sweep(static_cast<std::size_t>(points));
  for (std::size_t first = 0; first < sweep.size(); first += kLanes) {
    Lanes w{};
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::size_t pt = std::min(first + l, sweep.size() - 1);
      const double f = grid.freq_hz[pt];
      sweep[pt].freq_hz = f;
      w[l] = 2.0 * 3.141592653589793 * f;
    }
    for (std::size_t i = 0; i < total * total; ++i) {
      a.re[i] = splat(g.data()[i]);
      a.im[i] = w * c.data()[i];
    }
    for (const DeviceCtx* d : inductors) {
      // 1/(R + jwL) = (R - jwL) / (R^2 + (wL)^2)
      const Lanes wl = w * d->size;
      const Lanes den = kIndDcRes * kIndDcRes + wl * wl;
      stamp_y(d->n[0], d->n[1], kIndDcRes / den, -wl / den);
    }
    for (std::size_t i = 0; i < total; ++i) {
      x.re[i] = splat(drive[i]);
      x.im[i] = Lanes{};
    }

    const LaneSolve solved = lu_solve_lanes(a, x);
    if (solved.pivots_split) pivot_splits.add();
    if (out < 0) continue;
    const auto o = static_cast<std::size_t>(out);
    for (std::size_t l = 0; l < kLanes && first + l < sweep.size(); ++l) {
      if (solved.ok[l] != 0) sweep[first + l].h = {x.re[o][l], x.im[o][l]};
    }
  }
  return sweep;
}

SimVerdict simulatable_verdict(const Netlist& nl) {
  if (!circuit::structurally_valid(nl)) {
    return SimVerdict::kStructurallyInvalid;
  }
  try {
    Simulator sim(nl, default_sizing(nl));
    return sim.solve_dc() ? SimVerdict::kOk : SimVerdict::kNonConverged;
  } catch (const Error&) {
    return SimVerdict::kError;
  }
}

bool simulatable(const Netlist& nl) {
  return simulatable_verdict(nl) == SimVerdict::kOk;
}

}  // namespace eva::spice
