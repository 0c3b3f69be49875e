#include "spice/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "circuit/validity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace eva::spice {

using circuit::DeviceKind;
using circuit::IoPin;
using circuit::Netlist;

PreparedCircuit::PreparedCircuit(const Netlist& nl) {
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
    net_node[i] = num_nodes++;
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

  // Bias plan: the IO pin whose DC value forces each net (priority order
  // within a net: VDD > CLK > VB > VIN; IREF and VOUT are not
  // voltage-forced).
  auto forcing_pin = [&](const circuit::Net& net) -> std::optional<IoPin> {
    std::optional<IoPin> pin;
    int prio = -1;
    for (const auto& p : net) {
      if (!p.is_io()) continue;
      int pr = -1;
      switch (p.io) {
        case IoPin::Vdd: pr = 3; break;
        case IoPin::Clk1:
        case IoPin::Clk2: pr = 2; break;
        case IoPin::Vb1:
        case IoPin::Vb2: pr = 1; break;
        case IoPin::Vin1:
        case IoPin::Vin2: pr = 0; break;
        default: break;
      }
      if (pr > prio) {
        prio = pr;
        pin = p.io;
      }
    }
    return pin;
  };

  io_node.fill(-1);
  int in1_node = -1, in2_node = -1;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const int node = net_node[i];
    bool has_vin1 = false, has_vin2 = false, has_vout = false, has_iref = false;
    bool has_vdd = false;
    for (const auto& p : nets[i]) {
      if (!p.is_io()) continue;
      io_node[static_cast<std::size_t>(p.io)] = node;
      has_vin1 |= p.io == IoPin::Vin1;
      has_vin2 |= p.io == IoPin::Vin2;
      has_vout |= p.io == IoPin::Vout1 || p.io == IoPin::Vout2;
      has_iref |= p.io == IoPin::Iref;
      has_vdd |= p.io == IoPin::Vdd;
    }
    if (node < 0) continue;  // ground net: no sources
    if (auto pin = forcing_pin(nets[i])) {
      if (has_vdd) vdd_source = static_cast<int>(sources.size());
      sources.push_back(Source{node, *pin, 0.0});
    }
    if (has_vin1) in1_node = node;
    if (has_vin2) in2_node = node;
    if (has_vout) out_nodes.push_back(node);
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
      iref_nodes.emplace_back(node, sign);
    }
  }

  // AC drive on the input sources.
  for (auto& src : sources) {
    if (src.node == in1_node && in1_node >= 0) {
      src.ac = (in2_node >= 0 && in2_node != in1_node) ? 0.5 : 1.0;
    } else if (src.node == in2_node && in2_node >= 0 &&
               in2_node != in1_node) {
      src.ac = -0.5;
    }
  }

  devices.reserve(nl.devices().size());
  for (int d = 0; d < nl.num_devices(); ++d) {
    const circuit::Device& dev = nl.devices()[static_cast<std::size_t>(d)];
    const auto& dev_nets = pin_net[static_cast<std::size_t>(d)];
    Device ctx;
    ctx.kind = dev.kind;
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
    devices.push_back(ctx);
  }
}

double PreparedCircuit::source_dc(const Source& s, const SimOptions& opts) {
  switch (s.bias) {
    case IoPin::Vdd:
    case IoPin::Clk1: return opts.vdd;
    case IoPin::Vb1: return opts.vb1;
    case IoPin::Vb2: return opts.vb2;
    case IoPin::Vin1:
    case IoPin::Vin2: return opts.vcm;
    default: return 0.0;  // CLK2
  }
}

Simulator::Simulator(const Netlist& nl, const Sizing& sizing, SimOptions opts)
    : owned_(std::make_unique<const PreparedCircuit>(nl)),
      c_(owned_.get()),
      opts_(opts),
      size_(sizing.value) {
  EVA_REQUIRE(size_.size() == c_->devices.size(),
              "sizing does not match netlist");
  dc_.v.assign(c_->num_unknowns(), 0.0);
}

Simulator::Simulator(const PreparedCircuit& circuit, const Sizing& sizing,
                     SimOptions opts)
    : c_(&circuit), opts_(opts), size_(sizing.value) {
  EVA_REQUIRE(size_.size() == c_->devices.size(),
              "sizing does not match netlist");
  dc_.v.assign(c_->num_unknowns(), 0.0);
}

Simulator::Simulator(const PreparedCircuit& circuit, const Sizing& sizing,
                     SimOptions opts, DcPoint dc)
    : c_(&circuit),
      opts_(opts),
      size_(sizing.value),
      dc_(std::move(dc)) {
  EVA_REQUIRE(size_.size() == c_->devices.size() &&
                  dc_.v.size() == c_->num_unknowns(),
              "DC point does not match circuit");
}

bool Simulator::solve_dc() {
  const std::vector<double>* sizes[1] = {&size_};
  solve_dc_batch(*c_, sizes, opts_, {&dc_, 1});
  return dc_.result.converged;
}

double Simulator::io_voltage(IoPin pin) const {
  EVA_ASSERT(dc_.result.converged, "io_voltage requires a converged DC solve");
  const int node = c_->io_node[static_cast<std::size_t>(pin)];
  return node < 0 ? 0.0 : dc_.v[static_cast<std::size_t>(node)];
}

double Simulator::supply_power() const {
  EVA_ASSERT(dc_.result.converged, "supply_power requires a converged DC solve");
  double p =
      opts_.vdd * opts_.iref * static_cast<double>(c_->iref_nodes.size());
  if (c_->vdd_source >= 0) {
    const double i =
        dc_.v[static_cast<std::size_t>(c_->num_nodes + c_->vdd_source)];
    p += std::abs(i) * opts_.vdd;
  }
  return p;
}

std::vector<AcPoint> Simulator::ac_sweep(double f_lo, double f_hi,
                                         int points) const {
  static obs::Counter& pivot_splits = obs::counter("spice.ac_pivot_splits");

  obs::Span span("spice.ac_sweep");
  EVA_ASSERT(dc_.result.converged, "ac_sweep requires a converged DC solve");
  EVA_REQUIRE(points >= 2 && f_hi > f_lo && f_lo > 0, "bad AC sweep range");
  const auto K = static_cast<std::size_t>(c_->num_nodes);
  const std::size_t total = K + c_->sources.size();
  const int out = c_->out_nodes.empty() ? -1 : c_->out_nodes.front();

  // A(w) = G + jwC + inductor branches, with G and C stamped once.
  DenseMatrix<double> g(total), c(total);
  stamp_small_signal(g, c);
  std::vector<std::size_t> inductors;
  for (std::size_t i = 0; i < c_->devices.size(); ++i) {
    if (c_->devices[i].kind == DeviceKind::Inductor) inductors.push_back(i);
  }
  std::vector<double> drive(total, 0.0);
  for (std::size_t s = 0; s < c_->sources.size(); ++s) {
    drive[K + s] = c_->sources[s].ac;
  }

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
    for (const std::size_t i : inductors) {
      // 1/(R + jwL) = (R - jwL) / (R^2 + (wL)^2)
      const Lanes wl = w * size_[i];
      const Lanes den = model::kIndDcRes * model::kIndDcRes + wl * wl;
      const auto& d = c_->devices[i];
      stamp_y(d.n[0], d.n[1], model::kIndDcRes / den, -wl / den);
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
