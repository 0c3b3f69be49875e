#include "spice/fom.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "circuit/validity.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "util/fault.hpp"

namespace eva::spice {

using circuit::CircuitType;
using circuit::Netlist;

namespace {

/// Map any non-finite performance figure to a failed evaluation. A NaN or
/// Inf FoM must read as "invalid circuit" downstream, never leak into the
/// reward path (where it would poison advantage normalization and Otsu
/// thresholding). Fault site `fom_nan` forces the case.
Performance sanitize(Performance perf) {
  if (perf.ok && fault::enabled() && fault::should_fire("fom_nan")) {
    perf.fom = std::numeric_limits<double>::quiet_NaN();
  }
  const bool finite =
      std::isfinite(perf.fom) && std::isfinite(perf.gain) &&
      std::isfinite(perf.gain_db) && std::isfinite(perf.bw_hz) &&
      std::isfinite(perf.ugbw_hz) && std::isfinite(perf.power_w) &&
      std::isfinite(perf.ratio) && std::isfinite(perf.efficiency);
  if (perf.ok && !finite) {
    obs::counter("spice.fom_nonfinite").add();
    obs::log_every_n(obs::LogLevel::kWarn, "spice.fom_nonfinite", 64,
                     {{"fom", perf.fom}, {"gain", perf.gain}});
    perf = Performance{};  // ok = false, all figures zeroed
  }
  return perf;
}

/// Small-signal figures at a converged DC point.
Performance smallsignal_perf(const Simulator& sim, const SimOptions& opts) {
  Performance perf;
  try {
    perf.power_w = std::max(sim.supply_power(), 1e-9);
    const auto sweep = sim.ac_sweep(1.0, 1e10, std::max(opts.ac_points, 2));
    if (sweep.empty()) return perf;

    const double a0 = std::abs(sweep.front().h);
    if (!std::isfinite(a0) || a0 > 1e6) {
      // A "gain" this large is a near-singular MNA artifact, not a
      // credible small-signal result: reject rather than reward it.
      return perf;
    }
    perf.gain = a0;
    perf.gain_db = 20.0 * std::log10(std::max(a0, 1e-12));
    // -3 dB bandwidth: first crossing below a0/sqrt(2).
    const double bw_level = a0 / std::sqrt(2.0);
    perf.bw_hz = sweep.back().freq_hz;
    for (std::size_t i = 1; i < sweep.size(); ++i) {
      if (std::abs(sweep[i].h) < bw_level) {
        perf.bw_hz = sweep[i - 1].freq_hz;
        break;
      }
    }
    // Unity-gain frequency: first crossing below 1 (0 dB).
    perf.ugbw_hz = 0.0;
    if (a0 > 1.0) {
      perf.ugbw_hz = sweep.back().freq_hz;
      for (std::size_t i = 1; i < sweep.size(); ++i) {
        if (std::abs(sweep[i].h) < 1.0) {
          // Log interpolation between the two sweep points.
          const double m0 = std::abs(sweep[i - 1].h);
          const double m1 = std::abs(sweep[i].h);
          const double t = std::log(m0) / std::max(std::log(m0 / m1), 1e-12);
          perf.ugbw_hz = sweep[i - 1].freq_hz *
                         std::pow(sweep[i].freq_hz / sweep[i - 1].freq_hz,
                                  std::clamp(t, 0.0, 1.0));
          break;
        }
      }
    }
    // FoM: gain * UGBW[MHz] / power[mW]; gain-only fallback keeps a weak
    // signal for circuits that never reach unity gain.
    const double ugbw_mhz = perf.ugbw_hz / 1e6;
    const double p_mw = perf.power_w * 1e3;
    perf.fom = perf.gain * std::max(ugbw_mhz, 1e-3) / std::max(p_mw, 1e-4);
    perf.ok = true;
  } catch (const Error&) {
    perf.ok = false;
  }
  return perf;
}

}  // namespace

Evaluator::Evaluator(const Netlist& nl, CircuitType type,
                     const SimOptions& base)
    : type_(type), base_(base), space_(sizing_space(nl)) {
  if (!circuit::structurally_valid(nl)) return;
  try {
    circuit_.emplace(nl);
  } catch (const Error&) {
    circuit_.reset();
  }
  if (!nl.uses_io(circuit::IoPin::Vout1)) {
    converter_out_ = circuit::IoPin::Vout2;
  }
}

Performance Evaluator::evaluate(const Sizing& sizing) const {
  Performance perf;
  evaluate({&sizing, 1}, {&perf, 1});
  return perf;
}

void Evaluator::evaluate(std::span<const Sizing> sizings,
                         std::span<Performance> out) const {
  EVA_REQUIRE(sizings.size() == out.size(), "evaluate: batch size mismatch");
  std::fill(out.begin(), out.end(), Performance{});
  if (!circuit_) return;
  const PreparedCircuit& c = *circuit_;
  // Candidates whose sizing fits the netlist; the others fail unsolved.
  std::vector<std::size_t> todo;
  std::vector<const std::vector<double>*> sizes;
  for (std::size_t i = 0; i < sizings.size(); ++i) {
    if (sizings[i].value.size() != c.devices.size()) continue;
    todo.push_back(i);
    sizes.push_back(&sizings[i].value);
  }
  std::vector<DcPoint> dc(todo.size());
  SimOptions opts = base_;

  if (type_ != CircuitType::PowerConverter) {
    opts.converter_mode = false;
    solve_dc_batch(c, sizes, opts, dc);
    for (std::size_t k = 0; k < todo.size(); ++k) {
      if (!dc[k].result.converged) continue;
      const std::size_t i = todo[k];
      out[i] = sanitize(smallsignal_perf(
          Simulator(c, sizings[i], opts, std::move(dc[k])), opts));
    }
    return;
  }

  // Converters: two-phase quasi-static averaged analysis. Phase B solves
  // only the candidates whose phase A converged.
  opts.converter_mode = true;
  opts.phase_a = true;
  solve_dc_batch(c, sizes, opts, dc);
  std::vector<std::size_t> both;
  std::vector<const std::vector<double>*> sizes_b;
  for (std::size_t k = 0; k < todo.size(); ++k) {
    if (!dc[k].result.converged) continue;
    both.push_back(k);
    sizes_b.push_back(sizes[k]);
  }
  SimOptions opts_b = opts;
  opts_b.phase_a = false;
  std::vector<DcPoint> dc_b(both.size());
  solve_dc_batch(c, sizes_b, opts_b, dc_b);
  for (std::size_t j = 0; j < both.size(); ++j) {
    if (!dc_b[j].result.converged) continue;
    const std::size_t k = both[j];
    const std::size_t i = todo[k];
    const Simulator phase_a(c, sizings[i], opts, std::move(dc[k]));
    const Simulator phase_b(c, sizings[i], opts_b, std::move(dc_b[j]));
    double vout_sum = 0.0;
    double pin_sum = 0.0;
    for (const Simulator* sim : {&phase_a, &phase_b}) {
      vout_sum += sim->io_voltage(converter_out_);
      pin_sum += sim->supply_power();
    }
    Performance perf;
    const double vout = vout_sum / 2.0;
    const double pin = std::max(pin_sum / 2.0, 1e-12);
    const double pout = vout * vout / opts.load_res;
    perf.ratio = vout / opts.vdd;
    perf.efficiency = std::clamp(pout / pin, 0.0, 1.0);
    perf.power_w = pin;
    perf.fom = std::abs(perf.ratio) * perf.efficiency * 4.0;
    perf.ok = true;
    out[i] = sanitize(perf);
  }
}

Performance evaluate(const Netlist& nl, const Sizing& sizing,
                     CircuitType type, const SimOptions& base) {
  return Evaluator(nl, type, base).evaluate(sizing);
}

Performance evaluate_default(const Netlist& nl, CircuitType type) {
  return evaluate(nl, default_sizing(nl), type);
}

}  // namespace eva::spice
