// Figure-of-merit extraction (paper §IV-A, "Discovery efficiency").
//
// Op-Amps (and other small-signal types): FoM = A0 * UGBW[MHz] / P[mW],
// the classic gain-bandwidth-per-power merit the paper's Op-Amp numbers
// are consistent with (hundreds for simple OTAs, ~1e4 for optimized
// multi-stage designs).
//
// Power converters: two-phase quasi-static averaged analysis; FoM =
// |conversion ratio| * efficiency * 4, landing in the paper's 2-4 range
// for reasonable converters (substitution documented in DESIGN.md §4).
#pragma once

#include <optional>
#include <span>

#include "circuit/classify.hpp"
#include "spice/engine.hpp"

namespace eva::spice {

/// Measured performance of one sized topology.
struct Performance {
  bool ok = false;        // simulation succeeded end to end
  double fom = 0.0;       // scalar figure of merit (>= 0)
  // Small-signal details (amplifier-like types):
  double gain = 0.0;      // |H| at low frequency (linear)
  double gain_db = 0.0;
  double bw_hz = 0.0;     // -3 dB bandwidth
  double ugbw_hz = 0.0;   // unity-gain frequency
  double power_w = 0.0;
  // Converter details:
  double ratio = 0.0;       // Vout / Vdd (two-phase average)
  double efficiency = 0.0;  // Pout / Pin
};

/// One topology prepared for evaluation as one circuit type: the structure
/// verdict, the MNA mapping and the sizing bounds are built once, so each
/// evaluation only stamps its own device values. Const methods may run
/// concurrently.
class Evaluator {
 public:
  Evaluator(const circuit::Netlist& nl, circuit::CircuitType type,
            const SimOptions& base = {});

  /// Performance at one sizing. Never throws on non-convergence — returns
  /// ok = false.
  [[nodiscard]] Performance evaluate(const Sizing& sizing) const;

  /// out[i] = evaluate(sizings[i]) for every i, bit for bit, with the DC
  /// operating points solved side by side (DESIGN.md §6, "Mini-SPICE DC
  /// solve").
  void evaluate(std::span<const Sizing> sizings,
                std::span<Performance> out) const;

  /// sizing_from_unit over this topology's bounds.
  [[nodiscard]] Sizing sizing_from_unit(const std::vector<double>& u) const {
    return spice::sizing_from_unit(space_, u);
  }

 private:
  circuit::CircuitType type_;
  SimOptions base_;
  // Empty when the netlist is structurally invalid or cannot be mapped:
  // every evaluation then fails without a solve.
  std::optional<PreparedCircuit> circuit_;
  circuit::IoPin converter_out_ = circuit::IoPin::Vout1;
  std::vector<SizeBounds> space_;
};

/// Evaluate a sized topology as circuit type `type`: an Evaluator used
/// once. Never throws on non-convergence — returns ok = false.
[[nodiscard]] Performance evaluate(const circuit::Netlist& nl,
                                   const Sizing& sizing,
                                   circuit::CircuitType type,
                                   const SimOptions& base = {});

/// Evaluate with default sizing.
[[nodiscard]] Performance evaluate_default(const circuit::Netlist& nl,
                                           circuit::CircuitType type);

}  // namespace eva::spice
