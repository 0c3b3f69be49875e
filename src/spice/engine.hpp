// Mini-SPICE: nonlinear DC operating point (Newton-Raphson over MNA) and
// small-signal AC analysis.
//
// This is the substitute for the commercial SPICE simulator the paper
// evaluates with (DESIGN.md §4). It supports exactly the oracle signals
// the EVA pipeline needs:
//   * "is this topology simulatable?" — DC convergence with default sizing
//     (the rule-based half of the reward model, and the Validity metric),
//   * small-signal gain / bandwidth / power for FoM extraction,
//   * a two-phase quasi-static mode for switched power converters.
//
// Device models: square-law MOS with channel-length modulation (no body
// effect; the bulk pin participates structurally only), exponential diode,
// BJT as a base-emitter diode driving a beta-scaled VCCS, linear R/C/L.
// Newton uses voltage-step damping plus source stepping as fallback.
#pragma once

#include <array>
#include <chrono>
#include <complex>
#include <optional>
#include <vector>

#include "circuit/netlist.hpp"
#include "spice/mna.hpp"
#include "spice/sizing.hpp"

namespace eva::spice {

/// Global simulation constants and bias plan.
struct SimOptions {
  double vdd = 1.8;
  double vcm = 0.9;    // DC bias on VIN pins (common mode)
  double vb1 = 0.6;    // bias pins
  double vb2 = 1.2;
  double iref = 2e-5;  // reference current injected into the IREF net
  double gmin = 1e-9;  // convergence conductance from every node to ground
  double load_cap = 1e-12;   // AC load on outputs
  double load_res = 100.0;   // converter-mode load on outputs
  int max_newton_iter = 120;
  double newton_tol = 1e-7;
  double max_step = 0.5;     // Newton voltage damping
  /// Converter mode: clock-gated MOS become phase-dependent switches and
  /// a resistive load is attached to the output.
  bool converter_mode = false;
  /// Phase for converter mode: true = CLK1 high / CLK2 low.
  bool phase_a = true;
  /// Wall-clock budget for one solve_dc() across all Newton attempts,
  /// including the source-stepping ramp (<= 0 disables the deadline).
  /// Pathological topologies otherwise burn an unbounded slice of every
  /// RL epoch in the reward path.
  double dc_deadline_ms = 2000.0;
  /// Hard cap on Newton attempts per solve_dc() (initial solve plus
  /// source-stepping ramp stages).
  int max_dc_attempts = 16;
  /// Points in the log-spaced AC sweep FoM extraction runs (each point is
  /// one complex linear solve, so cost scales linearly). 61 resolves the
  /// -3 dB and unity-gain crossings to ~1/6 decade.
  int ac_points = 61;
};

/// One point of an AC transfer-function sweep.
struct AcPoint {
  double freq_hz = 0.0;
  std::complex<double> h;  // Vout / Vin
};

/// Outcome of a DC solve. Distinguishes "the solver gave up" from
/// "this circuit has no operating point worth reporting": a failed
/// Newton attempt that the source-stepping fallback rescues still
/// counts in failed_attempts, and a final non-convergence leaves
/// converged == false with the attempt trail intact.
struct SolveResult {
  bool converged = false;
  int iterations = 0;           // NR iterations summed over all attempts
  int failed_attempts = 0;      // attempts that hit the cap or a singular LU
  bool used_source_stepping = false;
  bool deadline_exceeded = false;  // gave up on the wall-clock/attempt caps
};

/// DC + AC simulation of one sized netlist.
///
/// Preconditions: the netlist must be structurally valid (all pins in
/// nets, VSS present). Construction performs the netlist -> MNA mapping;
/// solve_dc() runs Newton; ac_sweep() requires a converged DC point.
class Simulator {
 public:
  Simulator(const circuit::Netlist& nl, const Sizing& sizing,
            SimOptions opts = {});

  /// Newton DC solve (with source-stepping fallback). Returns success.
  /// Iteration counts, fallback use and failure detail are recorded in
  /// dc_result() and in the obs metrics (spice.nr_iters histogram,
  /// spice.dc_nonconverged counter).
  [[nodiscard]] bool solve_dc();

  /// Detail of the most recent solve_dc() call.
  [[nodiscard]] const SolveResult& dc_result() const { return dc_result_; }

  /// Voltage of the net containing the given IO pin at the DC point.
  /// Requires a converged DC solve. Returns 0 for the ground net.
  [[nodiscard]] double io_voltage(circuit::IoPin pin) const;

  /// Total supply power (VDD source power + IREF bias power), W.
  [[nodiscard]] double supply_power() const;

  /// Log-spaced AC transfer sweep Vout/Vin. Uses differential drive on
  /// VIN1/VIN2 when both exist, single-ended VIN otherwise. Output is
  /// VOUT1 (falling back to VOUT2).
  [[nodiscard]] std::vector<AcPoint> ac_sweep(double f_lo = 1.0,
                                              double f_hi = 1e10,
                                              int points = 61) const;

  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] bool dc_converged() const { return dc_converged_; }

 private:
  struct DeviceCtx {
    circuit::DeviceKind kind{};
    double size = 0.0;
    int n[4] = {-1, -1, -1, -1};  // node per pin (-1 = ground)
    bool clk_gate = false;        // gate driven by a clock net
    bool clk_is_phase1 = false;   // ... by CLK1 (vs CLK2)
  };
  struct VSource {
    int node = -1;
    double dc = 0.0;
    double ac = 0.0;  // AC drive amplitude (real: in-phase or inverted)
  };

  [[nodiscard]] bool newton(double source_scale);
  /// True once the solve_dc() wall-clock deadline has passed (marks the
  /// result; checked once per Newton iteration).
  [[nodiscard]] bool dc_deadline_hit();
  void stamp_dc(DenseMatrix<double>& mat, std::vector<double>& rhs,
                const std::vector<double>& v, double source_scale) const;
  /// Frequency-independent part of the AC system at the DC point:
  /// conductances `g` (everything but capacitors and inductors) and
  /// capacitances `c`, so that A(w) = G + jwC plus the inductor branches.
  void stamp_small_signal(DenseMatrix<double>& g,
                          DenseMatrix<double>& c) const;

  const circuit::Netlist* nl_;
  SimOptions opts_;
  std::chrono::steady_clock::time_point dc_deadline_{};
  bool dc_deadline_armed_ = false;
  int num_nodes_ = 0;   // non-ground nets
  int num_vsrc_ = 0;
  std::vector<DeviceCtx> devs_;
  std::vector<VSource> vsrcs_;
  // IREF attachments: node plus current direction (+1 injects into the
  // net — an NMOS-diode reference; -1 sinks out of it — a PMOS-diode
  // reference, which must pull current from the mirror).
  std::vector<std::pair<int, double>> iref_nodes_;
  std::vector<int> out_nodes_;  // nets carrying VOUT pins
  // Node of the net carrying each IO pin (-1: the ground net, or unused).
  std::array<int, circuit::kNumIoPins> io_node_{};
  int in1_node_ = -1, in2_node_ = -1;
  int vdd_src_ = -1;  // index into vsrcs_ of the VDD source
  std::vector<double> v_;  // solution: node voltages then source currents
  bool dc_converged_ = false;
  SolveResult dc_result_;
};

/// Why a netlist failed (or passed) the validity predicate. Lets the
/// validity metrics separate "invalid circuit" from "solver gave up".
enum class SimVerdict {
  kOk,                   // structurally valid and DC-converged
  kStructurallyInvalid,  // failed circuit::structurally_valid
  kNonConverged,         // Newton + source stepping both gave up
  kError,                // netlist -> MNA mapping threw (malformed input)
};

[[nodiscard]] SimVerdict simulatable_verdict(const circuit::Netlist& nl);

/// The paper's validity predicate: structurally sound AND simulatable with
/// default sizing (DC operating point exists). Equivalent to
/// simulatable_verdict(nl) == SimVerdict::kOk.
[[nodiscard]] bool simulatable(const circuit::Netlist& nl);

}  // namespace eva::spice
