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
#include <complex>
#include <memory>
#include <span>
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

/// Technology-like constants of the behavioural device models.
namespace model {
inline constexpr double kVthN = 0.5;
inline constexpr double kVthP = 0.5;
inline constexpr double kKpN = 2.0e-4;   // A/V^2 per W/L
inline constexpr double kKpP = 8.0e-5;
inline constexpr double kMosL = 1.0e-6;  // fixed channel length
inline constexpr double kLambda = 0.1;
inline constexpr double kDiodeIs = 1e-14;
inline constexpr double kVt = 0.02585;
inline constexpr double kBjtBeta = 100.0;
inline constexpr double kBjtVa = 50.0;
inline constexpr double kIndDcRes = 1.0;  // inductor DC series resistance
// Converter-mode switch on- and off-resistance.
inline constexpr double kSwitchOn = 2.0;
inline constexpr double kSwitchOff = 1e8;
}  // namespace model

/// What every simulation of one netlist shares, whatever its sizing: the
/// netlist -> MNA mapping, built once per topology (DESIGN.md §6,
/// "Mini-SPICE DC solve"). Unknowns are the non-ground nets' voltages,
/// then one branch current per voltage source.
///
/// Preconditions: the netlist must be structurally valid (all pins in
/// nets, VSS present); construction throws Error on a malformed one.
struct PreparedCircuit {
  struct Device {
    circuit::DeviceKind kind{};
    int n[4] = {-1, -1, -1, -1};  // node per pin (-1 = ground)
    bool clk_gate = false;        // gate driven by a clock net
    bool clk_is_phase1 = false;   // ... by CLK1 (vs CLK2)
  };
  struct Source {
    int node = -1;
    circuit::IoPin bias{};  // the IO pin whose bias forces the net
    double ac = 0.0;  // AC drive amplitude (real: in-phase or inverted)
  };

  explicit PreparedCircuit(const circuit::Netlist& nl);

  /// DC value of source `s` under `opts`.
  [[nodiscard]] static double source_dc(const Source& s,
                                        const SimOptions& opts);

  int num_nodes = 0;  // non-ground nets
  std::vector<Device> devices;
  std::vector<Source> sources;
  // IREF attachments: node plus current direction (+1 injects into the
  // net — an NMOS-diode reference; -1 sinks out of it — a PMOS-diode
  // reference, which must pull current from the mirror).
  std::vector<std::pair<int, double>> iref_nodes;
  std::vector<int> out_nodes;  // nets carrying VOUT pins
  // Node of the net carrying each IO pin (-1: the ground net, or unused).
  std::array<int, circuit::kNumIoPins> io_node{};
  int vdd_source = -1;  // index into sources of the VDD source

  [[nodiscard]] std::size_t num_unknowns() const {
    return static_cast<std::size_t>(num_nodes) + sources.size();
  }
};

/// The DC operating point of one sizing: node voltages then source
/// currents (all zero unless result.converged), and how the solve went.
struct DcPoint {
  std::vector<double> v;
  SolveResult result;
};

/// Newton DC solves of one circuit at many sizings: out[i] for
/// sizes[i] (one value per device). The candidates share one MNA pattern,
/// so they are solved side by side, kLanes to a group, and each is bitwise
/// the solve of it alone (DESIGN.md §6, "Mini-SPICE DC solve"): a lane
/// that converges freezes, the iteration cap, the attempt cap and source
/// stepping are per lane, and the last few lanes of a group finish at
/// width 1. Every candidate counts in the metrics as one
/// Simulator::solve_dc() does, and meets the `spice_dc` fault site in
/// candidate order before its solve. The wall-clock deadline is one per
/// group.
void solve_dc_batch(const PreparedCircuit& circuit,
                    std::span<const std::vector<double>* const> sizes,
                    const SimOptions& opts, std::span<DcPoint> out);

/// DC + AC simulation of one sized netlist.
///
/// Preconditions: as PreparedCircuit's. Construction from a netlist
/// performs the netlist -> MNA mapping; construction from a prepared
/// circuit only takes the sizing. solve_dc() runs Newton; ac_sweep()
/// requires a converged DC point.
class Simulator {
 public:
  Simulator(const circuit::Netlist& nl, const Sizing& sizing,
            SimOptions opts = {});
  /// `circuit` must outlive the simulator.
  Simulator(const PreparedCircuit& circuit, const Sizing& sizing,
            SimOptions opts = {});
  /// A simulator at the DC point solve_dc_batch found for this circuit,
  /// sizing and options, as if solve_dc() had just returned it.
  Simulator(const PreparedCircuit& circuit, const Sizing& sizing,
            SimOptions opts, DcPoint dc);

  /// Newton DC solve (with source-stepping fallback). Returns success.
  /// Iteration counts, fallback use and failure detail are recorded in
  /// dc_result() and in the obs metrics (spice.nr_iters histogram,
  /// spice.dc_nonconverged counter).
  [[nodiscard]] bool solve_dc();

  /// Detail of the most recent solve_dc() call.
  [[nodiscard]] const SolveResult& dc_result() const { return dc_.result; }

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

  [[nodiscard]] int num_nodes() const { return c_->num_nodes; }

 private:
  /// Frequency-independent part of the AC system at the DC point:
  /// conductances `g` (everything but capacitors and inductors) and
  /// capacitances `c`, so that A(w) = G + jwC plus the inductor branches.
  void stamp_small_signal(DenseMatrix<double>& g,
                          DenseMatrix<double>& c) const;

  std::unique_ptr<const PreparedCircuit> owned_;  // built from a netlist
  const PreparedCircuit* c_;
  SimOptions opts_;
  std::vector<double> size_;  // per device, as the sizing gave it
  DcPoint dc_;  // the most recent DC solve
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
