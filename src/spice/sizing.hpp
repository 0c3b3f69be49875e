// Device sizing: the continuous parameters attached to a fixed topology.
//
// The paper separates topology discovery (EVA's job) from sizing: FoM@10
// is measured "after sizing with a genetic algorithm and SPICE evaluation"
// (§IV-A), and validity is checked "with default sizing" (§III-C1). This
// module defines one primary size per device (MOS width, R/C/L value,
// junction area), the per-device bounds for the GA, and the default sizing.
#pragma once

#include <vector>

#include "circuit/netlist.hpp"

namespace eva::spice {

/// One primary size value per device, aligned with Netlist::devices().
struct Sizing {
  std::vector<double> value;
};

/// Search bounds for one device's size. `log_scale` means GA interpolation
/// happens in log space (R/C/L span decades).
struct SizeBounds {
  double lo = 0.0;
  double hi = 0.0;
  double def = 0.0;  // default value (validity checks, initial guesses)
  bool log_scale = true;
};

/// Bounds per device for a netlist.
[[nodiscard]] std::vector<SizeBounds> sizing_space(const circuit::Netlist& nl);

/// The paper's "default sizing" used by the validity checker.
[[nodiscard]] Sizing default_sizing(const circuit::Netlist& nl);

/// Map a unit-cube point u in [0,1]^n to a concrete sizing (the GA's
/// genotype-to-phenotype decoding).
[[nodiscard]] Sizing sizing_from_unit(const circuit::Netlist& nl,
                                      const std::vector<double>& u);

/// The same decoding over bounds sizing_space already gave.
[[nodiscard]] Sizing sizing_from_unit(const std::vector<SizeBounds>& space,
                                      const std::vector<double>& u);

}  // namespace eva::spice
