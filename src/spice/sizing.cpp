#include "spice/sizing.hpp"

#include <algorithm>
#include <cmath>

namespace eva::spice {

using circuit::DeviceKind;

namespace {

SizeBounds bounds_for(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::Nmos:
    case DeviceKind::Pmos:
      // Width in meters (L fixed inside the model).
      return {1e-6, 4e-4, 1e-5, true};
    case DeviceKind::Npn:
    case DeviceKind::Pnp:
    case DeviceKind::Diode:
      // Junction area multiplier.
      return {1.0, 32.0, 1.0, true};
    case DeviceKind::Resistor:
      return {1e2, 1e6, 1e4, true};
    case DeviceKind::Capacitor:
      return {1e-13, 5e-11, 1e-12, true};
    case DeviceKind::Inductor:
      return {1e-9, 1e-4, 1e-6, true};
  }
  return {1.0, 1.0, 1.0, false};
}

}  // namespace

std::vector<SizeBounds> sizing_space(const circuit::Netlist& nl) {
  std::vector<SizeBounds> out;
  out.reserve(nl.devices().size());
  for (const auto& d : nl.devices()) out.push_back(bounds_for(d.kind));
  return out;
}

Sizing default_sizing(const circuit::Netlist& nl) {
  Sizing s;
  s.value.reserve(nl.devices().size());
  for (const auto& d : nl.devices()) s.value.push_back(bounds_for(d.kind).def);
  return s;
}

Sizing sizing_from_unit(const circuit::Netlist& nl,
                        const std::vector<double>& u) {
  return sizing_from_unit(sizing_space(nl), u);
}

Sizing sizing_from_unit(const std::vector<SizeBounds>& space,
                        const std::vector<double>& u) {
  EVA_REQUIRE(u.size() == space.size(), "sizing_from_unit length mismatch");
  Sizing s;
  s.value.reserve(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    const double t = std::clamp(u[i], 0.0, 1.0);
    const auto& b = space[i];
    if (b.log_scale) {
      s.value.push_back(
          std::exp(std::log(b.lo) + t * (std::log(b.hi) - std::log(b.lo))));
    } else {
      s.value.push_back(b.lo + t * (b.hi - b.lo));
    }
  }
  return s;
}

}  // namespace eva::spice
