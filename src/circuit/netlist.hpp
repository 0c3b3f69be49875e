// Netlist: the device-level description of an analog circuit topology.
//
// A Netlist is a list of device instances plus a partition of their pins
// (and the circuit-level IO pins) into nets. This is the object the whole
// pipeline revolves around: dataset generators emit Netlists, the Euler
// tour encodes them into token sequences, the decoder reconstructs them,
// the validity checker and mini-SPICE consume them.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/device.hpp"

namespace eva::circuit {

/// A device instance. `index` is the 1-based per-kind instance number used
/// in pin token names (NM1, NM2, ..., R1, ...).
struct Device {
  DeviceKind kind = DeviceKind::Nmos;
  int index = 1;
};

/// A net: the set of electrically-connected pins.
using Net = std::vector<PinRef>;

class Netlist {
 public:
  Netlist() = default;

  /// Add a device of `kind`; returns its device id (position in devices()).
  /// Per-kind instance indices are assigned 1,2,3,... automatically.
  int add_device(DeviceKind kind);

  /// Create a new net from the given pins (each pin must not already be in
  /// a net). Returns the net id. Throws CircuitError on reuse.
  int add_net(Net pins);

  /// Append a pin to an existing net.
  void connect(int net_id, PinRef pin);

  /// Merge net b into net a (used by structural mutations).
  void merge_nets(int a, int b);

  /// Remove a pin from whatever net contains it (no-op if unconnected).
  /// Used by structural mutations before rewiring the pin elsewhere.
  void disconnect(const PinRef& pin);

  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  [[nodiscard]] const std::vector<Net>& nets() const { return nets_; }

  /// Net id containing `pin`, or nullopt if the pin is unconnected.
  [[nodiscard]] std::optional<int> net_of(const PinRef& pin) const;

  /// Number of devices of each kind.
  [[nodiscard]] std::map<DeviceKind, int> kind_counts() const;

  /// True if the given IO pin appears in some net.
  [[nodiscard]] bool uses_io(IoPin p) const;

  [[nodiscard]] int num_devices() const {
    return static_cast<int>(devices_.size());
  }

  /// Human-readable pin name ("NM1_G", "VSS").
  [[nodiscard]] std::string pin_name(const PinRef& pin) const;

  /// SPICE-like textual dump (for examples / debugging).
  [[nodiscard]] std::string to_spice() const;

  /// Drop empty and single-pin nets (normalization after mutations).
  void prune_degenerate_nets();

 private:
  std::vector<Device> devices_;
  std::vector<Net> nets_;
  std::map<int, int> kind_next_index_;  // per-kind next 1-based index
};

}  // namespace eva::circuit
