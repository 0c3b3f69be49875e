#include "circuit/netlist.hpp"

#include <algorithm>
#include <sstream>

namespace eva::circuit {

int Netlist::add_device(DeviceKind kind) {
  const int key = static_cast<int>(kind);
  int& next = kind_next_index_[key];
  if (next == 0) next = 1;
  devices_.push_back(Device{kind, next});
  ++next;
  return static_cast<int>(devices_.size()) - 1;
}

int Netlist::add_net(Net pins) {
  for (const auto& p : pins) {
    if (!p.is_io()) {
      EVA_REQUIRE(p.device < num_devices(), "net references unknown device");
      EVA_REQUIRE(
          p.pin < pin_count(devices_[static_cast<std::size_t>(p.device)].kind),
          "net references out-of-range pin");
    }
    EVA_REQUIRE(!net_of(p).has_value(),
                "pin " + pin_name(p) + " already belongs to a net");
  }
  // A net must not contain duplicate pins.
  Net sorted = pins;
  std::sort(sorted.begin(), sorted.end());
  EVA_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
              "duplicate pin within a net");
  nets_.push_back(std::move(pins));
  return static_cast<int>(nets_.size()) - 1;
}

void Netlist::connect(int net_id, PinRef pin) {
  EVA_REQUIRE(net_id >= 0 && net_id < static_cast<int>(nets_.size()),
              "connect: unknown net");
  EVA_REQUIRE(!net_of(pin).has_value(),
              "pin " + pin_name(pin) + " already belongs to a net");
  nets_[static_cast<std::size_t>(net_id)].push_back(pin);
}

void Netlist::merge_nets(int a, int b) {
  EVA_REQUIRE(a >= 0 && a < static_cast<int>(nets_.size()) && b >= 0 &&
                  b < static_cast<int>(nets_.size()) && a != b,
              "merge_nets: bad net ids");
  auto& na = nets_[static_cast<std::size_t>(a)];
  auto& nb = nets_[static_cast<std::size_t>(b)];
  na.insert(na.end(), nb.begin(), nb.end());
  nb.clear();
}

void Netlist::disconnect(const PinRef& pin) {
  for (auto& net : nets_) {
    net.erase(std::remove(net.begin(), net.end(), pin), net.end());
  }
}

std::optional<int> Netlist::net_of(const PinRef& pin) const {
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    for (const auto& p : nets_[i]) {
      if (p == pin) return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

std::map<DeviceKind, int> Netlist::kind_counts() const {
  std::map<DeviceKind, int> counts;
  for (const auto& d : devices_) ++counts[d.kind];
  return counts;
}

bool Netlist::uses_io(IoPin p) const {
  for (const auto& net : nets_) {
    for (const auto& pin : net) {
      if (pin.is_io() && pin.io == p) return true;
    }
  }
  return false;
}

std::string Netlist::pin_name(const PinRef& pin) const {
  if (pin.is_io()) return std::string{io_name(pin.io)};
  EVA_ASSERT(pin.device < num_devices(), "pin_name: unknown device");
  const Device& d = devices_[static_cast<std::size_t>(pin.device)];
  std::ostringstream os;
  os << kind_prefix(d.kind) << d.index << '_' << pin_suffix(d.kind, pin.pin);
  return os.str();
}

std::string Netlist::to_spice() const {
  // Name nets: IO nets get their IO name; internal nets get n<k>.
  std::vector<std::string> net_names(nets_.size());
  int anon = 1;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    std::string name;
    for (const auto& p : nets_[i]) {
      if (p.is_io()) {
        name = std::string{io_name(p.io)};
        break;
      }
    }
    if (name.empty()) {
      // Appended, not "n" + ...: GCC 12's -Wrestrict misreads that insert.
      name += 'n';
      name += std::to_string(anon++);
    }
    net_names[i] = std::move(name);
  }
  auto net_name_of = [&](const PinRef& p) -> std::string {
    if (auto id = net_of(p)) return net_names[static_cast<std::size_t>(*id)];
    return "<float>";
  };

  std::ostringstream os;
  os << "* EVA netlist: " << devices_.size() << " devices, " << nets_.size()
     << " nets\n";
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const Device& d = devices_[i];
    os << kind_prefix(d.kind) << d.index;
    for (int p = 0; p < pin_count(d.kind); ++p) {
      os << ' ' << net_name_of(dev_ref(static_cast<int>(i), p));
    }
    switch (d.kind) {
      case DeviceKind::Nmos: os << " nmos"; break;
      case DeviceKind::Pmos: os << " pmos"; break;
      case DeviceKind::Npn: os << " npn"; break;
      case DeviceKind::Pnp: os << " pnp"; break;
      case DeviceKind::Resistor: os << " 10k"; break;
      case DeviceKind::Capacitor: os << " 1p"; break;
      case DeviceKind::Inductor: os << " 1n"; break;
      case DeviceKind::Diode: os << " dmod"; break;
    }
    os << '\n';
  }
  os << ".end\n";
  return os.str();
}

void Netlist::prune_degenerate_nets() {
  std::vector<Net> kept;
  kept.reserve(nets_.size());
  for (auto& net : nets_) {
    if (net.size() >= 2) kept.push_back(std::move(net));
  }
  nets_ = std::move(kept);
}

}  // namespace eva::circuit
