#include "circuit/pingraph.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

namespace eva::circuit {

std::string PinToken::name() const {
  if (is_io) return std::string{io_name(io)};
  std::ostringstream os;
  os << kind_prefix(kind) << index << '_' << pin_suffix(kind, pin);
  return os.str();
}

std::uint32_t pack_token(const PinToken& t) {
  if (t.is_io) return (1u << 30) | static_cast<std::uint32_t>(t.io);
  EVA_ASSERT(t.index >= 1 && t.index < (1 << 16), "device index out of range");
  EVA_ASSERT(t.pin >= 0 && t.pin < pin_count(t.kind), "pin out of range");
  return (static_cast<std::uint32_t>(t.kind) << 20) |
         (static_cast<std::uint32_t>(t.index) << 4) |
         static_cast<std::uint32_t>(t.pin);
}

PinToken unpack_token(std::uint32_t key) {
  if (key & (1u << 30)) {
    return io_token(static_cast<IoPin>(key & 0xFFFF));
  }
  return dev_token(static_cast<DeviceKind>((key >> 20) & 0xFF),
                   static_cast<int>((key >> 4) & 0xFFFF),
                   static_cast<int>(key & 0xF));
}

namespace {

/// Deterministic device-cycle edges for a device instance: a cycle through
/// its pins for 3- and 4-pin devices, a doubled edge for 2-pin devices.
/// These edges make the multigraph connected per-device and keep all
/// degrees even; decode subtracts exactly this multiset.
std::vector<std::pair<PinToken, PinToken>> device_cycle_edges(DeviceKind kind,
                                                              int index) {
  std::vector<std::pair<PinToken, PinToken>> out;
  const int n = pin_count(kind);
  if (n == 2) {
    out.emplace_back(dev_token(kind, index, 0), dev_token(kind, index, 1));
    out.emplace_back(dev_token(kind, index, 0), dev_token(kind, index, 1));
  } else {
    for (int p = 0; p < n; ++p) {
      out.emplace_back(dev_token(kind, index, p),
                       dev_token(kind, index, (p + 1) % n));
    }
  }
  return out;
}

/// Net edges: cycle through the pins for k >= 3, doubled edge for k == 2.
template <typename AddEdge>
void add_net_edges(const std::vector<PinToken>& pins, AddEdge add) {
  const std::size_t k = pins.size();
  if (k < 2) return;  // degenerate net: contributes nothing
  if (k == 2) {
    add(pins[0], pins[1]);
    add(pins[0], pins[1]);
    return;
  }
  for (std::size_t i = 0; i < k; ++i) add(pins[i], pins[(i + 1) % k]);
}

std::uint64_t edge_key(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

PinGraph PinGraph::from_netlist(const Netlist& nl) {
  PinGraph g;
  std::unordered_map<std::uint32_t, std::size_t> vid;
  auto vertex = [&](const PinToken& t) -> std::size_t {
    const auto key = pack_token(t);
    auto [it, inserted] = vid.emplace(key, g.vertices_.size());
    if (inserted) {
      g.vertices_.push_back(t);
      g.incident_.emplace_back();
    }
    return it->second;
  };
  auto add_edge = [&](const PinToken& a, const PinToken& b,
                      bool is_device_edge) {
    const std::size_t u = vertex(a);
    const std::size_t v = vertex(b);
    const std::size_t e = g.edges_.size();
    g.edges_.emplace_back(u, v);
    g.edge_is_device_.push_back(is_device_edge ? 1 : 0);
    g.incident_[u].push_back(e);
    g.incident_[v].push_back(e);
  };

  // Device cycles (every pin of every device becomes a vertex).
  for (std::size_t d = 0; d < nl.devices().size(); ++d) {
    const Device& dev = nl.devices()[d];
    for (auto& [a, b] : device_cycle_edges(dev.kind, dev.index)) {
      add_edge(a, b, true);
    }
  }

  // Net cycles.
  for (const auto& net : nl.nets()) {
    std::vector<PinToken> pins;
    pins.reserve(net.size());
    for (const auto& p : net) {
      if (p.is_io()) {
        pins.push_back(io_token(p.io));
      } else {
        const Device& dev = nl.devices()[static_cast<std::size_t>(p.device)];
        pins.push_back(dev_token(dev.kind, dev.index, p.pin));
      }
    }
    add_net_edges(pins, [&](const PinToken& a, const PinToken& b) {
      add_edge(a, b, false);
    });
  }
  return g;
}

std::size_t PinGraph::degree(std::size_t v) const {
  EVA_ASSERT(v < incident_.size(), "degree: vertex out of range");
  return incident_[v].size();
}

bool PinGraph::all_degrees_even() const {
  for (const auto& inc : incident_) {
    if (inc.size() % 2 != 0) return false;
  }
  return true;
}

bool PinGraph::connected() const {
  if (vertices_.empty()) return true;
  std::vector<char> seen(vertices_.size(), 0);
  std::vector<std::size_t> stack{0};
  seen[0] = 1;
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    for (std::size_t e : incident_[v]) {
      const auto [a, b] = edges_[e];
      const std::size_t w = (a == v) ? b : a;
      if (!seen[w]) {
        seen[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; });
}

std::vector<PinToken> PinGraph::euler_tour(Rng& rng,
                                           TourPolicy policy) const {
  // Locate VSS.
  std::size_t start = vertices_.size();
  for (std::size_t v = 0; v < vertices_.size(); ++v) {
    if (vertices_[v].is_io && vertices_[v].io == IoPin::Vss) {
      start = v;
      break;
    }
  }
  if (start == vertices_.size()) {
    throw CircuitError("euler_tour: netlist has no VSS pin");
  }
  if (!all_degrees_even()) {
    throw CircuitError("euler_tour: odd-degree vertex (internal invariant)");
  }

  // Randomize traversal order per vertex (sequence augmentation). Under
  // DeviceFirst, device-cycle edges are tried before net edges so each
  // device's pins form a contiguous run in the tour — a local grammar the
  // generation model can master at small scale (DESIGN.md §2).
  std::vector<std::vector<std::size_t>> inc = incident_;
  for (auto& list : inc) {
    rng.shuffle(list);
    if (policy == TourPolicy::DeviceFirst) {
      std::stable_partition(list.begin(), list.end(), [this](std::size_t e) {
        return edge_is_device_[e] != 0;
      });
    }
  }

  // Iterative Hierholzer.
  std::vector<char> used(edges_.size(), 0);
  std::vector<std::size_t> ptr(vertices_.size(), 0);
  std::vector<std::size_t> stack{start};
  std::vector<std::size_t> tour;
  tour.reserve(edges_.size() + 1);
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    bool advanced = false;
    while (ptr[v] < inc[v].size()) {
      const std::size_t e = inc[v][ptr[v]++];
      if (used[e]) continue;
      used[e] = 1;
      const auto [a, b] = edges_[e];
      stack.push_back(a == v ? b : a);
      advanced = true;
      break;
    }
    if (!advanced) {
      tour.push_back(v);
      stack.pop_back();
    }
  }
  if (tour.size() != edges_.size() + 1) {
    throw CircuitError("euler_tour: graph is disconnected");
  }
  std::reverse(tour.begin(), tour.end());

  std::vector<PinToken> tokens;
  tokens.reserve(tour.size());
  for (std::size_t v : tour) tokens.push_back(vertices_[v]);
  return tokens;
}

std::vector<PinToken> encode_tour(const Netlist& nl, Rng& rng,
                                  PinGraph::TourPolicy policy) {
  return PinGraph::from_netlist(nl).euler_tour(rng, policy);
}

DecodeResult decode_tour(const std::vector<PinToken>& tour) {
  DecodeResult res;
  if (tour.size() < 3) {
    res.error = "sequence too short";
    return res;
  }
  const PinToken vss = io_token(IoPin::Vss);
  if (!(tour.front() == vss)) {
    res.error = "tour must start at VSS";
    return res;
  }
  if (!(tour.back() == vss)) {
    res.error = "tour must return to VSS";
    return res;
  }

  // Walk-edge multiset.
  std::unordered_map<std::uint64_t, int> edge_count;
  for (std::size_t i = 0; i + 1 < tour.size(); ++i) {
    const auto a = pack_token(tour[i]);
    const auto b = pack_token(tour[i + 1]);
    if (a == b) {
      res.error = "self-loop at " + tour[i].name();
      return res;
    }
    ++edge_count[edge_key(a, b)];
  }

  // Device instances mentioned anywhere in the tour.
  std::map<std::pair<DeviceKind, int>, bool> instances;
  for (const auto& t : tour) {
    if (!t.is_io) instances[{t.kind, t.index}] = true;
  }

  // Subtract every instance's deterministic device-cycle edges.
  for (const auto& [inst, unused] : instances) {
    (void)unused;
    for (auto& [a, b] : device_cycle_edges(inst.first, inst.second)) {
      auto it = edge_count.find(edge_key(pack_token(a), pack_token(b)));
      if (it == edge_count.end() || it->second == 0) {
        res.error = "incomplete device cycle for " +
                    std::string{kind_prefix(inst.first)} +
                    std::to_string(inst.second);
        return res;
      }
      --it->second;
    }
  }

  // Collect all vertices: every pin of every seen instance + IO tokens seen.
  std::vector<PinToken> verts;
  std::unordered_map<std::uint32_t, std::size_t> vid;
  auto vertex = [&](const PinToken& t) -> std::size_t {
    const auto key = pack_token(t);
    auto [it, inserted] = vid.emplace(key, verts.size());
    if (inserted) verts.push_back(t);
    return it->second;
  };
  for (const auto& [inst, unused] : instances) {
    (void)unused;
    for (int p = 0; p < pin_count(inst.first); ++p) {
      vertex(dev_token(inst.first, inst.second, p));
    }
  }
  for (const auto& t : tour) {
    if (t.is_io) vertex(t);
  }

  // Remaining edges define net connectivity.
  UnionFind uf(verts.size());
  std::vector<char> has_net_edge(verts.size(), 0);
  for (const auto& [key, count] : edge_count) {
    if (count <= 0) continue;
    const auto a = static_cast<std::uint32_t>(key >> 32);
    const auto b = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
    const std::size_t u = vertex(unpack_token(a));
    const std::size_t v = vertex(unpack_token(b));
    uf.unite(u, v);
    has_net_edge[u] = has_net_edge[v] = 1;
  }

  // Rebuild the netlist: devices in (kind, index) order so reconstruction
  // is deterministic; instance numbers are renumbered contiguously (the
  // topology is unchanged up to naming).
  Netlist nl;
  std::map<std::pair<DeviceKind, int>, int> dev_id;
  for (const auto& [inst, unused] : instances) {
    (void)unused;
    dev_id[inst] = nl.add_device(inst.first);
  }

  std::map<std::size_t, Net> components;
  int floating = 0;
  for (std::size_t v = 0; v < verts.size(); ++v) {
    const PinToken& t = verts[v];
    if (!has_net_edge[v]) {
      if (!t.is_io) ++floating;
      continue;
    }
    PinRef ref = t.is_io
                     ? io_ref(t.io)
                     : dev_ref(dev_id.at({t.kind, t.index}), t.pin);
    components[uf.find(v)].push_back(ref);
  }
  for (auto& [root, net] : components) {
    (void)root;
    if (net.size() >= 2) nl.add_net(std::move(net));
  }

  res.ok = true;
  res.netlist = std::move(nl);
  res.floating_pins = floating;
  return res;
}

}  // namespace eva::circuit
