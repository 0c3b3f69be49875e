// Pin-level multigraph and its Eulerian-circuit sequentialization
// (paper §III-A, Fig. 1).
//
// Construction (documented in DESIGN.md §2): vertices are device pins and
// IO pins; each net contributes a cycle through its pins (or a doubled
// edge for 2-pin nets) and each device contributes a cycle through its own
// pins. All vertex degrees are therefore even and the multigraph is
// connected exactly when the circuit is electrically connected, so an
// Eulerian circuit starting at VSS always exists for valid topologies.
//
// encode:  Netlist -> PinGraph -> randomized Euler tour (token sequence).
// decode:  token sequence -> multiset of walk edges -> subtract the
//          deterministic device-cycle edges -> remaining components = nets.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "util/rng.hpp"

namespace eva::circuit {

/// One token of the sequence representation: a device pin or an IO pin.
struct PinToken {
  bool is_io = true;
  IoPin io = IoPin::Vss;
  DeviceKind kind = DeviceKind::Nmos;  // valid when !is_io
  int index = 1;                       // 1-based device instance number
  int pin = 0;                         // pin number within the device

  [[nodiscard]] std::string name() const;

  friend bool operator==(const PinToken& a, const PinToken& b) {
    if (a.is_io != b.is_io) return false;
    if (a.is_io) return a.io == b.io;
    return a.kind == b.kind && a.index == b.index && a.pin == b.pin;
  }
};

[[nodiscard]] inline PinToken io_token(IoPin p) {
  return PinToken{true, p, DeviceKind::Nmos, 1, 0};
}
[[nodiscard]] inline PinToken dev_token(DeviceKind k, int index, int pin) {
  return PinToken{false, IoPin::Vss, k, index, pin};
}

/// Dense packing of a PinToken for hashing/map keys.
[[nodiscard]] std::uint32_t pack_token(const PinToken& t);
[[nodiscard]] PinToken unpack_token(std::uint32_t key);

/// Union-find over a dense index space [0, n), with path halving.
/// unite(a, b) hangs a's root under b's root. decode_tour groups pins
/// into nets with it, and nn::WalkLegality tracks the nets of a walk.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Pin-level multigraph of a netlist.
class PinGraph {
 public:
  /// Build the multigraph (net cycles + device cycles) from a netlist.
  [[nodiscard]] static PinGraph from_netlist(const Netlist& nl);

  [[nodiscard]] const std::vector<PinToken>& vertices() const {
    return vertices_;
  }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  [[nodiscard]] bool connected() const;
  [[nodiscard]] bool all_degrees_even() const;
  /// Degree (with multiplicity) of vertex v.
  [[nodiscard]] std::size_t degree(std::size_t v) const;

  /// Tour-order policy for euler_tour. The multigraph and the decoder are
  /// identical either way; only the distribution over tours differs.
  ///  * DeviceFirst (default): at each vertex, prefer unused device-cycle
  ///    edges, so a device's pins appear as one contiguous run
  ///    (NM1_G NM1_D NM1_S NM1_B NM1_G ...). This makes the sequence
  ///    grammar local and is what the generation model is trained on.
  ///  * Uniform: fully randomized edge order (ablation baseline).
  enum class TourPolicy { DeviceFirst, Uniform };

  /// Randomized Hierholzer Euler circuit starting (and ending) at VSS.
  /// Different rng draws yield different tours of the same topology — the
  /// augmentation the paper uses to expand 3470 topologies to 234k
  /// sequences. Throws CircuitError if VSS is absent or the graph is not
  /// Eulerian-traversable from VSS (disconnected circuit).
  [[nodiscard]] std::vector<PinToken> euler_tour(
      Rng& rng, TourPolicy policy = TourPolicy::DeviceFirst) const;

 private:
  std::vector<PinToken> vertices_;
  std::vector<std::pair<std::size_t, std::size_t>> edges_;  // undirected
  std::vector<char> edge_is_device_;                // device-cycle flag
  std::vector<std::vector<std::size_t>> incident_;  // vertex -> edge ids
};

/// Result of decoding a token sequence back into a netlist.
struct DecodeResult {
  bool ok = false;
  std::string error;        // first structural problem found (when !ok)
  Netlist netlist;          // valid when ok
  int floating_pins = 0;    // device pins with no net after reconstruction
};

/// Decode an Euler-tour token sequence into a netlist. Never throws on
/// malformed input — malformed sequences are an expected model output and
/// are reported via DecodeResult::ok/error (they count as invalid in the
/// paper's Validity metric).
[[nodiscard]] DecodeResult decode_tour(const std::vector<PinToken>& tour);

/// Convenience: encode a netlist as one randomized Euler tour.
[[nodiscard]] std::vector<PinToken> encode_tour(
    const Netlist& nl, Rng& rng,
    PinGraph::TourPolicy policy = PinGraph::TourPolicy::DeviceFirst);

}  // namespace eva::circuit
