#include "baselines/baselines.hpp"

#include <algorithm>

#include "circuit/validity.hpp"
#include "data/builder.hpp"
#include "spice/fom.hpp"

namespace eva::baselines {

using circuit::CircuitType;
using circuit::DeviceKind;
using circuit::IoPin;
using circuit::Netlist;
using data::NetBuilder;

namespace {

constexpr DeviceKind N = DeviceKind::Nmos;
constexpr DeviceKind P = DeviceKind::Pmos;
constexpr DeviceKind R = DeviceKind::Resistor;
constexpr DeviceKind C = DeviceKind::Capacitor;
constexpr DeviceKind L = DeviceKind::Inductor;
constexpr DeviceKind D = DeviceKind::Diode;

/// Corrupt a netlist the way a hallucinated SPICE deck is wrong: drop one
/// pin connection (floating node) or short a device onto one net.
Netlist corrupt(Netlist nl, Rng& rng) {
  if (nl.num_devices() == 0) return nl;
  const int dev = static_cast<int>(rng.index(
      static_cast<std::size_t>(nl.num_devices())));
  const auto kind = nl.devices()[static_cast<std::size_t>(dev)].kind;
  const int pin = static_cast<int>(rng.index(
      static_cast<std::size_t>(pin_count(kind))));
  nl.disconnect(circuit::dev_ref(dev, pin));  // floating pin => invalid
  return nl;
}

// ---------------------------------------------------------------------------
// AnalogCoder-like
// ---------------------------------------------------------------------------

class AnalogCoderLike final : public TopologyGenerator {
 public:
  explicit AnalogCoderLike(const data::Dataset& ds) {
    // Library: the ~3 simplest known topologies for each of 7 supported
    // types (~20 entries, mirroring AnalogCoder's synthesis library).
    const CircuitType supported[] = {
        CircuitType::OpAmp,  CircuitType::Comparator, CircuitType::Lna,
        CircuitType::Pa,     CircuitType::Mixer,      CircuitType::Vco,
        CircuitType::ScSampler};
    for (CircuitType t : supported) {
      auto of_type = ds.of_type(t);
      std::sort(of_type.begin(), of_type.end(),
                [](const data::TopologyEntry* a, const data::TopologyEntry* b) {
                  return a->netlist.num_devices() < b->netlist.num_devices();
                });
      int taken = 0;
      for (const auto* e : of_type) {
        if (taken >= 3) break;
        library_.push_back(e->netlist);
        ++taken;
        per_type_[t] = taken;
      }
    }
    EVA_REQUIRE(!library_.empty(), "AnalogCoder library is empty");
  }

  std::optional<Netlist> generate(Rng& rng) override {
    // LLM error model: some emissions do not parse at all, some produce
    // netlists with floating/shorted nodes.
    const double u = rng.uniform();
    if (u < 0.14) return std::nullopt;  // unparseable code
    const Netlist& pick = library_[rng.index(library_.size())];
    if (u < 0.34) return corrupt(pick, rng);  // wrong connectivity
    return pick;
  }

  std::string name() const override { return "AnalogCoder-like"; }

  int labeled_required(CircuitType target) const override {
    // Training-free: only the few in-context library examples of the
    // target type count as labeled usage.
    auto it = per_type_.find(target);
    return it == per_type_.end() ? -1 : it->second;
  }

  bool supports(CircuitType t) const override {
    return per_type_.count(t) > 0;
  }

 private:
  std::vector<Netlist> library_;
  std::map<CircuitType, int> per_type_;
};

// ---------------------------------------------------------------------------
// Artisan-like
// ---------------------------------------------------------------------------

class ArtisanLike final : public TopologyGenerator {
 public:
  explicit ArtisanLike(const data::Dataset& ds) {
    // "Fine-tuned on a large labeled Op-Amp corpus": every Op-Amp in the
    // dataset is performance-evaluated, and generation reuses the
    // top-performing half.
    const auto opamps = ds.of_type(CircuitType::OpAmp);
    std::vector<std::pair<double, const data::TopologyEntry*>> scored;
    for (const auto* e : opamps) {
      const auto perf =
          spice::evaluate_default(e->netlist, CircuitType::OpAmp);
      scored.emplace_back(perf.ok ? perf.fom : 0.0, e);
      ++labeled_;
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    const std::size_t keep = std::max<std::size_t>(scored.size() / 2, 1);
    for (std::size_t i = 0; i < keep; ++i) {
      pool_.push_back(scored[i].second->netlist);
    }
    EVA_REQUIRE(!pool_.empty(), "Artisan pool is empty");
  }

  std::optional<Netlist> generate(Rng& rng) override {
    const double u = rng.uniform();
    if (u < 0.06) return std::nullopt;
    const Netlist& pick = pool_[rng.index(pool_.size())];
    if (u < 0.18) return corrupt(pick, rng);
    return pick;
  }

  std::string name() const override { return "Artisan-like"; }

  int labeled_required(CircuitType target) const override {
    return target == CircuitType::OpAmp ? labeled_ : -1;
  }

  bool supports(CircuitType t) const override {
    return t == CircuitType::OpAmp;
  }

 private:
  std::vector<Netlist> pool_;
  int labeled_ = 0;
};

// ---------------------------------------------------------------------------
// CktGNN-like: sub-block DAG composition (Op-Amps only)
// ---------------------------------------------------------------------------

class CktGnnLike final : public TopologyGenerator {
 public:
  explicit CktGnnLike(const data::Dataset& ds)
      : labeled_(static_cast<int>(ds.of_type(CircuitType::OpAmp).size())) {}

  std::optional<Netlist> generate(Rng& rng) override {
    // Compose stages from a block grammar. Because the "GNN" was trained
    // on synthetic data, compositions are loosely constrained: some
    // arrangements are electrically nonsensical (=> invalid), and graph
    // statistics drift from textbook designs (=> high MMD).
    NetBuilder b;
    b.rails();
    b.io("inp", IoPin::Vin1);
    b.io("inn", IoPin::Vin2);

    const bool nmos_in = rng.chance(0.5);
    const DeviceKind IK = nmos_in ? N : P;
    const DeviceKind LK = nmos_in ? P : N;
    const std::string irail = nmos_in ? "VSS" : "VDD";
    const std::string lrail = nmos_in ? "VDD" : "VSS";

    // Stage 1: diff pair with a randomly chosen (possibly absent!) tail.
    b.mos(IK, "inp", "d1", "tail");
    b.mos(IK, "inn", "d2", "tail");
    const int tail_kind = rng.range(0, 3);
    if (tail_kind == 0) {
      b.io("bt", IoPin::Vb1);
      b.mos(IK, "bt", "tail", irail);
    } else if (tail_kind == 1) {
      b.two(R, "tail", irail);
    } else if (tail_kind == 2) {
      // Synthetic-data artifact: tail tied straight to the rail.
      b.two(R, "tail", irail);
      b.two(R, "tail", irail);
    } else {
      // Missing tail: floating node (invalid), as loose grammars permit.
    }

    // Load block.
    const int load = rng.range(0, 2);
    if (load == 0) {
      b.mos(LK, "d1", "d1", lrail);
      b.mos(LK, "d1", "d2", lrail);
    } else if (load == 1) {
      b.two(R, lrail, "d1");
      b.two(R, lrail, "d2");
    } else {
      // Diode-connected loads.
      b.mos(LK, "d1", "d1", lrail);
      b.mos(LK, "d2", "d2", lrail);
    }

    // Random extra blocks (the DAG can chain 0-2 more stages).
    std::string out = "d2";
    const int extra = rng.range(0, 2);
    for (int s = 0; s < extra; ++s) {
      // Appended, not "s" + ...: GCC 12's -Wrestrict misreads that insert.
      std::string next = "s";
      next += std::to_string(s);
      b.mos(LK, out, next, lrail);
      if (rng.chance(0.7)) {
        b.two(R, next, irail);
      }  // else: stage without bias (often invalid)
      if (rng.chance(0.5)) b.two(C, out, next);
      out = next;
    }
    b.io(out, IoPin::Vout1);
    if (rng.chance(0.4)) b.two(C, out, "VSS");
    Netlist nl = b.take();
    // Decoded sub-block DAGs do not always map onto complete netlists
    // (CktGNN reports ~68% validity): model that as dropped connections.
    if (rng.chance(0.28)) return corrupt(std::move(nl), rng);
    return nl;
  }

  std::string name() const override { return "CktGNN-like"; }

  int labeled_required(CircuitType target) const override {
    return target == CircuitType::OpAmp ? labeled_ : -1;
  }

  bool supports(CircuitType t) const override {
    return t == CircuitType::OpAmp;
  }

 private:
  int labeled_ = 0;
};

// ---------------------------------------------------------------------------
// LaMAGIC-like: <=4-device power converters on fixed nodes
// ---------------------------------------------------------------------------

class LaMagicLike final : public TopologyGenerator {
 public:
  explicit LaMagicLike(const data::Dataset& ds)
      : labeled_(
            static_cast<int>(ds.of_type(CircuitType::PowerConverter).size())) {}

  std::optional<Netlist> generate(Rng& rng) override {
    // Fixed node alphabet {VDD, SW, OUT, VSS}; pick 3-4 devices from the
    // power-converter palette and place each between two distinct nodes.
    // This mirrors LaMAGIC's adjacency-matrix formulation: tiny space,
    // mostly rediscovering known converters.
    static const char* kNodes[] = {"VDD", "sw", "out", "VSS"};
    NetBuilder b;
    b.rails();
    b.io("clk", IoPin::Clk1);
    b.io("out", IoPin::Vout1);

    const int n_dev = rng.range(3, 4);
    bool placed_switch = false;
    for (int i = 0; i < n_dev; ++i) {
      const int a = rng.range(0, 3);
      int c = rng.range(0, 3);
      if (c == a) c = (c + 1) % 4;
      const std::string na = kNodes[a];
      const std::string nc = kNodes[c];
      const int kind = rng.range(0, 4);
      switch (kind) {
        case 0:
          b.mos(P, "clk", na, nc, "VDD");
          placed_switch = true;
          break;
        case 1:
          b.mos(N, "clk", na, nc, "VSS");
          placed_switch = true;
          break;
        case 2: b.two(D, na, nc); break;
        case 3: b.two(L, na, nc); break;
        default: b.two(C, na, nc); break;
      }
    }
    // The MLM's output cap token is nearly always present.
    if (rng.chance(0.9)) b.two(C, "out", "VSS");
    if (!placed_switch && rng.chance(0.5)) b.mos(P, "clk", "VDD", "sw", "VDD");
    return b.take();
  }

  std::string name() const override { return "LaMAGIC-like"; }

  int labeled_required(CircuitType target) const override {
    return target == CircuitType::PowerConverter ? labeled_ : -1;
  }

  bool supports(CircuitType t) const override {
    return t == CircuitType::PowerConverter;
  }

 private:
  int labeled_ = 0;
};

}  // namespace

std::unique_ptr<TopologyGenerator> make_analogcoder_like(
    const data::Dataset& ds) {
  return std::make_unique<AnalogCoderLike>(ds);
}
std::unique_ptr<TopologyGenerator> make_artisan_like(const data::Dataset& ds) {
  return std::make_unique<ArtisanLike>(ds);
}
std::unique_ptr<TopologyGenerator> make_cktgnn_like(const data::Dataset& ds) {
  return std::make_unique<CktGnnLike>(ds);
}
std::unique_ptr<TopologyGenerator> make_lamagic_like(const data::Dataset& ds) {
  return std::make_unique<LaMagicLike>(ds);
}

}  // namespace eva::baselines
