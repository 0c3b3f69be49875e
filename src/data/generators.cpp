#include "data/generators.hpp"

#include <string>

#include "data/builder.hpp"

namespace eva::data {

using circuit::CircuitType;
using circuit::DeviceKind;
using circuit::IoPin;
using circuit::Netlist;

namespace {
constexpr DeviceKind N = DeviceKind::Nmos;
constexpr DeviceKind P = DeviceKind::Pmos;
constexpr DeviceKind R = DeviceKind::Resistor;
constexpr DeviceKind C = DeviceKind::Capacitor;
constexpr DeviceKind L = DeviceKind::Inductor;
constexpr DeviceKind D = DeviceKind::Diode;

/// Bias network for a tail/mirror gate net `bias`: either a plain VB pin
/// or a diode-connected reference device fed from IREF.
void bias_net(NetBuilder& b, Rng& rng, const std::string& bias,
              DeviceKind kind) {
  if (rng.chance(0.5)) {
    b.io(bias, rng.chance(0.5) ? IoPin::Vb1 : IoPin::Vb2);
  } else {
    b.io(bias, IoPin::Iref);
    if (kind == N) {
      b.mos(N, bias, bias, "VSS");  // diode-connected reference
    } else {
      b.mos(P, bias, bias, "VDD");
    }
  }
}

/// Ring-node name: `prefix` then the decimal `i`. Appending, where
/// ring_node("r", i) would insert, keeps GCC 12's -Wrestrict from
/// misreading libstdc++'s insert as an overlapping copy.
std::string ring_node(std::string prefix, int i) {
  prefix += std::to_string(i);
  return prefix;
}

}  // namespace

Netlist gen_opamp(Rng& rng) {
  NetBuilder b;
  b.rails();
  const bool nmos_in = rng.chance(0.6);
  const DeviceKind IK = nmos_in ? N : P;   // input pair kind
  const DeviceKind LK = nmos_in ? P : N;   // load kind
  const std::string irail = nmos_in ? "VSS" : "VDD";  // input-side rail
  const std::string lrail = nmos_in ? "VDD" : "VSS";  // load-side rail

  b.io("inp", IoPin::Vin1);
  b.io("inn", IoPin::Vin2);

  // Optional cascode between pair drains and the load.
  const bool casc_in = rng.chance(0.3);
  const std::string d1 = casc_in ? "c1" : "d1";
  const std::string d2 = casc_in ? "c2" : "d2";
  b.mos(IK, "inp", d1, "tail");
  b.mos(IK, "inn", d2, "tail");
  if (casc_in) {
    b.io("vcas", nmos_in ? IoPin::Vb2 : IoPin::Vb1);
    b.mos(IK, "vcas", "d1", "c1");
    b.mos(IK, "vcas", "d2", "c2");
  }

  // Tail current source.
  bias_net(b, rng, "bt", IK);
  b.mos(IK, "bt", "tail", irail);

  // First-stage load.
  const int load_style = rng.range(0, 2);
  if (load_style == 0) {
    // Current-mirror load (diode-connected on d1).
    b.mos(LK, "d1", "d1", lrail);
    b.mos(LK, "d1", "d2", lrail);
  } else if (load_style == 1) {
    // Cascoded mirror load.
    b.mos(LK, "m1", "m1", lrail);
    b.mos(LK, "m1", "m2", lrail);
    b.io("vcl", nmos_in ? IoPin::Vb2 : IoPin::Vb1);
    b.mos(LK, "vcl", "d1", "m1");
    b.mos(LK, "vcl", "d2", "m2");
    // Keep the diode reference defined by tying the mirror input branch.
    b.two(R, "d1", "m1");
  } else {
    // Resistor loads.
    b.two(R, lrail, "d1");
    b.two(R, lrail, "d2");
  }

  // Optional second stage (common source + Miller compensation).
  const bool stage2 = rng.chance(0.55);
  std::string out = "d2";
  if (stage2) {
    out = "out";
    b.mos(LK, "d2", "out", lrail);
    // Second-stage current source / resistor bias.
    if (rng.chance(0.6)) {
      bias_net(b, rng, "b2", IK);
      b.mos(IK, "b2", "out", irail);
    } else {
      b.two(R, "out", irail);
    }
    b.two(C, "d2", "out");  // Miller cap
    if (rng.chance(0.4)) b.two(R, "d2", "out");  // zero-nulling resistor
  }
  b.io(out, IoPin::Vout1);
  if (!stage2 && rng.chance(0.3)) b.io("d1", IoPin::Vout2);  // pseudo-diff
  if (rng.chance(0.5)) b.two(C, out, "VSS");  // load cap
  return b.take();
}

Netlist gen_ldo(Rng& rng) {
  NetBuilder b;
  b.rails();
  // Error amplifier: NMOS pair, gates on reference (VB1) and feedback.
  b.io("ref", IoPin::Vb1);
  b.mos(N, "ref", "d1", "tail");
  b.mos(N, "fb", "d2", "tail");
  b.io("bt", IoPin::Vb2);
  b.mos(N, "bt", "tail", "VSS");
  b.mos(P, "d1", "d1", "VDD");
  b.mos(P, "d1", "d2", "VDD");

  // Pass device.
  if (rng.chance(0.75)) {
    b.mos(P, "d2", "out", "VDD");  // PMOS pass (common source)
  } else {
    b.mos(N, "d2", "VDD", "out");  // NMOS follower pass
  }
  // Feedback divider.
  b.two(R, "out", "fb");
  b.two(R, "fb", "VSS");
  if (rng.chance(0.5)) b.two(R, "out", "fb");  // parallel trim leg
  b.io("out", IoPin::Vout1);
  if (rng.chance(0.7)) b.two(C, "out", "VSS");     // load cap
  if (rng.chance(0.4)) b.two(C, "d2", "out");      // compensation
  if (rng.chance(0.3)) b.two(C, "fb", "VSS");      // feedback filter
  return b.take();
}

Netlist gen_bandgap(Rng& rng) {
  NetBuilder b;
  b.rails();
  const bool use_bjt = rng.chance(0.5);
  // PMOS mirror with 2-3 branches; first branch diode-connected.
  b.mos(P, "pg", "pg", "VDD");
  b.mos(P, "pg", "n2", "VDD");
  const bool third = rng.chance(0.7);
  if (third) b.mos(P, "pg", "out", "VDD");

  auto junction = [&](const std::string& top) {
    if (use_bjt) {
      b.bjt(DeviceKind::Pnp, "VSS", "VSS", top);  // diode-connected PNP
    } else {
      b.two(D, top, "VSS");
    }
  };
  // Branch 1: junction directly.
  junction("pg");
  // Branch 2: resistor + junction (delta-VBE leg).
  b.two(R, "n2", "j2");
  junction("j2");
  if (rng.chance(0.5)) junction("j2");  // area-ratio as parallel junctions

  const std::string out = third ? "out" : "n2";
  if (third) b.two(R, "out", "VSS");
  b.io(out, IoPin::Vout1);
  if (rng.chance(0.4)) b.two(R, "VDD", "pg");  // startup leg
  if (rng.chance(0.4)) b.two(C, out, "VSS");   // output filter
  return b.take();
}

Netlist gen_comparator(Rng& rng) {
  NetBuilder b;
  b.rails();
  b.io("inp", IoPin::Vin1);
  b.io("inn", IoPin::Vin2);
  b.io("clk", IoPin::Clk1);
  // Clocked tail.
  b.mos(N, "clk", "tail", "VSS");
  b.mos(N, "inp", "d1", "tail");
  b.mos(N, "inn", "d2", "tail");
  // Cross-coupled load (latch).
  b.mos(P, "d2", "d1", "VDD");
  b.mos(P, "d1", "d2", "VDD");
  if (rng.chance(0.6)) {
    // NMOS latch half for a full latch.
    b.mos(N, "d2", "d1", "tail");
    b.mos(N, "d1", "d2", "tail");
  }
  // Reset switches on the complementary phase.
  if (rng.chance(0.7)) {
    b.io("clkb", IoPin::Clk2);
    b.mos(P, "clkb", "d1", "VDD");
    b.mos(P, "clkb", "d2", "VDD");
  }
  b.io("d2", IoPin::Vout1);
  if (rng.chance(0.5)) b.io("d1", IoPin::Vout2);
  if (rng.chance(0.3)) b.two(C, "d2", "VSS");
  return b.take();
}

Netlist gen_pll(Rng& rng) {
  NetBuilder b;
  b.rails();
  // Charge pump driven by the reference clock phases.
  b.io("clk", IoPin::Clk1);
  b.io("clkb", IoPin::Clk2);
  b.mos(P, "clk", "ctrl", "VDD");   // pump up
  b.mos(N, "clkb", "ctrl", "VSS");  // pump down
  // Loop filter.
  b.two(R, "ctrl", "cf");
  b.two(C, "cf", "VSS");
  if (rng.chance(0.5)) b.two(C, "ctrl", "VSS");  // second pole cap

  // Ring oscillator (3 or 5 stages) with control coupling.
  const int stages = rng.chance(0.5) ? 3 : 5;
  for (int i = 0; i < stages; ++i) {
    const std::string in = ring_node("r", i);
    const std::string out = ring_node("r", (i + 1) % stages);
    b.mos(N, in, out, "VSS");
    b.mos(P, in, out, "VDD");
  }
  b.two(R, "ctrl", "r0");  // VCO control coupling
  b.io(ring_node("r", stages - 1), IoPin::Vout1);
  return b.take();
}

Netlist gen_lna(Rng& rng) {
  NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);
  // Inductively degenerated common-source stage.
  b.two(L, "in", "g1");            // gate matching inductor
  b.mos(N, "g1", "d1", "s1");
  b.two(L, "s1", "VSS");           // source degeneration
  const bool cascode = rng.chance(0.6);
  const std::string top = cascode ? "d2" : "d1";
  if (cascode) {
    b.io("vc", IoPin::Vb2);
    b.mos(N, "vc", "d2", "d1");
  }
  b.two(L, "VDD", top);            // load inductor
  b.two(C, top, "out");            // output coupling
  b.io("out", IoPin::Vout1);
  b.io("gb", IoPin::Vb1);
  b.two(R, "gb", "g1");            // gate bias through resistor
  if (rng.chance(0.4)) b.two(C, top, "VSS");  // tank tuning cap
  if (rng.chance(0.3)) b.two(R, "out", "VSS");  // termination
  return b.take();
}

Netlist gen_pa(Rng& rng) {
  NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);
  // Driver stage.
  const bool driver = rng.chance(0.6);
  std::string stage_in = "in";
  if (driver) {
    b.mos(N, "in", "m1", "VSS");
    b.two(R, "VDD", "m1");
    b.two(C, "m1", "g2");  // interstage coupling
    b.io("gb", IoPin::Vb1);
    b.two(R, "gb", "g2");
    stage_in = "g2";
  }
  // Output stage: parallel power devices with RF choke + matching L.
  const int fingers = rng.range(2, 4);
  for (int i = 0; i < fingers; ++i) b.mos(N, stage_in, "d2", "VSS");
  b.two(L, "VDD", "d2");   // choke
  b.two(L, "d2", "out");   // series matching inductor
  b.two(C, "out", "VSS");  // shunt matching cap
  b.io("out", IoPin::Vout1);
  if (!driver) {
    b.io("gb", IoPin::Vb1);
    b.two(R, "gb", stage_in == "in" ? "in" : stage_in);
  }
  return b.take();
}

Netlist gen_mixer(Rng& rng) {
  NetBuilder b;
  b.rails();
  // Gilbert cell: RF pair under an LO switching quad.
  b.io("rf", IoPin::Vin1);
  b.io("rfb", IoPin::Vb1);
  b.io("lo", IoPin::Vin2);
  b.io("lob", IoPin::Vb2);
  bias_net(b, rng, "bt", N);
  b.mos(N, "bt", "tail", "VSS");
  b.mos(N, "rf", "sq1", "tail");
  b.mos(N, "rfb", "sq2", "tail");
  b.mos(N, "lo", "o1", "sq1");
  b.mos(N, "lob", "o2", "sq1");
  b.mos(N, "lob", "o1", "sq2");
  b.mos(N, "lo", "o2", "sq2");
  // Loads.
  if (rng.chance(0.7)) {
    b.two(R, "VDD", "o1");
    b.two(R, "VDD", "o2");
  } else {
    b.mos(P, "pb", "o1", "VDD");
    b.mos(P, "pb", "o2", "VDD");
    b.io("pb", IoPin::Vb2);
  }
  b.io("o1", IoPin::Vout1);
  if (rng.chance(0.6)) b.io("o2", IoPin::Vout2);
  if (rng.chance(0.4)) {
    b.two(C, "o1", "VSS");
    b.two(C, "o2", "VSS");
  }
  return b.take();
}

Netlist gen_vco(Rng& rng) {
  NetBuilder b;
  b.rails();
  if (rng.chance(0.6)) {
    // LC cross-coupled VCO.
    const bool nmos_core = rng.chance(0.7);
    if (nmos_core) {
      b.mos(N, "o2", "o1", "tail");
      b.mos(N, "o1", "o2", "tail");
      bias_net(b, rng, "bt", N);
      b.mos(N, "bt", "tail", "VSS");
      b.two(L, "VDD", "o1");
      b.two(L, "VDD", "o2");
    } else {
      b.mos(P, "o2", "o1", "tail");
      b.mos(P, "o1", "o2", "tail");
      bias_net(b, rng, "bt", P);
      b.mos(P, "bt", "tail", "VDD");
      b.two(L, "o1", "VSS");
      b.two(L, "o2", "VSS");
    }
    b.two(C, "o1", "o2");  // tank cap
    if (rng.chance(0.5)) {
      // Varactor-style tuning caps to a bias node.
      b.io("vt", IoPin::Vb1);
      b.two(C, "o1", "vt");
      b.two(C, "o2", "vt");
    }
    b.io("o1", IoPin::Vout1);
    if (rng.chance(0.6)) b.io("o2", IoPin::Vout2);
  } else {
    // Free-running ring oscillator.
    const int stages = rng.chance(0.5) ? 3 : 5;
    for (int i = 0; i < stages; ++i) {
      const std::string in = ring_node("r", i);
      const std::string out = ring_node("r", (i + 1) % stages);
      b.mos(N, in, out, "VSS");
      b.mos(P, in, out, "VDD");
    }
    if (rng.chance(0.5)) b.two(C, "r0", "VSS");  // slowing cap
    b.io("r0", IoPin::Vout1);
  }
  return b.take();
}

Netlist gen_power_converter(Rng& rng) {
  NetBuilder b;
  b.rails();
  b.io("clk", IoPin::Clk1);
  const int topo = rng.range(0, 3);
  const bool sync = rng.chance(0.4);  // synchronous rectification
  switch (topo) {
    case 0: {  // buck
      b.mos(P, "clk", "sw", "VDD");
      if (sync) {
        b.io("clkb", IoPin::Clk2);
        b.mos(N, "clkb", "sw", "VSS");
      } else {
        b.two(D, "VSS", "sw");  // freewheel diode (A=VSS, K=sw)
      }
      b.two(L, "sw", "out");
      break;
    }
    case 1: {  // boost
      b.two(L, "VDD", "sw");
      b.mos(N, "clk", "sw", "VSS");
      if (sync) {
        b.io("clkb", IoPin::Clk2);
        b.mos(P, "clkb", "sw", "out");
      } else {
        b.two(D, "sw", "out");
      }
      break;
    }
    case 2: {  // buck-boost
      b.mos(P, "clk", "sw", "VDD");
      b.two(L, "sw", "VSS");
      b.two(D, "out", "sw");  // inverting output
      break;
    }
    default: {  // SEPIC-like
      b.two(L, "VDD", "sw");
      b.mos(N, "clk", "sw", "VSS");
      b.two(C, "sw", "mid");  // coupling cap
      b.two(L, "mid", "VSS");
      b.two(D, "mid", "out");
      break;
    }
  }
  b.two(C, "out", "VSS");  // output filter
  if (rng.chance(0.3)) b.two(C, "out", "VSS");  // second filter cap
  if (rng.chance(0.3)) b.two(C, "VDD", "VSS");  // input decoupling
  b.io("out", IoPin::Vout1);
  return b.take();
}

Netlist gen_sc_sampler(Rng& rng) {
  NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);
  b.io("clk", IoPin::Clk1);
  b.io("clkb", IoPin::Clk2);
  const bool tgate = rng.chance(0.4);
  // Sampling switch.
  b.mos(N, "clk", "in", "top");
  if (tgate) {
    b.mos(P, "clkb", "in", "top");
  } else {
    b.two(C, "VDD", "VSS");  // supply decoupling keeps VDD connected
  }
  // Hold cap.
  b.two(C, "top", "VSS");
  if (rng.chance(0.4)) b.two(C, "top", "VSS");  // split sampling cap
  // Transfer switch.
  b.mos(N, "clkb", "top", "out");
  if (tgate && rng.chance(0.5)) b.mos(P, "clk", "top", "out");
  if (rng.chance(0.5)) b.two(C, "out", "VSS");  // output hold cap
  if (rng.chance(0.3)) b.mos(N, "clk", "out", "VSS");  // reset switch
  b.io("out", IoPin::Vout1);
  return b.take();
}

Netlist generate(CircuitType type, Rng& rng) {
  switch (type) {
    case CircuitType::OpAmp: return gen_opamp(rng);
    case CircuitType::Ldo: return gen_ldo(rng);
    case CircuitType::Bandgap: return gen_bandgap(rng);
    case CircuitType::Comparator: return gen_comparator(rng);
    case CircuitType::Pll: return gen_pll(rng);
    case CircuitType::Lna: return gen_lna(rng);
    case CircuitType::Pa: return gen_pa(rng);
    case CircuitType::Mixer: return gen_mixer(rng);
    case CircuitType::Vco: return gen_vco(rng);
    case CircuitType::PowerConverter: return gen_power_converter(rng);
    case CircuitType::ScSampler: return gen_sc_sampler(rng);
    case CircuitType::Unknown: break;
  }
  throw Error("generate: cannot generate Unknown circuit type");
}

}  // namespace eva::data
