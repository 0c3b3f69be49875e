// Cross-module integration and property tests: pipeline determinism,
// pretraining effects on generation, representation invariants across the
// whole dataset, and simulator physics properties.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/canon.hpp"
#include "circuit/graphstats.hpp"
#include "circuit/pingraph.hpp"
#include "core/eva.hpp"
#include "data/builder.hpp"
#include "eval/metrics.hpp"
#include "nn/lm_trainer.hpp"
#include "opt/ga.hpp"
#include "spice/engine.hpp"

namespace {

using namespace eva;
using circuit::CircuitType;
using circuit::DeviceKind;
using circuit::IoPin;
using circuit::Netlist;

core::EvaConfig tiny_cfg(std::uint64_t seed) {
  core::EvaConfig cfg;
  cfg.seed = seed;
  cfg.dataset.per_type = 5;
  cfg.dataset.seed = seed + 1;
  cfg.dataset.require_simulatable = false;
  cfg.tours_per_topology = 2;
  cfg.model = nn::ModelConfig::tiny(0);
  cfg.pretrain.steps = 50;
  cfg.pretrain.batch = 4;
  return cfg;
}

TEST(Integration, PipelineIsDeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    core::Eva engine(tiny_cfg(seed));
    engine.prepare();
    engine.pretrain();
    std::vector<std::vector<int>> ids;
    Rng srng(99);
    nn::SampleOptions opts;
    opts.max_len = 64;
    for (const auto& s :
         nn::sample_batch(engine.model(), engine.tokenizer(), srng, 3, opts)) {
      ids.push_back(s.ids);
    }
    return ids;
  };
  EXPECT_EQ(run(1234), run(1234));
}

TEST(Integration, PretrainingRaisesDatasetTourLikelihood) {
  core::Eva engine(tiny_cfg(555));
  engine.prepare();
  const double loss_before =
      nn::eval_lm_loss(engine.model(), engine.corpus().val);
  engine.pretrain();
  const double loss_after =
      nn::eval_lm_loss(engine.model(), engine.corpus().val);
  EXPECT_LT(loss_after, loss_before);
}

TEST(Integration, PretrainedGenerationNoWorseThanRandom) {
  core::Eva trained(tiny_cfg(777));
  trained.prepare();
  trained.pretrain();
  const auto ev_trained = trained.evaluate_generation(15);

  core::Eva random_model(tiny_cfg(777));
  random_model.prepare();
  const auto ev_random = random_model.evaluate_generation(15);

  EXPECT_GE(ev_trained.valid, ev_random.valid);
}

// Representation invariant across every dataset topology: the pin graph
// has even degrees everywhere, is connected, and its edge count matches
// the closed-form sum of net-cycle and device-cycle contributions.
TEST(Integration, PinGraphEdgeCountFormulaHoldsDatasetWide) {
  data::DatasetConfig cfg;
  cfg.per_type = 4;
  cfg.seed = 1001;
  cfg.require_simulatable = false;
  const auto ds = data::Dataset::build(cfg);
  for (const auto& e : ds.entries()) {
    const auto g = circuit::PinGraph::from_netlist(e.netlist);
    EXPECT_TRUE(g.all_degrees_even());
    EXPECT_TRUE(g.connected());
    std::size_t expect = 0;
    for (const auto& d : e.netlist.devices()) {
      expect += pin_count(d.kind) == 2 ? 2u
                                       : static_cast<std::size_t>(
                                             pin_count(d.kind));
    }
    for (const auto& net : e.netlist.nets()) {
      if (net.size() == 2) {
        expect += 2;
      } else if (net.size() >= 3) {
        expect += net.size();
      }
    }
    EXPECT_EQ(g.num_edges(), expect);
  }
}

TEST(Integration, DoubleRoundTripIsStable) {
  Rng rng(1002);
  data::DatasetConfig cfg;
  cfg.per_type = 3;
  cfg.seed = 1003;
  cfg.require_simulatable = false;
  const auto ds = data::Dataset::build(cfg);
  for (const auto& e : ds.entries()) {
    const auto t1 = circuit::encode_tour(e.netlist, rng);
    const auto r1 = circuit::decode_tour(t1);
    ASSERT_TRUE(r1.ok);
    const auto t2 = circuit::encode_tour(r1.netlist, rng);
    const auto r2 = circuit::decode_tour(t2);
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(circuit::canonical_hash(r1.netlist),
              circuit::canonical_hash(r2.netlist));
  }
}

TEST(Integration, SizingDeterministicGa) {
  data::NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);
  b.io("out", IoPin::Vout1);
  b.mos(DeviceKind::Nmos, "in", "out", "VSS");
  b.two(DeviceKind::Resistor, "VDD", "out");
  const Netlist nl = b.take();
  opt::GaConfig ga;
  ga.population = 8;
  ga.generations = 3;
  ga.seed = 31337;
  const auto a = opt::size_topology(nl, CircuitType::OpAmp, ga);
  const auto b2 = opt::size_topology(nl, CircuitType::OpAmp, ga);
  ASSERT_TRUE(a.ok && b2.ok);
  EXPECT_EQ(a.sizing.value, b2.sizing.value);
  EXPECT_DOUBLE_EQ(a.perf.fom, b2.perf.fom);
}

TEST(Integration, SupplyScalingMovesDividerOutput) {
  data::NetBuilder b;
  b.rails();
  b.io("out", IoPin::Vout1);
  b.two(DeviceKind::Resistor, "VDD", "out");
  b.two(DeviceKind::Resistor, "out", "VSS");
  const Netlist nl = b.take();
  auto vout_at = [&](double vdd) {
    spice::SimOptions opts;
    opts.vdd = vdd;
    spice::Simulator sim(nl, spice::default_sizing(nl), opts);
    EXPECT_TRUE(sim.solve_dc());
    return sim.io_voltage(IoPin::Vout1);
  };
  EXPECT_NEAR(vout_at(3.6) / vout_at(1.8), 2.0, 0.01);
}

TEST(Integration, MmdOfDatasetWithItselfIsSmallest) {
  data::DatasetConfig cfg;
  cfg.per_type = 4;
  cfg.seed = 1004;
  cfg.require_simulatable = false;
  const auto ds = data::Dataset::build(cfg);
  std::vector<std::vector<double>> all, opamps;
  for (const auto& e : ds.entries()) {
    all.push_back(circuit::stats_vector(e.netlist));
    if (e.type == CircuitType::OpAmp) {
      opamps.push_back(circuit::stats_vector(e.netlist));
    }
  }
  const double self_mmd = eval::mmd_gaussian(all, all, 1.0);
  const double sub_mmd = eval::mmd_gaussian(opamps, all, 1.0);
  EXPECT_NEAR(self_mmd, 0.0, 1e-9);
  EXPECT_GT(sub_mmd, self_mmd);
}

TEST(Integration, TokenizerVocabMatchesLimitFormula) {
  data::DatasetConfig cfg;
  cfg.per_type = 3;
  cfg.seed = 1005;
  cfg.require_simulatable = false;
  const auto ds = data::Dataset::build(cfg);
  const auto tok = nn::Tokenizer::from_dataset(ds, 1.0);
  int expect = 2 + circuit::kNumIoPins;
  for (int k = 0; k < circuit::kNumDeviceKinds; ++k) {
    expect += tok.limits()[static_cast<std::size_t>(k)] *
              pin_count(static_cast<DeviceKind>(k));
  }
  EXPECT_EQ(tok.vocab_size(), expect);
}

TEST(Integration, DiscoverReportsRelevantFraction) {
  // A fixed generator emitting one known Op-Amp: discover() must classify
  // all attempts as relevant and size them.
  data::NetBuilder b;
  b.rails();
  b.io("inp", IoPin::Vin1);
  b.io("inn", IoPin::Vin2);
  b.io("bt", IoPin::Vb1);
  b.mos(DeviceKind::Nmos, "inp", "d1", "tail");
  b.mos(DeviceKind::Nmos, "inn", "out", "tail");
  b.mos(DeviceKind::Nmos, "bt", "tail", "VSS");
  b.mos(DeviceKind::Pmos, "d1", "d1", "VDD");
  b.mos(DeviceKind::Pmos, "d1", "out", "VDD");
  b.io("out", IoPin::Vout1);
  const Netlist ota = b.take();
  opt::GaConfig ga;
  ga.population = 8;
  ga.generations = 2;
  const auto res = eval::fom_at_k([&]() { return eval::Attempt{ota}; }, 4,
                                  CircuitType::OpAmp, ga);
  EXPECT_EQ(res.relevant, 4);
  EXPECT_GT(res.best_fom, 0.0);
  // FoM@k is monotone in k for a deterministic generator.
  const auto res2 = eval::fom_at_k([&]() { return eval::Attempt{ota}; }, 1,
                                   CircuitType::OpAmp, ga);
  EXPECT_GE(res.best_fom, res2.best_fom - 1e-9);
}

}  // namespace
