// Additional coverage: PPO-support tensor ops (clamp/min), constrained-
// sampling guarantees, simulator device-model behaviours, uniform-policy
// tours, and reward-model learning effects.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/canon.hpp"
#include "circuit/pingraph.hpp"
#include "circuit/validity.hpp"
#include "data/builder.hpp"
#include "data/dataset.hpp"
#include "nn/sampler.hpp"
#include "rl/reward_model.hpp"
#include "spice/engine.hpp"
#include "spice/fom.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace eva;
using circuit::DeviceKind;
using circuit::IoPin;
using circuit::Netlist;

// --- clamp_t / min_t ---------------------------------------------------------

TEST(TensorExtra, ClampForward) {
  auto x = tensor::Tensor::from({4}, {-2.0f, 0.5f, 1.0f, 3.0f});
  auto y = tensor::clamp_t(x, 0.0f, 1.0f);
  EXPECT_FLOAT_EQ(y.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.data()[1], 0.5f);
  EXPECT_FLOAT_EQ(y.data()[3], 1.0f);
}

TEST(TensorExtra, ClampGradZeroOutsideInterval) {
  auto x = tensor::Tensor::from({3}, {-2.0f, 0.5f, 3.0f}, true);
  auto loss = tensor::sum_all(tensor::clamp_t(x, 0.0f, 1.0f));
  loss.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 1.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], 0.0f);
}

TEST(TensorExtra, MinForwardAndGradRouting) {
  auto a = tensor::Tensor::from({3}, {1.0f, 5.0f, 2.0f}, true);
  auto b = tensor::Tensor::from({3}, {3.0f, 4.0f, 2.0f}, true);
  auto m = tensor::min_t(a, b);
  EXPECT_FLOAT_EQ(m.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(m.data()[1], 4.0f);
  auto loss = tensor::sum_all(m);
  loss.backward();
  // Gradient goes to the smaller side; ties go to a.
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 0.0f);
  EXPECT_FLOAT_EQ(b.grad()[1], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[2], 1.0f);  // tie
  EXPECT_FLOAT_EQ(b.grad()[2], 0.0f);
}

TEST(TensorExtra, PpoClippedSurrogateValue) {
  // min(r*A, clip(r)*A) with A > 0 caps the ratio at 1+eps.
  auto ratio = tensor::Tensor::from({2}, {2.0f, 0.5f}, true);
  auto adv = tensor::Tensor::from({2}, {1.0f, 1.0f});
  auto clipped = tensor::clamp_t(ratio, 0.8f, 1.2f);
  auto obj = tensor::min_t(tensor::mul(ratio, adv), tensor::mul(clipped, adv));
  EXPECT_FLOAT_EQ(obj.data()[0], 1.2f);
  EXPECT_FLOAT_EQ(obj.data()[1], 0.5f);
}

// --- constrained sampling guarantees ----------------------------------------

struct SamplerFixture {
  data::Dataset ds;
  nn::Tokenizer tok;
  nn::TransformerLM model;
  static SamplerFixture make() {
    data::DatasetConfig cfg;
    cfg.per_type = 4;
    cfg.seed = 900;
    cfg.require_simulatable = false;
    auto ds = data::Dataset::build(cfg);
    auto tok = nn::Tokenizer::from_dataset(ds);
    Rng rng(1);
    nn::TransformerLM model(nn::ModelConfig::tiny(tok.vocab_size()), rng);
    return {std::move(ds), std::move(tok), std::move(model)};
  }
};

TEST(ConstrainedSampling, EveryMaskedSampleDecodes) {
  // The walk-legality mask + guided closure guarantee decodability even
  // from a random-weight model.
  auto fx = SamplerFixture::make();
  Rng rng(2);
  nn::SampleOptions opts;
  opts.max_len = 96;
  opts.legality_mask = true;
  const auto samples = nn::sample_batch(fx.model, fx.tok, rng, 30, opts);
  int decoded = 0;
  for (const auto& s : samples) {
    decoded += nn::ids_to_netlist(fx.tok, s.ids).has_value();
  }
  EXPECT_EQ(decoded, 30);
}

TEST(ConstrainedSampling, NoSelfLoopsEmitted) {
  auto fx = SamplerFixture::make();
  Rng rng(3);
  nn::SampleOptions opts;
  opts.max_len = 96;
  const auto samples = nn::sample_batch(fx.model, fx.tok, rng, 10, opts);
  for (const auto& s : samples) {
    for (std::size_t i = 1; i < s.ids.size(); ++i) {
      EXPECT_NE(s.ids[i], s.ids[i - 1]);
    }
  }
}

TEST(ConstrainedSampling, SupplyShortsAreRare) {
  // The sampled-token rejection makes rail shorts impossible for model
  // edges; only the forced-closure's final hop can still create one (when
  // the walk is stranded on the VDD component). Even from a random-weight
  // model that must stay a small minority.
  auto fx = SamplerFixture::make();
  Rng rng(4);
  nn::SampleOptions opts;
  opts.max_len = 96;
  const auto samples = nn::sample_batch(fx.model, fx.tok, rng, 25, opts);
  int shorted = 0;
  for (const auto& s : samples) {
    const auto nl = nn::ids_to_netlist(fx.tok, s.ids);
    ASSERT_TRUE(nl.has_value());
    bool shorted_here = false;
    for (const auto& net : nl->nets()) {
      bool vdd = false, vss = false;
      for (const auto& p : net) {
        vdd |= p.is_io() && p.io == IoPin::Vdd;
        vss |= p.is_io() && p.io == IoPin::Vss;
      }
      shorted_here |= vdd && vss;
    }
    shorted += shorted_here;
  }
  EXPECT_LE(shorted, 25 * 2 / 5);
}

TEST(ConstrainedSampling, UnmaskedModeStillWorks) {
  auto fx = SamplerFixture::make();
  Rng rng(5);
  nn::SampleOptions opts;
  opts.max_len = 64;
  opts.legality_mask = false;
  const auto s = nn::sample_batch(fx.model, fx.tok, rng, 1, opts).front();
  EXPECT_GE(s.ids.size(), 1u);
  EXPECT_EQ(s.ids.front(), fx.tok.start_token());
}

// --- simulator device behaviours ---------------------------------------------

TEST(SpiceExtra, PmosMirrorCopiesCurrent) {
  // IREF-fed PMOS mirror: both branch currents flow; output leg drives a
  // resistor whose drop reflects the mirrored current.
  data::NetBuilder b;
  b.rails();
  b.io("ref", IoPin::Iref);
  b.mos(DeviceKind::Pmos, "ref", "ref", "VDD");  // diode-connected
  b.mos(DeviceKind::Pmos, "ref", "out", "VDD");  // mirror leg
  b.two(DeviceKind::Resistor, "out", "VSS");
  b.io("out", IoPin::Vout1);
  const Netlist nl = b.take();
  spice::Simulator sim(nl, spice::default_sizing(nl));
  ASSERT_TRUE(sim.solve_dc());
  const double vout = sim.io_voltage(IoPin::Vout1);
  // ~20 uA into 10 kOhm ~= 0.2 V (loose bounds: mirror + lambda effects).
  EXPECT_GT(vout, 0.02);
  EXPECT_LT(vout, 1.2);
}

TEST(SpiceExtra, NpnFollowerTracksBase) {
  data::NetBuilder b;
  b.rails();
  b.io("in", IoPin::Vin1);  // 0.9 V bias
  b.bjt(DeviceKind::Npn, "VDD", "in", "out");
  b.two(DeviceKind::Resistor, "out", "VSS");
  b.io("out", IoPin::Vout1);
  const Netlist nl = b.take();
  spice::Simulator sim(nl, spice::default_sizing(nl));
  ASSERT_TRUE(sim.solve_dc());
  const double vout = sim.io_voltage(IoPin::Vout1);
  // Emitter follower: out ~= base - VBE.
  EXPECT_NEAR(vout, 0.9 - 0.65, 0.2);
}

TEST(SpiceExtra, DifferentialPairGainExceedsSingleEnded) {
  // 5T OTA driven differentially must show small-signal gain > 1.
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
  const Netlist nl = b.take();
  spice::Simulator sim(nl, spice::default_sizing(nl));
  ASSERT_TRUE(sim.solve_dc());
  const auto sweep = sim.ac_sweep();
  EXPECT_GT(std::abs(sweep.front().h), 2.0);
}

TEST(SpiceExtra, BoostConverterStepsUp) {
  data::NetBuilder b;
  b.rails();
  b.io("clk", IoPin::Clk1);
  b.two(DeviceKind::Inductor, "VDD", "sw");
  b.mos(DeviceKind::Nmos, "clk", "sw", "VSS");
  b.two(DeviceKind::Diode, "sw", "out");
  b.two(DeviceKind::Capacitor, "out", "VSS");
  b.io("out", IoPin::Vout1);
  const Netlist nl = b.take();
  const auto perf =
      spice::evaluate_default(nl, circuit::CircuitType::PowerConverter);
  ASSERT_TRUE(perf.ok);
  // Quasi-static averaging: output must at least approach the input rail
  // (ideal boost exceeds it; averaged model is conservative).
  EXPECT_GT(perf.ratio, 0.3);
}

// --- uniform tour policy -------------------------------------------------------

TEST(TourPolicy, UniformToursStillRoundTrip) {
  Rng rng(6);
  data::DatasetConfig cfg;
  cfg.per_type = 2;
  cfg.seed = 901;
  cfg.require_simulatable = false;
  const auto ds = data::Dataset::build(cfg);
  for (const auto& e : ds.entries()) {
    const auto tour = circuit::encode_tour(
        e.netlist, rng, circuit::PinGraph::TourPolicy::Uniform);
    const auto res = circuit::decode_tour(tour);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(circuit::canonical_hash(res.netlist), e.hash);
  }
}

TEST(TourPolicy, PoliciesGiveSameGraph) {
  Rng rng(7);
  const auto nl = [] {
    data::NetBuilder b;
    b.rails();
    b.io("in", IoPin::Vin1);
    b.io("out", IoPin::Vout1);
    b.mos(DeviceKind::Nmos, "in", "out", "VSS");
    b.two(DeviceKind::Resistor, "VDD", "out");
    return b.take();
  }();
  const auto t1 = circuit::encode_tour(
      nl, rng, circuit::PinGraph::TourPolicy::DeviceFirst);
  const auto t2 =
      circuit::encode_tour(nl, rng, circuit::PinGraph::TourPolicy::Uniform);
  EXPECT_EQ(t1.size(), t2.size());  // same edge count either way
  const auto r1 = circuit::decode_tour(t1);
  const auto r2 = circuit::decode_tour(t2);
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_EQ(circuit::canonical_hash(r1.netlist),
            circuit::canonical_hash(r2.netlist));
}

// --- reward model learning -----------------------------------------------------

TEST(RewardModelExtra, AccuracyImprovesWithTraining) {
  data::DatasetConfig cfg;
  cfg.per_type = 5;
  cfg.seed = 902;
  cfg.require_simulatable = false;
  const auto ds = data::Dataset::build(cfg);
  const auto tok = nn::Tokenizer::from_dataset(ds);
  Rng rng(8);
  nn::TransformerLM model(nn::ModelConfig::tiny(tok.vocab_size()), rng);

  rl::LabelingConfig lcfg;
  lcfg.target = circuit::CircuitType::Mixer;
  const auto labels = rl::label_dataset(ds, tok, lcfg);

  rl::RewardModel rm(model, tok, rng);
  const double acc_before = rm.accuracy(labels.examples);
  rl::RewardModelConfig rmc;
  rmc.steps = 40;
  rm.train(labels.examples, rmc);
  const double acc_after = rm.accuracy(labels.examples);
  EXPECT_GE(acc_after, acc_before);
  EXPECT_GT(acc_after, 0.4);  // well above 1/3 chance on train set
}

TEST(LabelingExtra, OtsuThresholdSplitsRelevant) {
  data::DatasetConfig cfg;
  cfg.per_type = 6;
  cfg.seed = 903;
  cfg.require_simulatable = true;
  const auto ds = data::Dataset::build(cfg);
  const auto tok = nn::Tokenizer::from_dataset(ds);
  rl::LabelingConfig lcfg;
  lcfg.target = circuit::CircuitType::OpAmp;
  const auto labels = rl::label_dataset(ds, tok, lcfg);
  int high = 0, low = 0;
  for (const auto& e : labels.examples) {
    high += e.rank == rl::RankClass::HighRelevant;
    low += e.rank == rl::RankClass::LowRelevant;
  }
  EXPECT_GT(high, 0);
  EXPECT_GT(low, 0);
  EXPECT_EQ(high + low, 6);
}

}  // namespace
