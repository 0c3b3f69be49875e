// Tests for the GA sizer and the paper-metric evaluation harness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "circuit/canon.hpp"
#include "data/builder.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "eval/metrics.hpp"
#include "opt/ga.hpp"
#include "spice/fom.hpp"
#include "util/parallel.hpp"

namespace {

using namespace eva;
using circuit::CircuitType;
using circuit::DeviceKind;
using circuit::IoPin;
using circuit::Netlist;

// --- GA --------------------------------------------------------------------

TEST(Ga, MaximizesSphere) {
  // f(x) = -sum (x - 0.7)^2, optimum at 0.7^dim.
  auto fitness = [](const std::vector<double>& x) {
    double s = 0;
    for (double v : x) s -= (v - 0.7) * (v - 0.7);
    return s;
  };
  opt::GaConfig cfg;
  cfg.population = 30;
  cfg.generations = 25;
  const auto res = opt::ga_optimize(4, fitness, cfg);
  EXPECT_GT(res.best_fitness, -0.01);
  for (double g : res.best) EXPECT_NEAR(g, 0.7, 0.15);
}

TEST(Ga, ElitismMakesBestMonotone) {
  auto fitness = [](const std::vector<double>& x) { return x[0]; };
  opt::GaConfig cfg;
  cfg.generations = 10;
  const auto res = opt::ga_optimize(2, fitness, cfg);
  for (std::size_t i = 1; i < res.history.size(); ++i) {
    EXPECT_GE(res.history[i], res.history[i - 1] - 1e-12);
  }
}

TEST(Ga, DeterministicForSeed) {
  auto fitness = [](const std::vector<double>& x) {
    return -std::abs(x[0] - 0.3) - std::abs(x[1] - 0.9);
  };
  opt::GaConfig cfg;
  cfg.seed = 5150;
  const auto a = opt::ga_optimize(2, fitness, cfg);
  const auto b = opt::ga_optimize(2, fitness, cfg);
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
}

Netlist five_t_ota() {
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
  return b.take();
}

TEST(Ga, SizingImprovesOpAmpFom) {
  const Netlist nl = five_t_ota();
  const auto def = spice::evaluate_default(nl, CircuitType::OpAmp);
  ASSERT_TRUE(def.ok);
  opt::GaConfig cfg;
  cfg.population = 16;
  cfg.generations = 8;
  const auto sized = opt::size_topology(nl, CircuitType::OpAmp, cfg);
  ASSERT_TRUE(sized.ok);
  EXPECT_GE(sized.perf.fom, def.fom) << "GA must not lose to default sizing";
  EXPECT_GT(sized.perf.fom, 0.0);
}

TEST(Ga, SizeTopologyEmptyNetlist) {
  Netlist empty;
  const auto res = opt::size_topology(empty, CircuitType::OpAmp, {});
  EXPECT_FALSE(res.ok);
}

TEST(Ga, BatchFitnessMatchesPerGenome) {
  // The per-genome form adapts to the batch form: the same scores give the
  // same search, bit for bit.
  const auto score = [](const std::vector<double>& x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      s -= (x[i] - 0.3) * (x[i] - 0.3) * static_cast<double>(i + 1);
    }
    return s;
  };
  const opt::BatchFitness batch =
      [&](std::span<const std::vector<double>* const> genomes,
          std::span<double> fit) {
        for (std::size_t i = 0; i < genomes.size(); ++i) {
          fit[i] = score(*genomes[i]);
        }
      };
  opt::GaConfig cfg;
  cfg.seed = 77;
  const auto a = opt::ga_optimize(5, score, cfg);
  const auto b = opt::ga_optimize(5, batch, cfg);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(std::memcmp(&a.best_fitness, &b.best_fitness, sizeof(double)), 0);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.history[i], &b.history[i], sizeof(double)), 0);
  }
}

TEST(Ga, SizeTopologyBitwiseAcrossPoolWidths) {
  // Lane groups are spread over the pool; the grouping depends only on the
  // generation, so one and four workers size every topology alike.
  Rng rng(41);
  for (const auto type : {CircuitType::OpAmp, CircuitType::Bandgap,
                          CircuitType::PowerConverter}) {
    const Netlist nl = data::generate(type, rng);
    set_num_threads(1);
    const auto one = opt::size_topology(nl, type, {});
    set_num_threads(4);
    const auto four = opt::size_topology(nl, type, {});
    set_num_threads(0);
    EXPECT_EQ(one.ok, four.ok) << circuit::type_name(type);
    EXPECT_EQ(one.sizing.value, four.sizing.value) << circuit::type_name(type);
    EXPECT_EQ(std::memcmp(&one.perf.fom, &four.perf.fom, sizeof(double)), 0)
        << circuit::type_name(type);
  }
}

// --- MMD ----------------------------------------------------------------------

TEST(Mmd, IdenticalSetsNearZero) {
  std::vector<std::vector<double>> x{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_NEAR(eval::mmd_gaussian(x, x, 1.0), 0.0, 1e-9);
}

TEST(Mmd, SeparatedSetsPositive) {
  std::vector<std::vector<double>> x{{0, 0}, {0.1, 0.1}, {0, 0.1}};
  std::vector<std::vector<double>> y{{5, 5}, {5.1, 5}, {5, 5.1}};
  EXPECT_GT(eval::mmd_gaussian(x, y, 1.0), 0.5);
}

TEST(Mmd, SymmetricInArguments) {
  std::vector<std::vector<double>> x{{0, 1}, {1, 0}};
  std::vector<std::vector<double>> y{{2, 2}, {3, 3}};
  EXPECT_NEAR(eval::mmd_gaussian(x, y, 2.0), eval::mmd_gaussian(y, x, 2.0),
              1e-12);
}

TEST(Mmd, MedianHeuristicFinite) {
  std::vector<std::vector<double>> x{{0, 0}, {1, 1}};
  std::vector<std::vector<double>> y{{0.5, 0.5}, {2, 2}};
  const double m = eval::mmd_gaussian(x, y);  // sigma from data
  EXPECT_TRUE(std::isfinite(m));
  EXPECT_GE(m, 0.0);
}

// --- evaluate_generation ----------------------------------------------------

data::Dataset small_ds(std::uint64_t seed) {
  data::DatasetConfig cfg;
  cfg.per_type = 4;
  cfg.seed = seed;
  cfg.require_simulatable = false;
  return data::Dataset::build(cfg);
}

TEST(GenerationEval, DatasetEntriesAreValidNotNovel) {
  const auto ds = small_ds(500);
  std::vector<eval::Attempt> attempts;
  for (int i = 0; i < 10; ++i) {
    attempts.emplace_back(ds.entries()[static_cast<std::size_t>(i)].netlist);
  }
  const auto ev = eval::evaluate_generation(attempts, ds);
  EXPECT_EQ(ev.total, 10);
  EXPECT_GT(ev.valid, 5);  // dataset entries are structurally valid
  EXPECT_EQ(ev.novel, 0);  // all hashes are in the dataset
  EXPECT_GE(ev.versatility, 2);
  EXPECT_LT(ev.mmd, 0.5);  // same distribution
}

TEST(GenerationEval, NulloptsCountAsInvalid) {
  const auto ds = small_ds(501);
  std::vector<eval::Attempt> attempts(5, std::nullopt);
  const auto ev = eval::evaluate_generation(attempts, ds);
  EXPECT_EQ(ev.total, 5);
  EXPECT_EQ(ev.valid, 0);
  EXPECT_DOUBLE_EQ(ev.validity_pct, 0.0);
}

TEST(GenerationEval, FreshTopologiesAreNovel) {
  const auto ds = small_ds(502);
  // Generate with a different seed stream: most will not hash-match.
  Rng rng(987654);
  std::vector<eval::Attempt> attempts;
  for (int i = 0; i < 8; ++i) attempts.emplace_back(data::gen_opamp(rng));
  const auto ev = eval::evaluate_generation(attempts, ds);
  if (ev.valid > 0) {
    EXPECT_GT(ev.novelty_pct, 50.0);
  }
}

// --- fom_at_k -------------------------------------------------------------------

TEST(FomAtK, FixedOpAmpGeneratorScoresPositive) {
  const Netlist ota = five_t_ota();
  opt::GaConfig ga;
  ga.population = 10;
  ga.generations = 4;
  const auto res = eval::fom_at_k([&]() { return eval::Attempt{ota}; }, 3,
                                  CircuitType::OpAmp, ga);
  EXPECT_EQ(res.attempts, 3);
  EXPECT_EQ(res.valid, 3);
  EXPECT_EQ(res.relevant, 3);
  EXPECT_GT(res.best_fom, 0.0);
  EXPECT_EQ(res.foms.size(), 3u);
}

TEST(FomAtK, AllInvalidGivesZero) {
  opt::GaConfig ga;
  const auto res = eval::fom_at_k([]() { return eval::Attempt{}; }, 4,
                                  CircuitType::OpAmp, ga);
  EXPECT_EQ(res.valid, 0);
  EXPECT_DOUBLE_EQ(res.best_fom, 0.0);
}

}  // namespace
