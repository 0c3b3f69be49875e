// Tests for the dataset substrate: generators, mutations, dataset
// assembly, train/val splitting.
#include <gtest/gtest.h>

#include <set>

#include "circuit/canon.hpp"
#include "circuit/classify.hpp"
#include "circuit/validity.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "data/mutate.hpp"

namespace {

using namespace eva::circuit;
using namespace eva::data;
using eva::Rng;

class GeneratorValidity : public ::testing::TestWithParam<CircuitType> {};

TEST_P(GeneratorValidity, ProducesStructurallyValidCircuits) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 5);
  int valid = 0;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    valid += structurally_valid(generate(GetParam(), rng));
  }
  EXPECT_EQ(valid, n) << "type " << type_name(GetParam());
}

TEST_P(GeneratorValidity, ProducesStructuralVariety) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 1);
  std::set<std::uint64_t> hashes;
  for (int i = 0; i < 30; ++i) {
    hashes.insert(canonical_hash(generate(GetParam(), rng)));
  }
  // Every family has structural knobs: expect several distinct variants.
  EXPECT_GE(hashes.size(), 3u) << "type " << type_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, GeneratorValidity,
    ::testing::Values(CircuitType::OpAmp, CircuitType::Ldo,
                      CircuitType::Bandgap, CircuitType::Comparator,
                      CircuitType::Pll, CircuitType::Lna, CircuitType::Pa,
                      CircuitType::Mixer, CircuitType::Vco,
                      CircuitType::PowerConverter, CircuitType::ScSampler));

// --- mutations -------------------------------------------------------------

class MutationProperty : public ::testing::TestWithParam<MutationKind> {};

TEST_P(MutationProperty, ChangesHashWhenApplied) {
  Rng rng(91);
  int applied = 0;
  int changed = 0;
  for (int i = 0; i < 20; ++i) {
    Netlist nl = gen_opamp(rng);
    const auto before = canonical_hash(nl);
    if (apply_mutation(nl, GetParam(), rng)) {
      ++applied;
      changed += canonical_hash(nl) != before;
    }
  }
  EXPECT_GT(applied, 0);
  EXPECT_EQ(changed, applied);  // every applied mutation alters topology
}

TEST_P(MutationProperty, UsuallyPreservesValidity) {
  Rng rng(92);
  int applied = 0;
  int still_valid = 0;
  for (int i = 0; i < 30; ++i) {
    Netlist nl = gen_opamp(rng);
    if (apply_mutation(nl, GetParam(), rng)) {
      ++applied;
      still_valid += structurally_valid(nl);
    }
  }
  if (applied > 0) {
    EXPECT_GE(still_valid * 10, applied * 9)
        << "mutation broke validity too often";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MutationProperty,
    ::testing::Values(MutationKind::ParallelDevice,
                      MutationKind::SeriesResistor,
                      MutationKind::SourceDegeneration, MutationKind::Cascode,
                      MutationKind::LoadCap, MutationKind::BypassCap));

TEST(Mutate, GrowsDeviceCount) {
  Rng rng(93);
  Netlist nl = gen_opamp(rng);
  const int before = nl.num_devices();
  int grew = 0;
  for (int i = 0; i < 5; ++i) grew += mutate(nl, rng);
  if (grew > 0) {
    EXPECT_GT(nl.num_devices(), before);
  }
}

// --- dataset ---------------------------------------------------------------

TEST(Dataset, BuildsRequestedCounts) {
  DatasetConfig cfg;
  cfg.per_type = 8;
  cfg.seed = 100;
  cfg.require_simulatable = false;  // fast build for unit tests
  const Dataset ds = Dataset::build(cfg);
  EXPECT_EQ(ds.entries().size(), 8u * 11u);
  for (int t = 0; t < kNumCircuitTypes; ++t) {
    EXPECT_EQ(ds.of_type(static_cast<CircuitType>(t)).size(), 8u);
  }
}

TEST(Dataset, EntriesAreUniqueByHash) {
  DatasetConfig cfg;
  cfg.per_type = 6;
  cfg.seed = 101;
  cfg.require_simulatable = false;
  const Dataset ds = Dataset::build(cfg);
  std::set<std::uint64_t> hashes;
  for (const auto& e : ds.entries()) hashes.insert(e.hash);
  EXPECT_EQ(hashes.size(), ds.entries().size());
}

TEST(Dataset, EntriesAreValidAndTyped) {
  DatasetConfig cfg;
  cfg.per_type = 5;
  cfg.seed = 102;
  cfg.require_simulatable = false;
  const Dataset ds = Dataset::build(cfg);
  for (const auto& e : ds.entries()) {
    EXPECT_TRUE(structurally_valid(e.netlist));
    EXPECT_EQ(classify(e.netlist), e.type);
    EXPECT_EQ(canonical_hash(e.netlist), e.hash);
    EXPECT_TRUE(ds.contains_hash(e.hash));
  }
}

TEST(Dataset, SimulatableFilterHolds) {
  DatasetConfig cfg;
  cfg.per_type = 3;
  cfg.seed = 103;
  cfg.require_simulatable = true;
  const Dataset ds = Dataset::build(cfg);
  EXPECT_EQ(ds.entries().size(), 3u * 11u);
}

TEST(Dataset, SplitDisjointAndComplete) {
  DatasetConfig cfg;
  cfg.per_type = 6;
  cfg.seed = 104;
  cfg.require_simulatable = false;
  const Dataset ds = Dataset::build(cfg);
  const auto split = ds.split(0.9);
  EXPECT_EQ(split.train.size() + split.val.size(), ds.entries().size());
  std::set<std::size_t> train(split.train.begin(), split.train.end());
  for (std::size_t v : split.val) EXPECT_EQ(train.count(v), 0u);
  EXPECT_GT(split.val.size(), 0u);
}

TEST(Dataset, SplitDeterministicForSeed) {
  DatasetConfig cfg;
  cfg.per_type = 4;
  cfg.seed = 105;
  cfg.require_simulatable = false;
  const Dataset ds = Dataset::build(cfg);
  const auto s1 = ds.split(0.9, 7);
  const auto s2 = ds.split(0.9, 7);
  EXPECT_EQ(s1.train, s2.train);
}

TEST(Dataset, BuildDeterministicForSeed) {
  DatasetConfig cfg;
  cfg.per_type = 3;
  cfg.seed = 106;
  cfg.require_simulatable = false;
  const Dataset a = Dataset::build(cfg);
  const Dataset b = Dataset::build(cfg);
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    EXPECT_EQ(a.entries()[i].hash, b.entries()[i].hash);
  }
}

}  // namespace
