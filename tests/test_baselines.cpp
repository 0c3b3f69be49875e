// Tests for the Table II baseline reimplementations: each must exhibit the
// design-space restriction that defines it.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>

#include "baselines/baselines.hpp"
#include "circuit/canon.hpp"
#include "circuit/classify.hpp"
#include "circuit/validity.hpp"
#include "data/dataset.hpp"

namespace {

using namespace eva;
using baselines::TopologyGenerator;
using circuit::CircuitType;

const data::Dataset& shared_ds() {
  static const data::Dataset ds = [] {
    data::DatasetConfig cfg;
    cfg.per_type = 6;
    cfg.seed = 600;
    cfg.require_simulatable = false;
    return data::Dataset::build(cfg);
  }();
  return ds;
}

struct Factory {
  const char* name;
  std::unique_ptr<TopologyGenerator> (*make)(const data::Dataset&);
};

// Print the baseline's name rather than the function's address: the printed
// value becomes the test name, and an address differs from run to run.
void PrintTo(const Factory& f, std::ostream* os) { *os << f.name; }

class AllBaselines : public ::testing::TestWithParam<Factory> {};

TEST_P(AllBaselines, ProducesSomeValidCircuits) {
  auto gen = GetParam().make(shared_ds());
  Rng rng(1);
  int valid = 0;
  for (int i = 0; i < 40; ++i) {
    const auto nl = gen->generate(rng);
    if (nl && circuit::structurally_valid(*nl)) ++valid;
  }
  EXPECT_GT(valid, 10) << gen->name();
  EXPECT_FALSE(gen->name().empty());
}

TEST_P(AllBaselines, ProducesSomeInvalidCircuits) {
  // Every baseline has a real error model: validity is not 100%.
  auto gen = GetParam().make(shared_ds());
  Rng rng(2);
  int invalid = 0;
  for (int i = 0; i < 60; ++i) {
    const auto nl = gen->generate(rng);
    if (!nl || !circuit::structurally_valid(*nl)) ++invalid;
  }
  EXPECT_GT(invalid, 0) << gen->name();
}

INSTANTIATE_TEST_SUITE_P(
    Factories, AllBaselines,
    ::testing::Values(
        Factory{"AnalogCoderLike", &baselines::make_analogcoder_like},
        Factory{"ArtisanLike", &baselines::make_artisan_like},
        Factory{"CktGnnLike", &baselines::make_cktgnn_like},
        Factory{"LaMagicLike", &baselines::make_lamagic_like}));

TEST(AnalogCoderLike, ReusesLibraryOnly) {
  auto gen = baselines::make_analogcoder_like(shared_ds());
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto nl = gen->generate(rng);
    if (!nl || !circuit::structurally_valid(*nl)) continue;
    // Every valid emission is a known dataset topology: zero novelty.
    EXPECT_TRUE(shared_ds().contains_hash(circuit::canonical_hash(*nl)));
  }
  EXPECT_TRUE(gen->supports(CircuitType::OpAmp));
  EXPECT_FALSE(gen->supports(CircuitType::PowerConverter));
  EXPECT_EQ(gen->labeled_required(CircuitType::PowerConverter), -1);
  EXPECT_GT(gen->labeled_required(CircuitType::OpAmp), 0);
  EXPECT_LE(gen->labeled_required(CircuitType::OpAmp), 3);
}

TEST(ArtisanLike, OpAmpSpecialist) {
  auto gen = baselines::make_artisan_like(shared_ds());
  Rng rng(4);
  int valid = 0;
  for (int i = 0; i < 40; ++i) {
    const auto nl = gen->generate(rng);
    if (!nl || !circuit::structurally_valid(*nl)) continue;
    ++valid;
    EXPECT_EQ(circuit::classify(*nl), CircuitType::OpAmp);
    EXPECT_TRUE(shared_ds().contains_hash(circuit::canonical_hash(*nl)));
  }
  EXPECT_GT(valid, 20);
  EXPECT_FALSE(gen->supports(CircuitType::Lna));
  // Trained on every labeled Op-Amp in the corpus.
  EXPECT_EQ(gen->labeled_required(CircuitType::OpAmp),
            static_cast<int>(shared_ds().of_type(CircuitType::OpAmp).size()));
}

TEST(CktGnnLike, GeneratesNovelOpAmps) {
  auto gen = baselines::make_cktgnn_like(shared_ds());
  Rng rng(5);
  int valid = 0;
  int novel = 0;
  std::set<std::uint64_t> distinct;
  for (int i = 0; i < 60; ++i) {
    const auto nl = gen->generate(rng);
    if (!nl || !circuit::structurally_valid(*nl)) continue;
    ++valid;
    const auto h = circuit::canonical_hash(*nl);
    distinct.insert(h);
    if (!shared_ds().contains_hash(h)) ++novel;
  }
  ASSERT_GT(valid, 10);
  // Sub-block composition explores outside the dataset.
  EXPECT_GT(static_cast<double>(novel) / valid, 0.5);
  EXPECT_GT(distinct.size(), 5u);
}

TEST(LaMagicLike, TinyDesignSpace) {
  auto gen = baselines::make_lamagic_like(shared_ds());
  Rng rng(6);
  for (int i = 0; i < 60; ++i) {
    const auto nl = gen->generate(rng);
    if (!nl) continue;
    // The defining restriction: at most ~5 devices on fixed nodes.
    EXPECT_LE(nl->num_devices(), 6);
  }
  EXPECT_TRUE(gen->supports(CircuitType::PowerConverter));
  EXPECT_FALSE(gen->supports(CircuitType::OpAmp));
  EXPECT_EQ(gen->labeled_required(CircuitType::OpAmp), -1);
}

}  // namespace
