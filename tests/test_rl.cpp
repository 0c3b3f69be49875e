// Tests for the RL fine-tuning stack: Table I rewards, dataset labeling,
// the reward model, preference-pair construction, DPO and PPO mechanics.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "circuit/pingraph.hpp"
#include "circuit/validity.hpp"
#include "data/dataset.hpp"
#include "nn/lm_trainer.hpp"
#include "rl/dpo.hpp"
#include "rl/ppo.hpp"
#include "rl/reward_model.hpp"

namespace {

using namespace eva;
using namespace eva::rl;
using circuit::CircuitType;

struct Fixture {
  data::Dataset ds;
  nn::Tokenizer tok;
  nn::TransformerLM model;

  static Fixture make(std::uint64_t seed) {
    data::DatasetConfig cfg;
    cfg.per_type = 5;
    cfg.seed = seed;
    cfg.require_simulatable = false;
    auto ds = data::Dataset::build(cfg);
    auto tok = nn::Tokenizer::from_dataset(ds);
    Rng rng(seed + 1);
    nn::TransformerLM model(nn::ModelConfig::tiny(tok.vocab_size()), rng);
    return Fixture{std::move(ds), std::move(tok), std::move(model)};
  }
};

TEST(RankReward, TableIValues) {
  EXPECT_DOUBLE_EQ(rank_reward(RankClass::HighRelevant), 1.0);
  EXPECT_DOUBLE_EQ(rank_reward(RankClass::LowRelevant), 0.5);
  EXPECT_DOUBLE_EQ(rank_reward(RankClass::IrrelevantValid), -0.5);
  EXPECT_DOUBLE_EQ(rank_reward(RankClass::Invalid), -1.0);
}

TEST(Labeling, ProducesAllRankClasses) {
  auto fx = Fixture::make(400);
  LabelingConfig cfg;
  cfg.target = CircuitType::OpAmp;
  const auto res = label_dataset(fx.ds, fx.tok, cfg);
  std::set<RankClass> seen;
  for (const auto& e : res.examples) seen.insert(e.rank);
  EXPECT_TRUE(seen.count(RankClass::HighRelevant));
  EXPECT_TRUE(seen.count(RankClass::LowRelevant));
  EXPECT_TRUE(seen.count(RankClass::IrrelevantValid));
  EXPECT_TRUE(seen.count(RankClass::Invalid));
  EXPECT_EQ(res.labeled_count, static_cast<int>(res.examples.size()));
  EXPECT_GT(res.labeled_count, 0);
}

TEST(Labeling, RelevantCountMatchesTargetType) {
  auto fx = Fixture::make(401);
  LabelingConfig cfg;
  cfg.target = CircuitType::PowerConverter;
  const auto res = label_dataset(fx.ds, fx.tok, cfg);
  int relevant = 0;
  for (const auto& e : res.examples) {
    relevant += (e.rank == RankClass::HighRelevant ||
                 e.rank == RankClass::LowRelevant);
  }
  EXPECT_EQ(relevant,
            static_cast<int>(fx.ds.of_type(CircuitType::PowerConverter).size()));
}

TEST(Labeling, InvalidExamplesAreActuallyInvalid) {
  auto fx = Fixture::make(402);
  LabelingConfig cfg;
  cfg.target = CircuitType::OpAmp;
  const auto res = label_dataset(fx.ds, fx.tok, cfg);
  for (const auto& e : res.examples) {
    if (e.rank != RankClass::Invalid) continue;
    const auto dec = nn::ids_to_netlist_checked(fx.tok, e.ids);
    EXPECT_FALSE(dec.ok() && circuit::structurally_valid(*dec.netlist));
  }
}

TEST(RewardModelTest, TrainingReducesLoss) {
  auto fx = Fixture::make(403);
  LabelingConfig lcfg;
  lcfg.target = CircuitType::OpAmp;
  const auto labels = label_dataset(fx.ds, fx.tok, lcfg);

  Rng rng(5);
  RewardModel rm(fx.model, fx.tok, rng);
  RewardModelConfig cfg;
  cfg.steps = 30;
  const auto losses = rm.train(labels.examples, cfg);
  ASSERT_EQ(losses.size(), 30u);
  double head = 0, tail = 0;
  for (int i = 0; i < 5; ++i) {
    head += losses[static_cast<std::size_t>(i)];
    tail += losses[losses.size() - 1 - static_cast<std::size_t>(i)];
  }
  EXPECT_LT(tail, head);
}

TEST(RewardModelTest, RewardAppliesValidityRule) {
  auto fx = Fixture::make(404);
  Rng rng(6);
  RewardModel rm(fx.model, fx.tok, rng);
  // Garbage sequence: reward must be the Invalid rank (-1.0).
  EXPECT_DOUBLE_EQ(rm.reward({fx.tok.start_token()}), -1.0);
  // So must a sequence with an id outside the vocabulary.
  EXPECT_DOUBLE_EQ(
      rm.reward({fx.tok.start_token(), fx.tok.vocab_size()}), -1.0);
}

TEST(RewardModelTest, ScoreWithinRange) {
  auto fx = Fixture::make(405);
  Rng rng(7);
  RewardModel rm(fx.model, fx.tok, rng);
  Rng trng(8);
  const auto tour = circuit::encode_tour(fx.ds.entries()[0].netlist, trng);
  auto ids = fx.tok.encode_tour(tour);
  ids.pop_back();
  const double s = rm.score(ids);
  EXPECT_GE(s, -0.5 - 1e-6);
  EXPECT_LE(s, 1.0 + 1e-6);
  const auto probs = rm.classify(ids);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0f, 1e-4f);
}

TEST(PreferencePairs, AllSixCombosWhenClassesPresent) {
  auto fx = Fixture::make(406);
  LabelingConfig lcfg;
  lcfg.target = CircuitType::OpAmp;
  const auto labels = label_dataset(fx.ds, fx.tok, lcfg);
  Rng rng(9);
  const auto pairs = build_preference_pairs(labels.examples, 2, rng);
  // 4 classes present -> 6 combos x 2 pairs.
  EXPECT_EQ(pairs.size(), 12u);
  for (const auto& p : pairs) {
    EXPECT_FALSE(p.win.empty());
    EXPECT_FALSE(p.lose.empty());
  }
}

TEST(Dpo, TrainingReducesLossAndTracksStats) {
  auto fx = Fixture::make(407);
  LabelingConfig lcfg;
  lcfg.target = CircuitType::OpAmp;
  const auto labels = label_dataset(fx.ds, fx.tok, lcfg);
  Rng rng(10);
  const auto pairs = build_preference_pairs(labels.examples, 5, rng);

  DpoConfig cfg;
  cfg.steps = 25;
  cfg.pairs_per_step = 2;
  cfg.lr = 3e-4f;
  DpoTrainer trainer(fx.model, fx.tok, cfg);
  const auto stats = trainer.train(pairs);
  ASSERT_EQ(stats.loss.size(), 25u);
  ASSERT_EQ(stats.reward_acc.size(), 25u);
  double head = 0, tail = 0;
  for (int i = 0; i < 5; ++i) {
    head += stats.loss[static_cast<std::size_t>(i)];
    tail += stats.loss[stats.loss.size() - 1 - static_cast<std::size_t>(i)];
  }
  EXPECT_LT(tail, head) << "DPO loss did not decrease";
  for (double a : stats.reward_acc) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Dpo, RewardAccuracyImprovesOnTrainPairs) {
  auto fx = Fixture::make(408);
  LabelingConfig lcfg;
  lcfg.target = CircuitType::OpAmp;
  const auto labels = label_dataset(fx.ds, fx.tok, lcfg);
  Rng rng(11);
  const auto pairs = build_preference_pairs(labels.examples, 4, rng);

  DpoConfig cfg;
  cfg.steps = 30;
  cfg.pairs_per_step = 3;
  cfg.lr = 5e-4f;
  DpoTrainer trainer(fx.model, fx.tok, cfg);
  const double acc_before = trainer.reward_accuracy(pairs);
  // Untrained policy == reference: margin is exactly 0, accuracy 0.
  EXPECT_DOUBLE_EQ(acc_before, 0.0);
  trainer.train(pairs);
  const double acc_after = trainer.reward_accuracy(pairs);
  EXPECT_GT(acc_after, 0.5);
}

TEST(Ppo, RunsAndRecordsStats) {
  auto fx = Fixture::make(409);
  LabelingConfig lcfg;
  lcfg.target = CircuitType::OpAmp;
  const auto labels = label_dataset(fx.ds, fx.tok, lcfg);

  Rng rng(12);
  RewardModel rm(fx.model, fx.tok, rng);
  RewardModelConfig rmc;
  rmc.steps = 10;
  rm.train(labels.examples, rmc);

  PpoConfig cfg;
  cfg.epochs = 2;
  cfg.rollouts = 4;
  cfg.ppo_epochs = 1;
  cfg.minibatch = 2;
  cfg.max_len = 48;
  PpoTrainer trainer(fx.model, fx.tok, rm, cfg, rng);
  const auto stats = trainer.train();
  EXPECT_EQ(stats.mean_reward.size(), 2u);
  EXPECT_FALSE(stats.policy_loss.empty());
  EXPECT_EQ(stats.policy_loss.size(), stats.value_loss.size());
  for (double r : stats.mean_reward) {
    EXPECT_GE(r, -1.0 - 1e-9);
    EXPECT_LE(r, 1.0 + 1e-9);
    EXPECT_TRUE(std::isfinite(r));
  }
  for (double l : stats.total_loss) EXPECT_TRUE(std::isfinite(l));
}

TEST(Ppo, UntrainedModelRewardIsNearInvalid) {
  // A random-weight model emits garbage: mean reward should sit at the
  // bottom of the Table I scale (the finetune-only pathology of Fig. 3).
  auto fx = Fixture::make(410);
  LabelingConfig lcfg;
  lcfg.target = CircuitType::OpAmp;
  const auto labels = label_dataset(fx.ds, fx.tok, lcfg);
  Rng rng(13);
  RewardModel rm(fx.model, fx.tok, rng);
  RewardModelConfig rmc;
  rmc.steps = 5;
  rm.train(labels.examples, rmc);

  PpoConfig cfg;
  cfg.max_len = 48;
  PpoTrainer trainer(fx.model, fx.tok, rm, cfg, rng);
  const double r = trainer.evaluate_mean_reward(6);
  EXPECT_LT(r, -0.5);
}

}  // namespace
