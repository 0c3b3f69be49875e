// Learned FoM surrogate suite (DESIGN.md §15): trainer checkpoint
// kill-and-resume (bitwise), a checkpoint load that creates nothing,
// SurrogateScorer batch-width invariance
// across the three quant tiers, prefix scoring, the serving pre-filter's
// keep-fraction boundary semantics (0 / 1 / NaN scores), the paired
// on/off e2e contract (SPICE solves drop, best verified FoM survives),
// wire-protocol and stats field presence, and the PPO rollout hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/config.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "obs/metrics.hpp"
#include "rl/ppo.hpp"
#include "rl/reward_model.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve/stats.hpp"
#include "surrogate/scorer.hpp"
#include "surrogate/surrogate.hpp"
#include "util/rng.hpp"

namespace {

using namespace eva;
using namespace eva::surrogate;

nn::Tokenizer small_tokenizer() {
  return nn::Tokenizer({4, 4, 2, 2, 2, 2, 2, 2});
}

/// Deterministic synthetic labeled set: sequences whose token histogram
/// correlates with the rank class, so a few training steps separate the
/// classes.
std::vector<LabeledSeq> synthetic_examples(int vocab, int n, Rng& rng) {
  std::vector<LabeledSeq> out;
  for (int i = 0; i < n; ++i) {
    LabeledSeq e;
    e.rank = i % kNumClasses;
    const int len = 6 + static_cast<int>(rng.index(10));
    for (int t = 0; t < len; ++t) {
      // Bias the token range by rank so the bag-of-tokens pooling can
      // actually tell the classes apart.
      const int lo = e.rank * vocab / 4;
      const int hi = std::min(vocab - 1, lo + vocab / 2);
      e.ids.push_back(lo + static_cast<int>(rng.index(
                               static_cast<std::size_t>(hi - lo + 1))));
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<std::vector<int>> random_sequences(int vocab, int n, Rng& rng) {
  std::vector<std::vector<int>> out;
  for (int i = 0; i < n; ++i) {
    std::vector<int> ids;
    const int len = 1 + static_cast<int>(rng.index(20));
    for (int t = 0; t < len; ++t) {
      ids.push_back(static_cast<int>(rng.index(
          static_cast<std::size_t>(vocab))));
    }
    out.push_back(std::move(ids));
  }
  return out;
}

// --- make_labeled ------------------------------------------------------------

TEST(Surrogate, MakeLabeledDropsInvalidRank) {
  std::vector<rl::RankedExample> in(4);
  in[0].rank = rl::RankClass::HighRelevant;
  in[1].rank = rl::RankClass::LowRelevant;
  in[2].rank = rl::RankClass::IrrelevantValid;
  in[3].rank = rl::RankClass::Invalid;
  for (auto& e : in) e.ids = {1, 2, 3};
  const auto out = make_labeled(in);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].rank, 0);
  EXPECT_EQ(out[1].rank, 1);
  EXPECT_EQ(out[2].rank, 2);
}

// --- trainer + checkpoints ---------------------------------------------------

TEST(Surrogate, TrainReducesLossAndRanksClasses) {
  Rng rng(11);
  SurrogateModel model({.vocab = 24, .d_embed = 16, .d_hidden = 16}, rng);
  Rng data_rng(12);
  const auto examples = synthetic_examples(24, 60, data_rng);
  SurrogateTrainConfig cfg;
  cfg.steps = 150;
  cfg.seed = 13;
  const auto res = model.train(examples, cfg);
  ASSERT_EQ(res.losses.size(), 150u);
  EXPECT_LT(res.losses.back(), res.losses.front());
  EXPECT_GT(res.ranking_accuracy, 0.7);
  EXPECT_GT(res.class_accuracy, 0.5);
}

TEST(Surrogate, CheckpointKillAndResumeIsBitwise) {
  const std::string dir_a = ::testing::TempDir() + "sur_ckpt_a";
  const std::string dir_b = ::testing::TempDir() + "sur_ckpt_b";
  const SurrogateConfig scfg{.vocab = 20, .d_embed = 12, .d_hidden = 8};
  Rng data_rng(21);
  const auto examples = synthetic_examples(20, 40, data_rng);

  SurrogateTrainConfig tcfg;
  tcfg.steps = 12;
  tcfg.run.checkpoint_every = 6;
  tcfg.seed = 23;

  // Uninterrupted run.
  Rng rng_a(22);
  SurrogateModel a(scfg, rng_a);
  tcfg.run.checkpoint_dir = dir_a;
  a.train(examples, tcfg);

  // Killed at step 6, resumed in a freshly-initialized model (the
  // checkpoint restores params + optimizer + RNG, so init is irrelevant).
  Rng rng_b(22);
  SurrogateModel b(scfg, rng_b);
  tcfg.run.checkpoint_dir = dir_b;
  tcfg.steps = 6;
  b.train(examples, tcfg);

  Rng rng_c(999);  // deliberately different init
  SurrogateModel c(scfg, rng_c);
  tcfg.steps = 12;
  tcfg.run.resume = true;
  const auto res = c.train(examples, tcfg);
  EXPECT_EQ(res.start_step, 6);

  const auto pa = a.parameters();
  const auto pc = c.parameters();
  ASSERT_EQ(pa.size(), pc.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto da = pa[i].data();
    const auto dc = pc[i].data();
    ASSERT_EQ(da.size(), dc.size());
    for (std::size_t j = 0; j < da.size(); ++j) {
      ASSERT_EQ(da[j], dc[j]) << "param " << i << " elem " << j;
    }
  }
}

TEST(Surrogate, LoadCheckpointRestoresScores) {
  const std::string dir = ::testing::TempDir() + "sur_ckpt_load";
  const SurrogateConfig scfg{.vocab = 20, .d_embed = 12, .d_hidden = 8};
  Rng data_rng(31);
  const auto examples = synthetic_examples(20, 40, data_rng);
  Rng rng(32);
  SurrogateModel trained(scfg, rng);
  SurrogateTrainConfig tcfg;
  tcfg.steps = 10;
  tcfg.run.checkpoint_dir = dir;
  tcfg.seed = 33;
  trained.train(examples, tcfg);

  Rng rng2(77);
  SurrogateModel loaded(scfg, rng2);
  ASSERT_TRUE(loaded.load_checkpoint(dir));
  const std::vector<int> probe = {1, 5, 9, 13};
  EXPECT_EQ(trained.score(probe), loaded.score(probe));
  // Mismatched architecture refuses to load.
  Rng rng3(78);
  SurrogateModel other({.vocab = 20, .d_embed = 12, .d_hidden = 16}, rng3);
  EXPECT_FALSE(other.load_checkpoint(dir));
}

TEST(Surrogate, LoadCheckpointCreatesNothing) {
  namespace fs = std::filesystem;
  const fs::path root = ::testing::TempDir() + "sur_ckpt_readonly";
  fs::remove_all(root);
  fs::create_directories(root);
  Rng rng(35);
  SurrogateModel model({.vocab = 20, .d_embed = 12, .d_hidden = 8}, rng);

  // A missing directory loads nothing and is not created.
  const fs::path missing = root / "missing";
  EXPECT_FALSE(model.load_checkpoint(missing.string()));
  EXPECT_FALSE(fs::exists(missing));
  // A path under a regular file is unloadable, not an error.
  const fs::path file = root / "file";
  std::ofstream(file) << "not a directory";
  EXPECT_FALSE(model.load_checkpoint((file / "ckpt").string()));
  fs::remove_all(root);
}

// --- scorer ------------------------------------------------------------------

TEST(SurrogateScorer, BatchMatchesSingleAcrossWidthsAndTiers) {
  Rng rng(41);
  SurrogateModel model({.vocab = 28, .d_embed = 16, .d_hidden = 12}, rng);
  Rng seq_rng(42);
  const auto seqs = random_sequences(28, 17, seq_rng);
  for (const auto kind : {tensor::QuantKind::kF32, tensor::QuantKind::kBf16,
                          tensor::QuantKind::kInt8}) {
    const SurrogateScorer scorer(model, kind);
    for (const std::size_t width : {std::size_t{1}, std::size_t{8},
                                    std::size_t{17}}) {
      const std::vector<std::vector<int>> batch(seqs.begin(),
                                                seqs.begin() +
                                                    static_cast<long>(width));
      const auto got = scorer.score_batch(batch);
      ASSERT_EQ(got.size(), width);
      for (std::size_t i = 0; i < width; ++i) {
        ASSERT_EQ(got[i], scorer.score_one(batch[i]))
            << "tier " << tensor::quant_kind_name(kind) << " width " << width
            << " row " << i;
      }
    }
  }
}

TEST(SurrogateScorer, ScoresAreFiniteAndInRange) {
  Rng rng(43);
  SurrogateModel model({.vocab = 28, .d_embed = 16, .d_hidden = 12}, rng);
  const SurrogateScorer scorer(model);
  Rng seq_rng(44);
  for (const auto& ids : random_sequences(28, 10, seq_rng)) {
    const float s = scorer.score_one(ids);
    ASSERT_TRUE(std::isfinite(s));
    ASSERT_GE(s, -0.5f);
    ASSERT_LE(s, 1.0f);
  }
}

TEST(SurrogateScorer, PrefixScoresEndAtFullSequenceScore) {
  Rng rng(45);
  SurrogateModel model({.vocab = 28, .d_embed = 16, .d_hidden = 12}, rng);
  for (const auto kind : {tensor::QuantKind::kF32, tensor::QuantKind::kInt8}) {
    const SurrogateScorer scorer(model, kind);
    const std::vector<int> ids = {3, 7, 1, 19, 4, 4, 22, 9};
    const auto prefixes = scorer.score_prefixes(ids);
    ASSERT_EQ(prefixes.size(), ids.size());
    EXPECT_EQ(prefixes.back(), scorer.score_one(ids));
    EXPECT_EQ(prefixes.front(), scorer.score_one({ids.front()}));
  }
}

// --- serving pre-filter ------------------------------------------------------

struct SurrogateServeFixture {
  explicit SurrogateServeFixture(double keep,
                                 bool with_scorer = true,
                                 bool poison_scorer = false)
      : tok(small_tokenizer()),
        rng(99),
        model(nn::ModelConfig::tiny(tok.vocab_size()), rng) {
    serve::ServiceConfig cfg;
    cfg.batch_width = 4;
    cfg.sample.max_len = 48;
    cfg.surrogate_keep = keep;
    if (with_scorer) {
      SurrogateModel head = SurrogateModel::from_lm(model, 16, rng);
      if (poison_scorer) {
        // NaN weights -> NaN scores for every candidate: the filter must
        // stay total (non-finite sorts last, n_keep still honored).
        auto params = head.parameters();
        for (float& x : params[3].data()) {
          x = std::numeric_limits<float>::quiet_NaN();
        }
      }
      cfg.surrogate = std::make_shared<SurrogateScorer>(head);
    }
    service = std::make_unique<serve::GenerationService>(model, tok, cfg);
  }

  serve::Response run(int n, std::uint64_t seed) {
    service->start();
    serve::Request req;
    req.n = n;
    req.seed = seed;
    auto t = service->submit(req);
    return t.response.get();
  }

  nn::Tokenizer tok;
  Rng rng;
  nn::TransformerLM model;
  std::unique_ptr<serve::GenerationService> service;
};

std::int64_t dc_solves() {
  return obs::counter("spice.dc_solves").value();
}

TEST(SurrogateServe, KeepZeroSkipsAllSpice) {
  SurrogateServeFixture f(0.0);
  const std::int64_t before = dc_solves();
  const auto r = f.run(6, 17);
  ASSERT_EQ(r.status, serve::Status::kOk);
  EXPECT_EQ(dc_solves(), before);
  for (const auto& item : r.items) {
    if (item.decoded && !item.cached) {
      EXPECT_TRUE(item.surrogate);
      EXPECT_FALSE(item.valid);
    }
  }
}

TEST(SurrogateServe, KeepOneVerifiesEverything) {
  SurrogateServeFixture on(1.0);
  SurrogateServeFixture off(0.25, /*with_scorer=*/false);
  const auto r_on = on.run(6, 17);
  const auto r_off = off.run(6, 17);
  ASSERT_EQ(r_on.status, serve::Status::kOk);
  ASSERT_EQ(r_on.items.size(), r_off.items.size());
  for (std::size_t i = 0; i < r_on.items.size(); ++i) {
    EXPECT_FALSE(r_on.items[i].surrogate);
    // keep >= 1 must be outcome-identical to no surrogate at all.
    EXPECT_EQ(r_on.items[i].valid, r_off.items[i].valid);
    EXPECT_EQ(r_on.items[i].fom, r_off.items[i].fom);
  }
}

TEST(SurrogateServe, NanScoresStillResolve) {
  SurrogateServeFixture f(0.5, /*with_scorer=*/true, /*poison_scorer=*/true);
  const auto r = f.run(6, 17);
  ASSERT_EQ(r.status, serve::Status::kOk);
  EXPECT_EQ(r.items.size(), 6u);
  // NaN keep fraction keeps everything (fails open, never crashes).
  SurrogateServeFixture g(std::numeric_limits<double>::quiet_NaN());
  const auto r2 = g.run(4, 17);
  ASSERT_EQ(r2.status, serve::Status::kOk);
  for (const auto& item : r2.items) EXPECT_FALSE(item.surrogate);
}

/// Shared trained-surrogate world for the paired e2e: a dataset-derived
/// tokenizer, a tiny LM, and a surrogate head fitted on the labeled
/// dataset (the same pipeline tools/eva_surrogate_train drives). Built
/// once — everything downstream is deterministic.
struct TrainedWorld {
  data::Dataset ds;
  nn::Tokenizer tok;
  nn::TransformerLM model;
  std::shared_ptr<SurrogateScorer> scorer;

  static const TrainedWorld& get() {
    static TrainedWorld* w = [] {
      data::DatasetConfig dcfg;
      dcfg.per_type = 8;
      dcfg.seed = 71;
      dcfg.require_simulatable = false;
      auto ds = data::Dataset::build(dcfg);
      auto tok = nn::Tokenizer::from_dataset(ds);
      Rng rng(72);
      nn::TransformerLM model(nn::ModelConfig::tiny(tok.vocab_size()), rng);
      auto* out = new TrainedWorld{std::move(ds), std::move(tok),
                                   std::move(model), nullptr};
      rl::LabelingConfig lcfg;
      lcfg.seed = 73;
      const auto labels = rl::label_dataset(out->ds, out->tok, lcfg);
      SurrogateModel head = SurrogateModel::from_lm(out->model, 16, rng);
      SurrogateTrainConfig tcfg;
      tcfg.steps = 200;
      tcfg.seed = 74;
      head.train(make_labeled(labels.examples), tcfg);
      out->scorer = std::make_shared<SurrogateScorer>(head);
      return out;
    }();
    return *w;
  }

  std::unique_ptr<serve::GenerationService> service(bool with_surrogate,
                                                    double keep) const {
    serve::ServiceConfig cfg;
    cfg.batch_width = 4;
    cfg.sample.max_len = 48;
    cfg.surrogate_keep = keep;
    if (with_surrogate) cfg.surrogate = scorer;
    return std::make_unique<serve::GenerationService>(
        const_cast<nn::TransformerLM&>(model), tok, cfg);
  }
};

TEST(SurrogateServe, PairedOnOffDropsSpiceAndKeepsBestFom) {
  // Seeded regression set: the same request stream (seeds 1..48, fixed
  // n) through a surrogate-off and a surrogate-on service sharing the
  // model weights. The contract: total SPICE solve work drops by >= 3x
  // at keep = 0.25 while the best verified FoM across the whole set is
  // identical — the filter sheds work, not discoveries.
  const auto& w = TrainedWorld::get();
  auto off_svc = w.service(false, 0.25);
  auto on_svc = w.service(true, 0.25);
  off_svc->start();
  on_svc->start();

  const int kN = 16;
  const std::uint64_t kSeeds = 48;
  double best_off = 0.0, best_on = 0.0;
  std::int64_t off_delta = 0, on_delta = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    serve::Request req;
    req.n = kN;
    req.seed = seed;
    std::int64_t t0 = dc_solves();
    auto t_off = off_svc->submit(req);
    const auto r_off = t_off.response.get();
    off_delta += dc_solves() - t0;

    t0 = dc_solves();
    auto t_on = on_svc->submit(req);
    const auto r_on = t_on.response.get();
    on_delta += dc_solves() - t0;

    ASSERT_EQ(r_off.status, serve::Status::kOk);
    ASSERT_EQ(r_on.status, serve::Status::kOk);
    ASSERT_EQ(r_off.items.size(), r_on.items.size());
    // Same decoded topologies on both sides (the filter never touches
    // sampling).
    for (std::size_t i = 0; i < r_off.items.size(); ++i) {
      ASSERT_EQ(r_off.items[i].ids, r_on.items[i].ids);
    }
    for (const auto& item : r_off.items) {
      if (item.valid) best_off = std::max(best_off, item.fom);
    }
    for (const auto& item : r_on.items) {
      if (item.valid) best_on = std::max(best_on, item.fom);
    }
  }

  // SPICE work drops by at least 3x at keep = 0.25.
  ASSERT_GT(off_delta, 0);
  EXPECT_GE(off_delta, 3 * on_delta) << "off " << off_delta << " on "
                                     << on_delta;

  // The trained filter kept every discovery: identical best FoM over the
  // full regression set.
  ASSERT_GT(best_off, 0.0);
  EXPECT_EQ(best_on, best_off);
}

// --- wire protocol + stats ---------------------------------------------------

TEST(SurrogateServe, ProtocolAndStatsCarrySurrogateFields) {
  serve::Item item;
  item.surrogate = true;
  EXPECT_NE(serve::item_to_json(item, 1).find("\"surrogate\": true"),
            std::string::npos);
  item.surrogate = false;
  EXPECT_NE(serve::item_to_json(item, 1).find("\"surrogate\": false"),
            std::string::npos);

  serve::Response r;
  r.status = serve::Status::kOk;
  EXPECT_NE(serve::done_to_json(r).find("\"surrogate_ms\""),
            std::string::npos);

  SurrogateServeFixture f(0.25);
  f.run(2, 5);
  const std::string stats = serve::stats_json(*f.service);
  EXPECT_NE(stats.find("\"surrogate\": {\"enabled\": true"),
            std::string::npos);
  EXPECT_NE(stats.find("\"keep_frac\": 0.25"), std::string::npos);
  EXPECT_NE(stats.find("\"skipped_spice\""), std::string::npos);
  EXPECT_NE(stats.find("\"ranking_accuracy\""), std::string::npos);
  EXPECT_NE(stats.find("\"surrogate\": {\"window\""), std::string::npos)
      << "surrogate stage missing from the stage histograms";
}

// --- PPO hook ----------------------------------------------------------------

TEST(SurrogatePpo, FilteredRolloutsSkipRewardModelSpice) {
  data::DatasetConfig dcfg;
  dcfg.per_type = 4;
  dcfg.seed = 61;
  dcfg.require_simulatable = false;
  const auto ds = data::Dataset::build(dcfg);
  const auto tok = nn::Tokenizer::from_dataset(ds);
  Rng rng(62);
  nn::TransformerLM policy(nn::ModelConfig::tiny(tok.vocab_size()), rng);
  const rl::RewardModel rm(policy, tok, rng);

  SurrogateModel head = SurrogateModel::from_lm(policy, 16, rng);
  const SurrogateScorer scorer(head);

  rl::PpoConfig cfg;
  cfg.epochs = 1;
  cfg.rollouts = 6;
  cfg.ppo_epochs = 1;
  cfg.max_len = 24;
  cfg.surrogate = &scorer;
  cfg.surrogate_keep = 0.25f;

  const std::int64_t scored0 = obs::counter("ppo.surrogate.scored").value();
  const std::int64_t spice0 =
      obs::counter("ppo.surrogate.spice_rewards").value();
  const std::int64_t skip0 =
      obs::counter("ppo.surrogate.skipped_spice").value();

  rl::PpoTrainer trainer(policy, tok, rm, cfg, rng);
  const auto stats = trainer.train();
  EXPECT_EQ(stats.mean_reward.size(), 1u);

  const std::int64_t scored = obs::counter("ppo.surrogate.scored").value() -
                              scored0;
  const std::int64_t spice =
      obs::counter("ppo.surrogate.spice_rewards").value() - spice0;
  const std::int64_t skipped =
      obs::counter("ppo.surrogate.skipped_spice").value() - skip0;
  EXPECT_EQ(scored, 6);
  EXPECT_EQ(spice + skipped, scored);
  EXPECT_EQ(spice, 2);  // ceil(0.25 * 6)
}

}  // namespace
