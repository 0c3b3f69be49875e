// Tests for the neural stack: tokenizer, transformer (training and
// KV-cache inference paths must agree), sampler, LM pretraining.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "circuit/canon.hpp"
#include "data/generators.hpp"
#include "nn/lm_trainer.hpp"
#include "nn/sampler.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"

namespace {

using namespace eva;
using namespace eva::nn;
using circuit::CircuitType;
using circuit::DeviceKind;
using circuit::IoPin;

Tokenizer small_tokenizer() {
  // Limits: 4 NMOS, 4 PMOS, 2 of everything else.
  return Tokenizer({4, 4, 2, 2, 2, 2, 2, 2});
}

TEST(Tokenizer, SpecialsAndIoLayout) {
  const Tokenizer tok = small_tokenizer();
  EXPECT_EQ(tok.name(Tokenizer::kPad), "Truncate");
  EXPECT_EQ(tok.name(Tokenizer::kEos), "<EOS>");
  EXPECT_EQ(tok.name(tok.encode_io(IoPin::Vss)), "VSS");
  EXPECT_EQ(tok.name(tok.encode_io(IoPin::Iref)), "IREF");
  EXPECT_EQ(tok.start_token(), tok.encode_io(IoPin::Vss));
}

TEST(Tokenizer, VocabSizeMatchesLimits) {
  const Tokenizer tok = small_tokenizer();
  // 2 specials + 11 IO + 4*4 + 4*4 (MOS) + 2*3 + 2*3 (BJT) + 4 * (2*2) 2-pin.
  EXPECT_EQ(tok.vocab_size(), 2 + 11 + 16 + 16 + 6 + 6 + 16);
}

TEST(Tokenizer, EncodeDecodeRoundTripAllTokens) {
  const Tokenizer tok = small_tokenizer();
  for (int id = 2; id < tok.vocab_size(); ++id) {
    const auto t = tok.decode(id);
    EXPECT_EQ(tok.encode(t), id) << tok.name(id);
  }
}

TEST(Tokenizer, PinNamesMatch) {
  const Tokenizer tok = small_tokenizer();
  const auto t = circuit::dev_token(DeviceKind::Nmos, 2, circuit::mos::D);
  EXPECT_EQ(tok.name(tok.encode(t)), "NM2_D");
}

TEST(Tokenizer, RejectsOverLimitDevice) {
  const Tokenizer tok = small_tokenizer();
  const auto t = circuit::dev_token(DeviceKind::Nmos, 9, 0);
  EXPECT_THROW((void)tok.encode(t), Error);
}

TEST(Tokenizer, FromDatasetCoversAllEntries) {
  data::DatasetConfig cfg;
  cfg.per_type = 4;
  cfg.seed = 300;
  cfg.require_simulatable = false;
  const auto ds = data::Dataset::build(cfg);
  const Tokenizer tok = Tokenizer::from_dataset(ds);
  Rng rng(1);
  for (const auto& e : ds.entries()) {
    const auto tour = circuit::encode_tour(e.netlist, rng);
    EXPECT_NO_THROW((void)tok.encode_tour(tour));
  }
}

TEST(Tokenizer, TourRoundTripThroughIds) {
  Rng rng(2);
  const auto nl = data::gen_opamp(rng);
  const Tokenizer tok(
      {20, 20, 4, 4, 10, 10, 6, 6});
  const auto tour = circuit::encode_tour(nl, rng);
  const auto ids = tok.encode_tour(tour);
  ASSERT_EQ(ids.size(), tour.size() + 1);
  EXPECT_EQ(ids.back(), Tokenizer::kEos);
  for (std::size_t i = 0; i < tour.size(); ++i) {
    EXPECT_EQ(tok.decode(ids[i]), tour[i]) << i;
  }
  const auto res = ids_to_netlist_checked(tok, ids);
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_EQ(circuit::canonical_hash(*res.netlist), circuit::canonical_hash(nl));
}

// --- transformer ---------------------------------------------------------

TEST(Transformer, ForwardShapes) {
  Rng rng(3);
  TransformerLM model(ModelConfig::tiny(32), rng);
  const std::vector<int> tokens{1, 2, 3, 4, 5, 6};  // B=2, T=3
  const auto logits = model.forward(tokens, 2, 3);
  EXPECT_EQ(logits.shape(), (tensor::Shape{6, 32}));
  const auto hidden = model.forward_hidden(tokens, 2, 3);
  EXPECT_EQ(hidden.shape(), (tensor::Shape{2, 3, 32}));
}

TEST(Transformer, ParamCountReasonable) {
  Rng rng(4);
  TransformerLM model(ModelConfig::tiny(32), rng);
  // tiny: C=32, 1 layer: emb 32*32 + pos 128*32 + block (~12*C^2 + ...) +
  // head 32*32. Just sanity-check the magnitude and parameter list size.
  EXPECT_GT(model.num_params(), 10000u);
  EXPECT_LT(model.num_params(), 100000u);
  EXPECT_EQ(model.parameters().size(), 2u + 16u + 3u);
}

TEST(Transformer, CausalityFutureTokensDontChangePast) {
  Rng rng(5);
  TransformerLM model(ModelConfig::tiny(16), rng);
  const std::vector<int> a{3, 4, 5, 6};
  const std::vector<int> b{3, 4, 9, 9};  // same prefix of 2
  const auto la = model.forward(a, 1, 4, false);
  const auto lb = model.forward(b, 1, 4, false);
  for (int pos = 0; pos < 2; ++pos) {
    for (int v = 0; v < 16; ++v) {
      EXPECT_NEAR(la.data()[static_cast<std::size_t>(pos * 16 + v)],
                  lb.data()[static_cast<std::size_t>(pos * 16 + v)], 1e-5f)
          << "position " << pos << " changed by a future token";
    }
  }
}

TEST(Transformer, KvCacheMatchesTrainingPath) {
  Rng rng(6);
  ModelConfig cfg = ModelConfig::tiny(24);
  cfg.n_layers = 2;  // exercise multi-layer cache
  TransformerLM model(cfg, rng);
  const std::vector<std::vector<int>> seqs{
      {2, 7, 11, 3, 19}, {4, 4, 9, 1, 22}, {13, 0, 5, 17, 6}};
  const int T = static_cast<int>(seqs[0].size());
  std::vector<int> flat;
  for (const auto& s : seqs) flat.insert(flat.end(), s.begin(), s.end());
  const auto logits = model.forward(flat, 3, T, false);

  // Step the first sequence alone (width 1), then all three together
  // (width 3); every step's row must match the training pass.
  for (const int width : {1, 3}) {
    auto cache = model.make_batched_cache(width);
    std::vector<int> slots(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) slots[static_cast<std::size_t>(i)] = i;
    std::vector<float> step_logits;
    for (int t = 0; t < T; ++t) {
      std::vector<int> tokens;
      for (int i = 0; i < width; ++i) {
        tokens.push_back(seqs[static_cast<std::size_t>(i)]
                             [static_cast<std::size_t>(t)]);
      }
      model.infer_step_batched(cache, slots, tokens, step_logits);
      for (int i = 0; i < width; ++i) {
        for (int v = 0; v < cfg.vocab; ++v) {
          EXPECT_NEAR(
              step_logits[static_cast<std::size_t>(i * cfg.vocab + v)],
              logits.data()[static_cast<std::size_t>(
                  (i * T + t) * cfg.vocab + v)],
              2e-3f)
              << "width=" << width << " seq=" << i << " t=" << t
              << " v=" << v;
        }
      }
    }
  }
}

TEST(Transformer, LoadFromCopiesWeights) {
  Rng r1(7), r2(8);
  TransformerLM a(ModelConfig::tiny(16), r1);
  TransformerLM b(ModelConfig::tiny(16), r2);
  const std::vector<int> tokens{1, 2, 3};
  const auto la = a.forward(tokens, 1, 3, false);
  b.load_from(a);
  const auto lb = b.forward(tokens, 1, 3, false);
  for (std::size_t i = 0; i < la.numel(); ++i) {
    EXPECT_FLOAT_EQ(la.data()[i], lb.data()[i]);
  }
}

TEST(Transformer, GradientsFlowToAllParameters) {
  Rng rng(9);
  TransformerLM model(ModelConfig::tiny(16), rng);
  const std::vector<int> tokens{1, 2, 3, 4};
  auto logits = model.forward(tokens, 1, 4);
  auto loss = tensor::cross_entropy(logits, {2, 3, 4, 5});
  loss.backward();
  int nonzero_params = 0;
  for (auto& p : model.parameters()) {
    bool any = false;
    for (float g : p.grad()) {
      if (g != 0.0f) {
        any = true;
        break;
      }
    }
    nonzero_params += any;
  }
  // pos_emb rows beyond T and unused vocab rows get no grad, but nearly
  // every parameter tensor must receive some gradient.
  EXPECT_GE(nonzero_params, static_cast<int>(model.parameters().size()) - 1);
}

// --- sampler ----------------------------------------------------------------

TEST(Sampler, StartsWithVssAndRespectsMaxLen) {
  Rng rng(10);
  const Tokenizer tok = small_tokenizer();
  TransformerLM model(ModelConfig::tiny(tok.vocab_size()), rng);
  SampleOptions opts;
  opts.max_len = 12;
  Rng srng(11);
  const auto res = sample_batch(model, tok, srng, 1, opts).front();
  EXPECT_EQ(res.ids.front(), tok.start_token());
  EXPECT_LE(res.ids.size(), 12u);
  EXPECT_EQ(res.logprobs.size() >= res.ids.size() - 1, true);
  for (float lp : res.logprobs) EXPECT_LE(lp, 0.0f);
}

TEST(Sampler, DeterministicGivenSeed) {
  Rng rng(12);
  const Tokenizer tok = small_tokenizer();
  TransformerLM model(ModelConfig::tiny(tok.vocab_size()), rng);
  Rng s1(77), s2(77);
  const auto a = sample_batch(model, tok, s1, 1).front();
  const auto b = sample_batch(model, tok, s2, 1).front();
  EXPECT_EQ(a.ids, b.ids);
}

TEST(Sampler, BatchProducesRequestedCount) {
  Rng rng(13);
  const Tokenizer tok = small_tokenizer();
  TransformerLM model(ModelConfig::tiny(tok.vocab_size()), rng);
  Rng srng(14);
  SampleOptions opts;
  opts.max_len = 16;
  const auto batch = sample_batch(model, tok, srng, 7, opts);
  EXPECT_EQ(batch.size(), 7u);
  for (const auto& r : batch) {
    EXPECT_EQ(r.ids.front(), tok.start_token());
  }
}

TEST(Sampler, TopKRestrictsSupport) {
  Rng rng(15);
  const Tokenizer tok = small_tokenizer();
  TransformerLM model(ModelConfig::tiny(tok.vocab_size()), rng);
  SampleOptions opts;
  opts.top_k = 1;  // greedy
  opts.max_len = 10;
  Rng s1(5), s2(99);
  // Greedy sampling is seed-independent.
  const auto a = sample_batch(model, tok, s1, 1, opts).front();
  const auto b = sample_batch(model, tok, s2, 1, opts).front();
  EXPECT_EQ(a.ids, b.ids);
}

TEST(Sampler, IdsToNetlistRejectsGarbage) {
  const Tokenizer tok = small_tokenizer();
  EXPECT_FALSE(ids_to_netlist(tok, {tok.start_token()}).has_value());
}

TEST(Sampler, IdsToNetlistAcceptsEncodedCircuit) {
  Rng rng(16);
  const auto nl = data::gen_sc_sampler(rng);
  const Tokenizer tok({20, 20, 4, 4, 10, 10, 6, 6});
  const auto ids = tok.encode_tour(circuit::encode_tour(nl, rng));
  std::vector<int> no_eos(ids.begin(), ids.end() - 1);
  const auto back = ids_to_netlist(tok, no_eos);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(circuit::canonical_hash(*back), circuit::canonical_hash(nl));
}

// --- lm trainer ----------------------------------------------------------------

TEST(LmTrainer, MakeBatchPadsAndShifts) {
  const std::vector<int> s1{10, 11, 12, 1};
  const std::vector<int> s2{10, 13, 1};
  const auto b = make_batch({&s1, &s2}, 64);
  EXPECT_EQ(b.batch, 2);
  EXPECT_EQ(b.seq_len, 3);
  // Row 0: inputs 10,11,12 -> targets 11,12,1.
  EXPECT_EQ(b.inputs[0], 10);
  EXPECT_EQ(b.targets[2], 1);
  // Row 1 padded: last input is pad, last target ignored.
  EXPECT_EQ(b.inputs[5], Tokenizer::kPad);
  EXPECT_EQ(b.targets[5], -1);
}

TEST(LmTrainer, BuildCorpusAugments) {
  data::DatasetConfig cfg;
  cfg.per_type = 4;
  cfg.seed = 301;
  cfg.require_simulatable = false;
  const auto ds = data::Dataset::build(cfg);
  const Tokenizer tok = Tokenizer::from_dataset(ds);
  Rng rng(17);
  const auto corpus = build_corpus(ds, tok, 3, 512, rng);
  const auto split = ds.split();
  EXPECT_EQ(corpus.train.size(), split.train.size() * 3);
  EXPECT_EQ(corpus.val.size(), split.val.size());
  for (const auto& s : corpus.train) {
    EXPECT_EQ(s.front(), tok.start_token());
    EXPECT_EQ(s.back(), Tokenizer::kEos);
  }
}

TEST(LmTrainer, PretrainingReducesLoss) {
  data::DatasetConfig dcfg;
  dcfg.per_type = 3;
  dcfg.seed = 302;
  dcfg.require_simulatable = false;
  const auto ds = data::Dataset::build(dcfg);
  const Tokenizer tok = Tokenizer::from_dataset(ds);
  Rng rng(18);
  const auto corpus = build_corpus(ds, tok, 2, 256, rng);

  TransformerLM model(ModelConfig::tiny(tok.vocab_size()), rng);
  PretrainConfig pcfg;
  pcfg.steps = 40;
  pcfg.batch = 4;
  pcfg.lr = 3e-3f;
  const auto result = pretrain(model, corpus, pcfg);
  ASSERT_EQ(result.losses.size(), 40u);
  const double first = result.losses.front();
  double last_avg = 0;
  for (int i = 0; i < 5; ++i) last_avg += result.losses[39 - static_cast<std::size_t>(i)];
  last_avg /= 5;
  EXPECT_LT(last_avg, first * 0.8) << "loss did not decrease";
  EXPECT_TRUE(std::isfinite(result.final_val_loss));
}

}  // namespace
