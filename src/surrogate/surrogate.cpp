#include "surrogate/surrogate.hpp"

#include <algorithm>
#include <cmath>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "tensor/optim.hpp"
#include "util/error.hpp"

namespace eva::surrogate {

using namespace eva::tensor;

SurrogateModel::SurrogateModel(SurrogateConfig cfg, Rng& rng) : cfg_(cfg) {
  EVA_REQUIRE(cfg.vocab > 0 && cfg.d_embed > 0 && cfg.d_hidden > 0,
              "surrogate: config dimensions must be positive");
  emb_ = Tensor::randn({cfg.vocab, cfg.d_embed}, rng, 0.02f, true);
  w1_ = Tensor::randn({cfg.d_embed, cfg.d_hidden}, rng, 0.02f, true);
  b1_ = Tensor::zeros({cfg.d_hidden}, true);
  w2_ = Tensor::randn({cfg.d_hidden, kNumClasses}, rng, 0.02f, true);
  b2_ = Tensor::zeros({kNumClasses}, true);
}

SurrogateModel SurrogateModel::from_lm(const nn::TransformerLM& lm,
                                       int d_hidden, Rng& rng) {
  SurrogateModel m(
      SurrogateConfig{lm.config().vocab, lm.config().d_model, d_hidden}, rng);
  const auto src = lm.token_embedding().data();
  std::copy(src.begin(), src.end(), m.emb_.data().begin());
  return m;
}

std::vector<Tensor> SurrogateModel::parameters() const {
  return {emb_, w1_, b1_, w2_, b2_};
}

std::uint64_t SurrogateModel::fingerprint() const {
  train::Fingerprint fp;
  fp.mix(std::uint64_t{0x5347});  // format tag: surrogate head snapshot
  fp.mix(cfg_.vocab).mix(cfg_.d_embed).mix(cfg_.d_hidden);
  return fp.value();
}

Tensor SurrogateModel::class_logits(
    const std::vector<const std::vector<int>*>& batch) const {
  const int B = static_cast<int>(batch.size());
  EVA_REQUIRE(B > 0, "surrogate: empty batch");
  const int V = cfg_.vocab;
  // Bag-of-tokens pooling matrix P(B,V): row b holds the normalized
  // token histogram of sequence b (out-of-range ids ignored; an empty or
  // all-out-of-range sequence pools to the zero vector).
  std::vector<float> counts(static_cast<std::size_t>(B) * V, 0.0f);
  for (int b = 0; b < B; ++b) {
    float* row = &counts[static_cast<std::size_t>(b) * V];
    int n = 0;
    for (const int id : *batch[static_cast<std::size_t>(b)]) {
      if (id >= 0 && id < V) {
        row[id] += 1.0f;
        ++n;
      }
    }
    if (n > 0) {
      const float inv = 1.0f / static_cast<float>(n);
      for (int v = 0; v < V; ++v) row[v] *= inv;
    }
  }
  Tensor P = Tensor::from({B, V}, std::move(counts));
  Tensor feats = matmul(P, emb_);                  // (B,E)
  Tensor h = gelu(add(matmul(feats, w1_), b1_));   // (B,H)
  return add(matmul(h, w2_), b2_);                 // (B,3)
}

double SurrogateModel::score(const std::vector<int>& ids) const {
  Tensor probs = softmax_lastdim(class_logits({&ids}));
  return expected_rank_score(probs.data().data());
}

double SurrogateModel::class_accuracy(
    const std::vector<LabeledSeq>& examples) const {
  int correct = 0;
  int total = 0;
  for (const auto& e : examples) {
    if (e.rank < 0 || e.rank >= kNumClasses) continue;
    Tensor logits = class_logits({&e.ids});
    const auto row = logits.data();
    const int pred = static_cast<int>(
        std::max_element(row.begin(), row.end()) - row.begin());
    correct += pred == e.rank;
    ++total;
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

double SurrogateModel::ranking_accuracy(
    const std::vector<LabeledSeq>& examples) const {
  // Deterministic per-class cap keeps the pair count bounded (the metric
  // is O(cap^2) pairs across the three class boundaries).
  constexpr std::size_t kCapPerClass = 64;
  std::vector<std::vector<double>> scores(kNumClasses);
  for (const auto& e : examples) {
    if (e.rank < 0 || e.rank >= kNumClasses) continue;
    auto& cls = scores[static_cast<std::size_t>(e.rank)];
    if (cls.size() >= kCapPerClass) continue;
    cls.push_back(score(e.ids));
  }
  std::int64_t correct = 0;
  std::int64_t total = 0;
  for (int hi = 0; hi < kNumClasses; ++hi) {
    for (int lo = hi + 1; lo < kNumClasses; ++lo) {
      for (const double a : scores[static_cast<std::size_t>(hi)]) {
        for (const double b : scores[static_cast<std::size_t>(lo)]) {
          correct += a > b;
          ++total;
        }
      }
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) /
                                static_cast<double>(total);
}

SurrogateTrainResult SurrogateModel::train(
    const std::vector<LabeledSeq>& examples, const SurrogateTrainConfig& cfg) {
  EVA_REQUIRE(!examples.empty(), "surrogate: no training examples");
  SurrogateTrainResult res;
  Rng rng(cfg.seed);
  auto params = parameters();
  AdamW opt(params, {.lr = cfg.lr});

  // No sentinel: its loss EMA gets small late in training, and the 10x
  // spike rule would then skip real batches.
  train::Run run("surrogate", {params, &opt, &rng}, cfg.steps, cfg.run,
                 {.enabled = false}, fingerprint());
  res.start_step = run.step();
  for (int step = res.start_step; step < cfg.steps; ++step) {
    opt.zero_grad();
    std::vector<const std::vector<int>*> batch;
    std::vector<int> labels;
    batch.reserve(static_cast<std::size_t>(cfg.minibatch));
    labels.reserve(static_cast<std::size_t>(cfg.minibatch));
    for (int b = 0; b < std::max(1, cfg.minibatch); ++b) {
      const LabeledSeq& e = examples[rng.index(examples.size())];
      batch.push_back(&e.ids);
      labels.push_back(e.rank);
    }
    Tensor logits = class_logits(batch);
    Tensor loss = cross_entropy(logits, labels);
    loss.backward();
    run.clip(params, cfg.clip);
    opt.step();
    res.losses.push_back(loss.item());
    if (run.finish(step + 1, {})) break;
  }

  res.class_accuracy = class_accuracy(examples);
  res.ranking_accuracy = ranking_accuracy(examples);
  obs::gauge("surrogate.class_accuracy").set(res.class_accuracy);
  obs::gauge("surrogate.ranking_accuracy").set(res.ranking_accuracy);
  obs::log_info(
      "surrogate.trained",
      {{"steps", static_cast<std::int64_t>(res.losses.size())},
       {"start_step", res.start_step},
       {"examples", static_cast<std::int64_t>(examples.size())},
       {"class_accuracy", res.class_accuracy},
       {"ranking_accuracy", res.ranking_accuracy}});
  return res;
}

bool SurrogateModel::load_checkpoint(const std::string& dir) {
  train::CheckpointManager mgr(
      train::CheckpointOptions{dir, /*keep_last=*/3, fingerprint()});
  train::TrainState ts;
  ts.params = parameters();
  return mgr.load_latest(ts).has_value();
}

}  // namespace eva::surrogate
