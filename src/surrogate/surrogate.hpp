// Learned FoM surrogate (DESIGN.md §15): a pooled-embedding MLP head
// that predicts the reward-model rank class of a token sequence without
// touching Mini-SPICE.
//
// The model is deliberately tiny: mean-pool the token-identity
// embedding of a sequence (a bag-of-tokens histogram times the LM's
// embedding table), one GELU hidden layer, a 3-class softmax over the
// valid rank classes {high-relevant, low-relevant, irrelevant}. The
// scalar surrogate score is the expected rank reward under those
// probabilities (same 1.0 / 0.5 / -0.5 weighting the reward model
// uses), so serving and PPO can order candidates by it directly.
//
// Labels come from the reward-model pipeline (rl::label_dataset); the
// Invalid rank is excluded here — surrogate callers already know
// whether a sequence decodes, and the rule-based checker owns that
// verdict. Training is plain minibatch cross-entropy with AdamW, driven
// by the train::Run runtime with bitwise kill-and-resume (same contract
// as pretrain/PPO/DPO).
//
// This header stays independent of src/rl (eva_rl links eva_surrogate,
// not the other way around): make_labeled() converts any range of
// {ids, rank}-shaped examples — rl::RankedExample in practice — into
// the local LabeledSeq form, dropping ranks outside [0, 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/transformer.hpp"
#include "tensor/tensor.hpp"
#include "train/run.hpp"
#include "util/rng.hpp"

namespace eva::surrogate {

struct SurrogateConfig {
  int vocab = 0;     // pooling histogram width (token id range)
  int d_embed = 0;   // embedding width (d_model when seeded from the LM)
  int d_hidden = 32; // MLP hidden width
};

/// Number of predicted rank classes: {high, low, irrelevant}.
inline constexpr int kNumClasses = 3;

/// Expected rank reward of a class-probability row (p_high, p_low,
/// p_irrelevant) — the reward model's Table I weighting of the valid
/// classes. Range [-0.5, 1.0].
[[nodiscard]] inline float expected_rank_score(const float* p) {
  return p[0] * 1.0f + p[1] * 0.5f + p[2] * -0.5f;
}

/// One training example: raw token ids (VSS-first, no EOS) plus the rank
/// class in [0, kNumClasses).
struct LabeledSeq {
  std::vector<int> ids;
  int rank = 2;
};

/// Convert a range of {ids, rank}-shaped examples (rl::RankedExample)
/// into LabeledSeq form, skipping ranks outside the valid classes (the
/// Invalid rank belongs to the rule-based checker, not the surrogate).
template <class Range>
[[nodiscard]] std::vector<LabeledSeq> make_labeled(const Range& examples) {
  std::vector<LabeledSeq> out;
  for (const auto& e : examples) {
    const int r = static_cast<int>(e.rank);
    if (r < 0 || r >= kNumClasses) continue;
    out.push_back(LabeledSeq{e.ids, r});
  }
  return out;
}

struct SurrogateTrainConfig {
  int steps = 300;
  int minibatch = 8;
  float lr = 5e-3f;
  float clip = 1.0f;
  std::uint64_t seed = 31;

  // Fault tolerance (train/run.hpp); the sentinel stays off here.
  train::RunConfig run;
};

struct SurrogateTrainResult {
  std::vector<double> losses;     // per-step CE loss
  int start_step = 0;             // > 0 when resumed from a checkpoint
  double class_accuracy = 0.0;    // argmax accuracy over the training set
  double ranking_accuracy = 0.0;  // pairwise score-ordering accuracy
};

/// Training-side surrogate: autograd tensors, trainer, checkpoints. The
/// serving/PPO hot paths never touch this class — they use the
/// raw-buffer SurrogateScorer built from it (scorer.hpp).
class SurrogateModel {
 public:
  /// Fresh random init (embedding included).
  SurrogateModel(SurrogateConfig cfg, Rng& rng);

  /// Seed the embedding from the LM's token-embedding table (the ZeroSim
  /// observation: the pretrained embedding already separates circuit
  /// vocabulary), random-init the MLP head.
  [[nodiscard]] static SurrogateModel from_lm(const nn::TransformerLM& lm,
                                              int d_hidden, Rng& rng);

  [[nodiscard]] const SurrogateConfig& config() const { return cfg_; }

  /// All trainable parameters (stable order; serializable):
  /// {emb, w1, b1, w2, b2}.
  [[nodiscard]] std::vector<tensor::Tensor> parameters() const;

  /// Architecture fingerprint for checkpoint compatibility. Mixes only
  /// the shape-determining config (vocab, d_embed, d_hidden) so a
  /// checkpoint written by the trainer loads in a serving process that
  /// knows nothing about the training hyperparameters.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Class logits (B, kNumClasses) for a batch of sequences (autograd).
  [[nodiscard]] tensor::Tensor class_logits(
      const std::vector<const std::vector<int>*>& batch) const;

  /// Expected rank score of one sequence (inference convenience; the
  /// batched hot path lives in SurrogateScorer).
  [[nodiscard]] double score(const std::vector<int>& ids) const;

  /// Minibatch cross-entropy training with AdamW; checkpoints at
  /// cfg.run.checkpoint_every-step cadence plus the final step. Fills the
  /// result's accuracy metrics over `examples` and exports them as the
  /// surrogate.ranking_accuracy / surrogate.class_accuracy gauges.
  SurrogateTrainResult train(const std::vector<LabeledSeq>& examples,
                             const SurrogateTrainConfig& cfg);

  /// Argmax class accuracy over a labeled set.
  [[nodiscard]] double class_accuracy(
      const std::vector<LabeledSeq>& examples) const;

  /// Pairwise ranking accuracy: over pairs (a, b) where a's rank class
  /// is strictly better than b's, the fraction with score(a) > score(b).
  /// Per-class sample capped (deterministically) so the pair count stays
  /// bounded on large sets.
  [[nodiscard]] double ranking_accuracy(
      const std::vector<LabeledSeq>& examples) const;

  /// Restore the newest validating snapshot from `dir` into this model's
  /// parameters (no optimizer/RNG needed — inference-side load). Returns
  /// false when no usable snapshot exists; creates nothing.
  bool load_checkpoint(const std::string& dir);

 private:
  friend class SurrogateScorer;

  SurrogateConfig cfg_;
  tensor::Tensor emb_;  // (V, E)
  tensor::Tensor w1_;   // (E, H)
  tensor::Tensor b1_;   // (H)
  tensor::Tensor w2_;   // (H, kNumClasses)
  tensor::Tensor b2_;   // (kNumClasses)
};

}  // namespace eva::surrogate
