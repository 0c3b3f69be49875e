// SurrogateScorer: the batched inference side of the learned FoM
// surrogate (DESIGN.md §15).
//
// A scorer is an immutable raw-buffer snapshot of a SurrogateModel,
// built once and then shared read-only by the serving scheduler and PPO
// rollout collection. Scoring a batch of n sequences is:
//
//   pool    n rows of mean-pooled token embeddings (parallel_for across
//           sequences — O(len * E) per row, no GEMM)
//   layer1  (n,E) x (E,H) on the tensor kernels — f32
//           tensor::gemm_nn, or tensor::qgemm with the fused kBiasGelu
//           epilogue on the bf16/int8 tiers (same QuantMatrix machinery
//           as the transformer's repacked linears)
//   layer2  (n,H) x (H,3) + bias, softmax per row, expected rank score
//
// Per-row results are independent of the batch composition (pooling is
// per-row; gemm_nn/qgemm fix each row's reduction order by the shapes
// alone), so score_batch over any width is bitwise identical to n
// score_one calls — the invariant test_surrogate pins across all three
// quant tiers.
#pragma once

#include <cmath>
#include <limits>
#include <vector>

#include "surrogate/surrogate.hpp"
#include "tensor/quant.hpp"

namespace eva::surrogate {

class SurrogateScorer {
 public:
  /// Snapshot `model`'s weights into the given inference tier. kF32
  /// keeps exact float copies; kBf16/kInt8 quantize the two MLP weight
  /// matrices (the embedding stays f32 — pooling is a gather, not a
  /// GEMM). The model can keep training afterwards; this scorer does not
  /// track it.
  explicit SurrogateScorer(const SurrogateModel& model,
                           tensor::QuantKind quant = tensor::QuantKind::kF32);

  [[nodiscard]] const SurrogateConfig& config() const { return cfg_; }
  [[nodiscard]] tensor::QuantKind quant() const { return quant_; }

  /// Expected rank score per sequence, one batched pass. Empty input
  /// yields an empty vector.
  [[nodiscard]] std::vector<float> score_batch(
      const std::vector<const std::vector<int>*>& seqs) const;
  [[nodiscard]] std::vector<float> score_batch(
      const std::vector<std::vector<int>>& seqs) const;

  /// Single-sequence convenience; bitwise equal to the corresponding
  /// score_batch row.
  [[nodiscard]] float score_one(const std::vector<int>& ids) const;

  /// Score every prefix of `ids` (lengths 1..T) in one batched pass:
  /// row t pools tokens [0, t]. The dense PPO shaping signal — the
  /// running mean embedding makes this O(T*E) pooling plus one (T,H)
  /// GEMM, not T independent re-pools. Row T-1 is bitwise equal to
  /// score_one(ids).
  [[nodiscard]] std::vector<float> score_prefixes(
      const std::vector<int>& ids) const;

  /// Ranking accuracy of the model this scorer snapshotted (carried as
  /// metadata into the serve.surrogate stats; NaN = never measured).
  void set_ranking_accuracy(double a) { ranking_accuracy_ = a; }
  [[nodiscard]] double ranking_accuracy() const { return ranking_accuracy_; }

 private:
  /// Mean-pooled embedding of `ids` into `row` (E floats, pre-zeroed).
  void pool_into(const std::vector<int>& ids, float* row) const;
  /// MLP + softmax + expected-score over pooled rows X(n,E) -> out(n).
  void mlp_scores(const float* X, std::size_t n, float* out) const;

  SurrogateConfig cfg_;
  tensor::QuantKind quant_;
  std::vector<float> emb_;  // (V,E) row-major, always f32
  std::vector<float> w1_;   // (E,H) — f32 tier only
  std::vector<float> w2_;   // (H,3) — f32 tier only
  std::vector<float> b1_;   // (H)
  std::vector<float> b2_;   // (3)
  tensor::QuantMatrix qw1_;  // bf16/int8 tiers
  tensor::QuantMatrix qw2_;
  double ranking_accuracy_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace eva::surrogate
