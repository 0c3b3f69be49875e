// EVA's decoder-only transformer (paper §III-B).
//
// GPT-style pre-norm architecture: token + learned positional embeddings,
// N blocks of (layernorm -> causal multi-head self-attention -> residual,
// layernorm -> GELU MLP -> residual), final layernorm, linear vocabulary
// head. Two execution paths:
//
//  * training path — builds the autograd graph (tensor engine), used by
//    pretraining, the reward model, PPO and DPO;
//  * batched inference path — B in-flight sequences share one forward
//    per decode step: every linear becomes a single (B,in)x(in,out)
//    gemm call, so the weight matrices stream from memory once per
//    step instead of once per sequence. Attention stays per-slot (each
//    slot has its own cache length). This is the engine behind
//    nn::BatchedDecoder (DESIGN.md "Batched KV-cache decoding"); B = 1
//    is single-sequence decode.
//
// The inference path can additionally run on weight-quantized kernels:
// set_inference_quant(kInt8) repacks every block linear and the LM
// head into tensor::QuantMatrix form and the per-step linears route
// through tensor::qgemm with fused dequant+bias+GELU epilogues.
// Training always reads the f32 tensors — repacked copies are
// derived state, invalidated and rebuilt by load_from() and by calling
// set_inference_quant again after mutating parameters.
#pragma once

#include <vector>

#include "nn/config.hpp"
#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"
#include "util/aligned.hpp"

namespace eva::nn {

class TransformerLM {
 public:
  TransformerLM(ModelConfig cfg, Rng& rng);

  [[nodiscard]] const ModelConfig& config() const { return cfg_; }

  /// All trainable parameters (stable order; serializable).
  [[nodiscard]] std::vector<tensor::Tensor> parameters() const;
  [[nodiscard]] std::size_t num_params() const;

  /// Training path. `tokens` is row-major (B,T); returns logits (B*T, V).
  /// Position indices run 0..T-1 per row.
  [[nodiscard]] tensor::Tensor forward(const std::vector<int>& tokens, int B,
                                       int T, bool training = true,
                                       Rng* dropout_rng = nullptr) const;

  /// Training path returning the final hidden states (B,T,C) — the input
  /// to auxiliary heads (PPO value head, reward-model classifier head).
  [[nodiscard]] tensor::Tensor forward_hidden(const std::vector<int>& tokens,
                                              int B, int T,
                                              bool training = true,
                                              Rng* dropout_rng = nullptr) const;

  /// Project hidden states (B,T,C) to logits (B*T,V) with the LM head.
  [[nodiscard]] tensor::Tensor lm_logits(const tensor::Tensor& hidden) const;

  // --- Quantized inference -----------------------------------------------
  /// One-time repack of the inference weights (every block linear + the
  /// LM head) into the given quantized tier; subsequent
  /// infer_step_batched calls run on tensor::qgemm with fused
  /// epilogues. kF32 drops the packed copies and restores the exact
  /// float path. Repacked weights are a snapshot: after mutating
  /// parameters (training step, load_from is handled automatically),
  /// call this again to refresh them. Not thread-safe against concurrent
  /// inference — repack before handing the model to decoders.
  void set_inference_quant(tensor::QuantKind kind);
  [[nodiscard]] tensor::QuantKind inference_quant() const { return qkind_; }

  // --- Batched KV-cache inference ----------------------------------------
  /// Fixed pool of `capacity` cache slots. Per layer, keys/values live in
  /// one contiguous (capacity, max_seq, d_model) slab; slot s's cached
  /// position t starts at (s * max_seq + t) * d_model, head-major within
  /// the position. Slots are recycled by resetting their length
  /// (continuous batching). Slabs and the step workspace are 64-byte
  /// aligned (util/aligned.hpp) for the vectorized kernels;
  /// infer_step_batched asserts this.
  struct BatchedCache {
    int capacity = 0;
    int slot_stride = 0;                 // max_seq * d_model
    std::vector<AlignedVec<float>> k, v;  // per layer: capacity*slot_stride
    std::vector<int> len;                // cached positions per slot

    /// Recycle a slot for a fresh sequence (keeps the allocation).
    void reset_slot(int s) { len[static_cast<std::size_t>(s)] = 0; }

    // Step workspace, sized for `capacity` rows up front and reused
    // across infer_step_batched calls (the decode loop never allocates
    // after the cache is built).
    struct Workspace {
      AlignedVec<float> x, h, q, kv, ctx, att, ff;
    };
    Workspace ws;
  };

  [[nodiscard]] BatchedCache make_batched_cache(int capacity) const;

  /// One decode step for n = slots.size() in-flight sequences: row i
  /// feeds `tokens[i]` to cache slot `slots[i]` (at that slot's next
  /// position) and receives next-token logits in `logits[i*vocab ..)`.
  /// Slots must be distinct; n <= capacity.
  ///
  /// Numerics: each row's result is independent of which other slots are
  /// stepped alongside it (per-row reduction order in gemm_nn / qgemm is
  /// fixed by the shapes alone, at any K), which is what makes
  /// BatchedDecoder's output invariant to batch width — in both the f32
  /// and quantized tiers. The f32 logits match the training forward()
  /// within float tolerance. Deterministic, no-grad.
  void infer_step_batched(BatchedCache& cache, const std::vector<int>& slots,
                          const std::vector<int>& tokens,
                          std::vector<float>& logits) const;

  /// Copy all parameter values from another model of identical config
  /// (snapshotting the reference model for PPO/DPO). Re-runs the
  /// inference repack when one is active, so quantized decoding tracks
  /// the new weights.
  void load_from(const TransformerLM& other);

 private:
  struct Block {
    tensor::Tensor ln1_g, ln1_b;
    tensor::Tensor wq, bq, wk, bk, wv, bv, wo, bo;
    tensor::Tensor ln2_g, ln2_b;
    tensor::Tensor w1, b1, w2, b2;
  };

  /// Quantized snapshots of one block's six linear weight matrices
  /// (biases and layernorm params stay f32 — they are O(d) per token).
  struct QuantBlock {
    tensor::QuantMatrix wq, wk, wv, wo, w1, w2;
  };

  [[nodiscard]] tensor::Tensor block_forward(const tensor::Tensor& x,
                                             const Block& blk, bool training,
                                             Rng* dropout_rng) const;

  ModelConfig cfg_;
  tensor::Tensor tok_emb_;   // (V, C)
  tensor::Tensor pos_emb_;   // (max_seq, C)
  std::vector<Block> blocks_;
  tensor::Tensor lnf_g_, lnf_b_;
  tensor::Tensor lm_head_;   // (C, V)

  tensor::QuantKind qkind_ = tensor::QuantKind::kF32;
  std::vector<QuantBlock> qblocks_;  // empty unless qkind_ != kF32
  tensor::QuantMatrix qlm_head_;
};

}  // namespace eva::nn
