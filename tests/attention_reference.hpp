// The causal attention that tensor::causal_attention must equal bit for
// bit (DESIGN.md §6, "Causal attention"): the nine-node autograd chain the
// transformer block ran before the fused op, kept as the test oracle.
//
// split_heads, merge_heads and causal_softmax left the library with that
// change, so they live here as test-local autograd nodes with the
// library's loops (run serially); the two batched matmuls, transpose_last
// and mul_scalar are the library's own.
#pragma once

#include "tensor/tensor.hpp"

namespace eva::tensor::reference {

/// (B,T,H*D) -> (B*H,T,D): head split.
[[nodiscard]] Tensor split_heads(const Tensor& a, int heads);
/// (B*H,T,D) -> (B,T,H*D): inverse of split_heads.
[[nodiscard]] Tensor merge_heads(const Tensor& a, int heads);
/// Softmax over the last dim of (R,T), R a multiple of T: row r attends
/// to columns [0, r mod T].
[[nodiscard]] Tensor causal_softmax(const Tensor& scores, int seq_len);

/// The chain: split q, k and v into heads, scores = q k^T / sqrt(C/heads),
/// causal softmax, probabilities times v, merge heads. (B,T,C) -> (B,T,C).
[[nodiscard]] Tensor causal_attention(const Tensor& q, const Tensor& k,
                                      const Tensor& v, int heads);

}  // namespace eva::tensor::reference
