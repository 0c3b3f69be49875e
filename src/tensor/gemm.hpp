// Blocked, vectorization-friendly GEMM kernel family.
//
// One register-tiled micro-kernel (MR x NR accumulator block, NR = one
// cache line of floats) backs all matmul variants of the tensor engine
// and the batched decode linears. Each platform has one implementation,
// chosen at compile time; every call bumps the tensor.gemm_flops
// counter by 2*M*K*N. All matrices are row-major float32 and the GEMM
// trio *accumulates* into C (C += ...), matching the autograd
// convention of += into grads.
//
// The quantized kernel (qgemm) is inference-only: int8 weight-quantized
// matrices (tensor/quant.hpp) with a fused bias+activation epilogue. It
// OVERWRITES its output. On AVX-512 VNNI hardware the multiplies run
// natively in int8 (u8-quantized activations + exact int32 vpdpbusd
// accumulation rescaled per column); elsewhere a portable panel-decode
// body runs the f32 micro-kernel on the same u8-quantized activations.
// See tensor/quant.hpp for the error model.
//
// Threading: gemm_nn / gemm_nt partition over rows of C, gemm_tn and
// qgemm over columns of C (each thread owns a disjoint column stripe,
// so the K-reduction needs no atomics or per-thread buffers). All
// dispatch via eva::parallel_chunks, so they run inline under
// set_num_threads(1) or when called from inside another parallel
// region.
#pragma once

#include <cstddef>

#include "tensor/quant.hpp"

namespace eva::tensor {

/// C(M,N) += A(M,K) @ B(K,N). Row r of C depends only on row r of A,
/// B and the shapes, never on M: every row sums each K-panel of 256
/// into a fresh accumulator and adds it onto C in panel order, so the
/// M == 1 case (its own kernel) matches the same row of a larger call
/// bitwise.
void gemm_nn(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N);

/// C(M,N) += A(M,K) @ B(N,K)^T.
void gemm_nt(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N);

/// C(M,N) += A(K,M)^T @ B(K,N). This is the weight-gradient shape
/// (dW += X^T @ dY); parallel over column stripes of C.
void gemm_tn(const float* A, const float* B, float* C, std::size_t K,
             std::size_t M, std::size_t N);

// --- Lower-triangle products of causal attention -------------------------
// One head per call, serial (tensor::causal_attention runs heads under
// parallel_for). S and P are T x T, row-major with leading dimension T;
// P is zero above the diagonal. The other operands are row-major with
// leading dimension ld, so a head's columns of a (B,T,C) tensor are read
// and written in place at ld = C. Rows go in the micro-kernel's 8-row
// tiles, and a tile of rows [i0, i1) runs only the terms that can reach
// a causal output: columns or reduction indices below i1, or from i0 on
// for the transposed product. Every term skipped is a multiple of a zero
// of P (or of the masked scores) that the full-square GEMM adds onto its
// accumulator, and every element keeps the full GEMM's reduction order
// and 256-index panels, so on finite input each result is bitwise what
// gemm_nn / gemm_nt / gemm_tn give over the whole square.
// tensor.gemm_flops counts the tiles run.

/// S(T,T) += A(T,K) @ B(T,K)^T, row tile [i0, i1) over columns [0, i1).
void gemm_nt_causal(const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* S, std::size_t T, std::size_t K);

/// C(T,N) += P(T,T) @ B(T,N), row tile [i0, i1) reducing over [0, i1).
void gemm_nn_causal(const float* P, const float* B, std::size_t ldb, float* C,
                    std::size_t ldc, std::size_t T, std::size_t N);

/// C(T,N) += P(T,T)^T @ B(T,N), row tile [i0, i1) reducing over [i0, T).
void gemm_tn_causal(const float* P, const float* B, std::size_t ldb, float* C,
                    std::size_t ldc, std::size_t T, std::size_t N);

/// Y(n,out) ~= epilogue(X(n,in) @ dequant(W) [+ bias]) for a quantized
/// weight matrix W(in,out), within the tier's documented error bound.
/// Overwrites Y; bias must be non-null for the kBias/kBiasGelu
/// epilogues. Per-row values are independent of n (a row's activation
/// quantization, reduction order and epilogue are fixed by the shapes
/// alone), preserving the batched decoder's width-invariance under
/// quantization.
void qgemm(const float* X, const QuantMatrix& W, const float* bias, float* Y,
           std::size_t n, Epilogue ep);

}  // namespace eva::tensor
