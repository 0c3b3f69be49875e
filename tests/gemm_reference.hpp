// The f32 GEMMs that tensor/gemm.cpp's lane tile must equal bit for bit
// (DESIGN.md §6, "Threading & kernels"): the scalar register tile and the
// drivers the library ran before the tile went into vector lanes, kept as
// the test oracle. Same signatures and threading as tensor/gemm.hpp; no
// FLOP counter or spans.
#pragma once

#include <cstddef>

namespace eva::tensor::reference {

/// C(M,N) += A(M,K) @ B(K,N); M == 1 runs the one-row kernel.
void gemm_nn(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N);

/// C(M,N) += A(M,K) @ B(N,K)^T.
void gemm_nt(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N);

/// C(M,N) += A(K,M)^T @ B(K,N).
void gemm_tn(const float* A, const float* B, float* C, std::size_t K,
             std::size_t M, std::size_t N);

/// S(T,T) += A(T,K) @ B(T,K)^T, lower triangle.
void gemm_nt_causal(const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* S, std::size_t T, std::size_t K);

/// C(T,N) += P(T,T) @ B(T,N), P lower triangular.
void gemm_nn_causal(const float* P, const float* B, std::size_t ldb, float* C,
                    std::size_t ldc, std::size_t T, std::size_t N);

/// C(T,N) += P(T,T)^T @ B(T,N), P lower triangular.
void gemm_tn_causal(const float* P, const float* B, std::size_t ldb, float* C,
                    std::size_t ldc, std::size_t T, std::size_t N);

}  // namespace eva::tensor::reference
