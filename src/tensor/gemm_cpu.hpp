// Internal: the built-in CPU kernel family implemented in gemm.cpp,
// declared here so gemm_backend.cpp can register them as the "cpu"
// backend. Call sites use the dispatch entry points in tensor/gemm.hpp,
// never these directly.
#pragma once

#include <cstddef>

#include "tensor/quant.hpp"

namespace eva::tensor::cpu {

void gemm_nn(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N);
void gemm_nt(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N);
void gemm_tn(const float* A, const float* B, float* C, std::size_t K,
             std::size_t M, std::size_t N);
void qgemm(const float* X, const QuantMatrix& W, const float* bias, float* Y,
           std::size_t n, Epilogue ep);

}  // namespace eva::tensor::cpu
