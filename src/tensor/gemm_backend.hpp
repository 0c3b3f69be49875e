// Runtime GEMM backend dispatch (DESIGN.md "Kernel backends & quantized
// inference").
//
// Every public kernel entry point in tensor/gemm.hpp routes through one
// active GemmBackendOps table, so an accelerator backend (GPU, AMX, a
// vendor BLAS) is a registration plus an env var away — no call-site
// changes anywhere in the engine. The shape mirrors the CPU/CUDA compile
// seam in SNIPPETS.md snippet 1, but resolved at runtime:
//
//   * register_gemm_backend() adds a named kernel table (the built-in
//     "cpu" table is registered on first use);
//   * the active backend resolves once from EVA_GEMM_BACKEND (unknown
//     names fall back to "cpu" with a warning) and can be switched
//     per-call-site with set_gemm_backend();
//   * each dispatched kernel call bumps the per-backend counter
//     tensor.gemm_backend_dispatch.<name>, so operators can see which
//     kernel tier actually served a workload.
//
// The table carries both the f32 family (gemm_nn/nt/tn) and the
// quantized inference kernel (qgemm with fused dequant+bias+activation
// epilogues). The quantized entry may be null: dispatch then falls back
// to dequantize-into-scratch + the backend's own gemm_nn, so a minimal
// backend still serves quantized models (slowly) rather than aborting.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/quant.hpp"

namespace eva::tensor {

/// Kernel table for one backend. All f32 entries are required; the
/// GEMM trio accumulates into C, qgemm overwrites its output (inference
/// semantics).
struct GemmBackendOps {
  std::string name;

  /// C(M,N) += A(M,K) @ B(K,N).
  void (*nn)(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N) = nullptr;
  /// C(M,N) += A(M,K) @ B(N,K)^T.
  void (*nt)(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N) = nullptr;
  /// C(M,N) += A(K,M)^T @ B(K,N).
  void (*tn)(const float* A, const float* B, float* C, std::size_t K,
             std::size_t M, std::size_t N) = nullptr;

  /// Y(n,out) = epilogue(X(n,in) @ dequant(W) [+ bias]). Overwrites Y.
  void (*qgemm)(const float* X, const QuantMatrix& W, const float* bias,
                float* Y, std::size_t n, Epilogue ep) = nullptr;
};

/// Register a backend under ops.name. Returns false (and ignores the
/// table) when the name is already taken or any required f32 entry is
/// null. Registered tables live for the process lifetime.
bool register_gemm_backend(GemmBackendOps ops);

/// Switch the active backend. Returns false (leaving the current backend
/// active) when no backend of that name is registered.
bool set_gemm_backend(std::string_view name);

/// Name of the backend dispatch currently routes to.
[[nodiscard]] std::string_view gemm_backend_name();

/// All registered backend names, registration order ("cpu" first).
[[nodiscard]] std::vector<std::string> gemm_backend_names();

}  // namespace eva::tensor
