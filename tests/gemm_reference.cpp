#include "gemm_reference.hpp"

#include <algorithm>
#include <vector>

#include "util/parallel.hpp"

namespace eva::tensor::reference {

namespace {

// Register tile: MR rows x NR columns of C, one float per accumulator.
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 32;
// K-panel bound.
constexpr std::size_t kKc = 256;

// C tile (mr x nr) += A'(mr x kc) @ Bp(kc x nr).
// A' element (r,k) lives at a[r*rsa + k*csa] — (rsa=lda, csa=1) walks A
// row-major, (rsa=1, csa=lda) walks a transposed view without copying.
// Bp is row-major with leading dimension ldb; C with ldc.
void micro_kernel(std::size_t kc, const float* a, std::size_t rsa,
                  std::size_t csa, const float* bp, std::size_t ldb, float* c,
                  std::size_t ldc, std::size_t mr, std::size_t nr) {
  if (mr == kMr && nr == kNr) {
    // Full tile: fixed trip counts so the inner loops vectorize and the
    // accumulators stay in registers across the whole k sweep.
    float acc[kMr][kNr] = {};
    for (std::size_t k = 0; k < kc; ++k) {
      const float* brow = bp + k * ldb;
      for (std::size_t r = 0; r < kMr; ++r) {
        const float av = a[r * rsa + k * csa];
        for (std::size_t n = 0; n < kNr; ++n) acc[r][n] += av * brow[n];
      }
    }
    for (std::size_t r = 0; r < kMr; ++r) {
      float* crow = c + r * ldc;
      for (std::size_t n = 0; n < kNr; ++n) crow[n] += acc[r][n];
    }
    return;
  }
  // Ragged edge tile.
  float acc[kMr][kNr] = {};
  for (std::size_t k = 0; k < kc; ++k) {
    const float* brow = bp + k * ldb;
    for (std::size_t r = 0; r < mr; ++r) {
      const float av = a[r * rsa + k * csa];
      for (std::size_t n = 0; n < nr; ++n) acc[r][n] += av * brow[n];
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t n = 0; n < nr; ++n) crow[n] += acc[r][n];
  }
}

// c(N) += a(K) @ B(K,N): gemm_nn's M == 1 case, in 64-column strips.
// Each kKc panel is summed into a fresh accumulator, then added onto C,
// as micro_kernel does.
void one_row_nn(const float* a, const float* B, float* c, std::size_t K,
                std::size_t N) {
  constexpr std::size_t kVNr = 64;
  for (std::size_t nb = 0; nb < N; nb += kVNr) {
    const std::size_t nr = std::min(kVNr, N - nb);
    for (std::size_t kb = 0; kb < K; kb += kKc) {
      const std::size_t kc = std::min(kKc, K - kb);
      float acc[kVNr] = {};
      if (nr == kVNr) {
        for (std::size_t k = kb; k < kb + kc; ++k) {
          const float av = a[k];
          const float* brow = B + k * N + nb;
          for (std::size_t n = 0; n < kVNr; ++n) acc[n] += av * brow[n];
        }
      } else {
        for (std::size_t k = kb; k < kb + kc; ++k) {
          const float av = a[k];
          const float* brow = B + k * N + nb;
          for (std::size_t n = 0; n < nr; ++n) acc[n] += av * brow[n];
        }
      }
      for (std::size_t n = 0; n < nr; ++n) c[nb + n] += acc[n];
    }
  }
}

}  // namespace

void gemm_nn(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N) {
  if (M == 1) {
    one_row_nn(A, B, C, K, N);
    return;
  }
  parallel_chunks(
      0, M,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t kb = 0; kb < K; kb += kKc) {
          const std::size_t kc = std::min(kKc, K - kb);
          for (std::size_t nb = 0; nb < N; nb += kNr) {
            const std::size_t nr = std::min(kNr, N - nb);
            for (std::size_t m = lo; m < hi; m += kMr) {
              const std::size_t mr = std::min(kMr, hi - m);
              micro_kernel(kc, A + m * K + kb, K, 1, B + kb * N + nb, N,
                           C + m * N + nb, N, mr, nr);
            }
          }
        }
      },
      kMr);
}

void gemm_nt(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N) {
  parallel_chunks(
      0, M,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<float> bt(kKc * kNr);
        for (std::size_t kb = 0; kb < K; kb += kKc) {
          const std::size_t kc = std::min(kKc, K - kb);
          for (std::size_t nb = 0; nb < N; nb += kNr) {
            const std::size_t nr = std::min(kNr, N - nb);
            for (std::size_t j = 0; j < nr; ++j) {
              const float* src = B + (nb + j) * K + kb;
              for (std::size_t k = 0; k < kc; ++k) bt[k * kNr + j] = src[k];
            }
            for (std::size_t m = lo; m < hi; m += kMr) {
              const std::size_t mr = std::min(kMr, hi - m);
              micro_kernel(kc, A + m * K + kb, K, 1, bt.data(), kNr,
                           C + m * N + nb, N, mr, nr);
            }
          }
        }
      },
      kMr);
}

void gemm_tn(const float* A, const float* B, float* C, std::size_t K,
             std::size_t M, std::size_t N) {
  parallel_chunks(
      0, N,
      [&](std::size_t n0, std::size_t n1) {
        for (std::size_t kb = 0; kb < K; kb += kKc) {
          const std::size_t kc = std::min(kKc, K - kb);
          for (std::size_t nb = n0; nb < n1; nb += kNr) {
            const std::size_t nr = std::min(kNr, n1 - nb);
            for (std::size_t m = 0; m < M; m += kMr) {
              const std::size_t mr = std::min(kMr, M - m);
              micro_kernel(kc, A + kb * M + m, 1, M, B + kb * N + nb, N,
                           C + m * N + nb, N, mr, nr);
            }
          }
        }
      },
      kNr);
}

void gemm_nt_causal(const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* S, std::size_t T, std::size_t K) {
  float bt[kKc * kNr];
  for (std::size_t nb = 0; nb < T; nb += kNr) {
    const std::size_t nr = std::min(kNr, T - nb);
    for (std::size_t kb = 0; kb < K; kb += kKc) {
      const std::size_t kc = std::min(kKc, K - kb);
      for (std::size_t j = 0; j < nr; ++j) {
        const float* src = B + (nb + j) * ldb + kb;
        for (std::size_t k = 0; k < kc; ++k) bt[k * kNr + j] = src[k];
      }
      for (std::size_t i0 = nb; i0 < T; i0 += kMr) {
        const std::size_t mr = std::min(kMr, T - i0);
        const std::size_t cols = std::min(nr, i0 + mr - nb);
        micro_kernel(kc, A + i0 * lda + kb, lda, 1, bt, kNr, S + i0 * T + nb,
                     T, mr, cols);
      }
    }
  }
}

void gemm_nn_causal(const float* P, const float* B, std::size_t ldb, float* C,
                    std::size_t ldc, std::size_t T, std::size_t N) {
  for (std::size_t i0 = 0; i0 < T; i0 += kMr) {
    const std::size_t mr = std::min(kMr, T - i0);
    const std::size_t i1 = i0 + mr;
    for (std::size_t kb = 0; kb < i1; kb += kKc) {
      const std::size_t kc = std::min(kKc, i1 - kb);
      for (std::size_t nb = 0; nb < N; nb += kNr) {
        const std::size_t nr = std::min(kNr, N - nb);
        micro_kernel(kc, P + i0 * T + kb, T, 1, B + kb * ldb + nb, ldb,
                     C + i0 * ldc + nb, ldc, mr, nr);
      }
    }
  }
}

void gemm_tn_causal(const float* P, const float* B, std::size_t ldb, float* C,
                    std::size_t ldc, std::size_t T, std::size_t N) {
  for (std::size_t i0 = 0; i0 < T; i0 += kMr) {
    const std::size_t mr = std::min(kMr, T - i0);
    for (std::size_t kb = i0; kb < T; kb = (kb / kKc + 1) * kKc) {
      const std::size_t kc = std::min((kb / kKc + 1) * kKc, T) - kb;
      for (std::size_t nb = 0; nb < N; nb += kNr) {
        const std::size_t nr = std::min(kNr, N - nb);
        micro_kernel(kc, P + kb * T + i0, 1, T, B + kb * ldb + nb, ldb,
                     C + i0 * ldc + nb, ldc, mr, nr);
      }
    }
  }
}

}  // namespace eva::tensor::reference
