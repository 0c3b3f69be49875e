// The kernels behind tensor/gemm.hpp: register-tiled f32 GEMMs plus the
// weight-quantized inference family.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"

// The quantized kernels' AVX-512 intrinsics, at file scope. GCC 12's own
// headers report their `__Y` temporaries as maybe uninitialized wherever an
// intrinsic inlines (nine reports in this file); those reports carry the
// header's location, so the warning is off for this include alone.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace eva::tensor {

namespace {

/// FLOP accounting for every kernel entry (2*M*K*N per GEMM, or twice
/// the multiply-adds of the tiles a causal product runs). One relaxed
/// striped add per call; bench_micro and the trainer read the counter to
/// report GFLOP/s without re-deriving shapes.
void count_flops(std::size_t m, std::size_t k, std::size_t n) {
  static obs::Counter& flops = obs::counter("tensor.gemm_flops");
  flops.add(static_cast<std::int64_t>(2 * m * k * n));
}
void count_macs(std::size_t macs) { count_flops(macs, 1, 1); }

// Register tile: MR rows x NR columns of C. NR = 32 floats = two 64-byte
// cache lines per row (see DESIGN.md "Threading & kernels" for the
// measured sweep).
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 32;
// K-panel bound: keeps the packed B panels (kKc * kNr floats) and the B
// panel touched by one tile pass L1/L2-resident.
constexpr std::size_t kKc = 256;

// Floats in one vector register of the ISA the build targets, as
// kTanhLanes: a tile row is kNr / kLanes of them. With AVX-512F the 8 x 2
// accumulators fill 16 of the 32 zmm registers.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 16;
#elif defined(__AVX__)
constexpr std::size_t kLanes = 8;
#else
constexpr std::size_t kLanes = 4;
#endif
constexpr std::size_t kNv = kNr / kLanes;

/// kLanes floats; arithmetic acts lane by lane and a scalar operand is
/// broadcast.
using Floats = float __attribute__((vector_size(kLanes * sizeof(float))));
/// The same lanes at any float address, as GCC's own __m512_u: every load
/// and store goes through it.
typedef float UnalignedFloats
    __attribute__((vector_size(kLanes * sizeof(float)), aligned(4), may_alias));

[[nodiscard]] inline Floats load(const float* p) {
  return *reinterpret_cast<const UnalignedFloats*>(p);
}
inline void store(float* p, Floats v) {
  *reinterpret_cast<UnalignedFloats*>(p) = v;
}

// C tile (mr x nr) += A'(mr x kc) @ Bp(kc x nr), in kLanes-float vectors.
// A' element (r,k) lives at a[r*rsa + k*csa] — (rsa=lda, csa=1) walks A
// row-major, (rsa=1, csa=lda) walks a transposed view without copying.
// Bp is row-major with leading dimension ldb; C with ldc.
//
// Every k-step reads kNr floats of Bp's row, so a ragged strip (nr < kNr)
// must come as a panel zero-padded to kNr columns (strip_panel). Rows of A'
// past mr repeat row mr - 1, so A is never read past its last row. Neither
// the pad columns nor the repeated rows reach C. Each stored element is
// the scalar tile's: one multiply-add per k in k order (the contraction
// the file's flags give `acc += a * b`) into an accumulator that starts at
// zero and is added onto C once.
void micro_kernel(std::size_t kc, const float* a, std::size_t rsa,
                  std::size_t csa, const float* bp, std::size_t ldb, float* c,
                  std::size_t ldc, std::size_t mr, std::size_t nr) {
  const float* arow[kMr];
  for (std::size_t r = 0; r < kMr; ++r) {
    arow[r] = a + std::min(r, mr - 1) * rsa;
  }
  // Every caller's K-panel is non-empty (kc >= 1); saying so keeps the
  // accumulators in registers from the first k-step to the store.
  Floats acc[kMr][kNv] = {};
  std::size_t k = 0;
  do {
    Floats b[kNv];
    for (std::size_t v = 0; v < kNv; ++v) {
      b[v] = load(bp + k * ldb + v * kLanes);
    }
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = arow[r][k * csa];
      for (std::size_t v = 0; v < kNv; ++v) acc[r][v] += av * b[v];
    }
  } while (++k < kc);
  if (mr == kMr && nr == kNr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      for (std::size_t v = 0; v < kNv; ++v) {
        float* cv = c + r * ldc + v * kLanes;
        store(cv, load(cv) + acc[r][v]);
      }
    }
    return;
  }
  float tile[kMr][kNr];
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t v = 0; v < kNv; ++v) {
      store(&tile[r][v * kLanes], acc[r][v]);
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t n = 0; n < nr; ++n) c[r * ldc + n] += tile[r][n];
  }
}

// Zeroes columns [nr, kNr) of kc panel rows (leading dimension kNr): the
// pad micro_kernel reads past a ragged strip.
void zero_pad(float* panel, std::size_t kc, std::size_t nr) {
  for (std::size_t k = 0; k < kc; ++k) {
    std::fill(panel + k * kNr + nr, panel + (k + 1) * kNr, 0.0f);
  }
}

/// A kc x kNr B panel as micro_kernel reads it: rows `ld` floats apart.
struct Panel {
  const float* p;
  std::size_t ld;
};

// The panel for kc rows of an nr-column strip of B (row-major, leading
// dimension ldb): B itself for a full strip, else the strip copied into
// `scratch` (kKc * kNr floats) and zero-padded.
Panel strip_panel(const float* B, std::size_t ldb, std::size_t kc,
                  std::size_t nr, float* scratch) {
  if (nr == kNr) return {B, ldb};
  for (std::size_t k = 0; k < kc; ++k) {
    std::copy_n(B + k * ldb, nr, scratch + k * kNr);
  }
  zero_pad(scratch, kc, nr);
  return {scratch, kNr};
}

// c(N) += a(K) @ B(K,N): gemm_nn's M == 1 case, the shape of every
// width-1 decode linear. A single row has no row reuse to feed an 8-row
// tile, so the strip is wider than kNr: 64 floats per strip covers the
// d_model-sized linears in a few passes and each cache line of B is
// still fetched once per K-panel. The reduction order is micro_kernel's
// (each kKc panel summed into a fresh accumulator, then added onto C),
// so a row comes out bitwise the same whether it is stepped alone or in
// a cohort, at any K. A full strip runs in kLanes-float vectors, a ragged
// last strip one float at a time.
void one_row_nn(const float* a, const float* B, float* c, std::size_t K,
                std::size_t N) {
  constexpr std::size_t kVNr = 64;
  constexpr std::size_t kVNv = kVNr / kLanes;
  for (std::size_t nb = 0; nb < N; nb += kVNr) {
    const std::size_t nr = std::min(kVNr, N - nb);
    for (std::size_t kb = 0; kb < K; kb += kKc) {
      const std::size_t kc = std::min(kKc, K - kb);
      if (nr == kVNr) {
        Floats acc[kVNv] = {};
        for (std::size_t k = kb; k < kb + kc; ++k) {
          const float av = a[k];
          const float* brow = B + k * N + nb;
          for (std::size_t v = 0; v < kVNv; ++v) {
            acc[v] += av * load(brow + v * kLanes);
          }
        }
        for (std::size_t v = 0; v < kVNv; ++v) {
          float* cv = c + nb + v * kLanes;
          store(cv, load(cv) + acc[v]);
        }
        continue;
      }
      float acc[kVNr] = {};
      for (std::size_t k = kb; k < kb + kc; ++k) {
        const float av = a[k];
        const float* brow = B + k * N + nb;
        for (std::size_t n = 0; n < nr; ++n) acc[n] += av * brow[n];
      }
      for (std::size_t n = 0; n < nr; ++n) c[nb + n] += acc[n];
    }
  }
}

}  // namespace

void gemm_nn(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N) {
  obs::Span span("gemm_nn");
  count_flops(M, K, N);
  if (M == 1) {
    one_row_nn(A, B, C, K, N);
    return;
  }
  parallel_chunks(
      0, M,
      [&](std::size_t lo, std::size_t hi) {
        float panel[kKc * kNr];
        for (std::size_t kb = 0; kb < K; kb += kKc) {
          const std::size_t kc = std::min(kKc, K - kb);
          for (std::size_t nb = 0; nb < N; nb += kNr) {
            const std::size_t nr = std::min(kNr, N - nb);
            const Panel bp = strip_panel(B + kb * N + nb, N, kc, nr, panel);
            for (std::size_t m = lo; m < hi; m += kMr) {
              const std::size_t mr = std::min(kMr, hi - m);
              micro_kernel(kc, A + m * K + kb, K, 1, bp.p, bp.ld,
                           C + m * N + nb, N, mr, nr);
            }
          }
        }
      },
      kMr);
}

void gemm_nt(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N) {
  obs::Span span("gemm_nt");
  count_flops(M, K, N);
  parallel_chunks(
      0, M,
      [&](std::size_t lo, std::size_t hi) {
        // Pack B^T panels so the micro-kernel sees contiguous rows; the
        // pack cost amortizes over all row tiles of this stripe.
        std::vector<float> bt(kKc * kNr);
        for (std::size_t kb = 0; kb < K; kb += kKc) {
          const std::size_t kc = std::min(kKc, K - kb);
          for (std::size_t nb = 0; nb < N; nb += kNr) {
            const std::size_t nr = std::min(kNr, N - nb);
            for (std::size_t j = 0; j < nr; ++j) {
              const float* src = B + (nb + j) * K + kb;
              for (std::size_t k = 0; k < kc; ++k) bt[k * kNr + j] = src[k];
            }
            zero_pad(bt.data(), kc, nr);
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
  obs::Span span("gemm_tn");
  count_flops(K, M, N);
  // Column-stripe partition: each thread owns C[:, n0:n1) and reduces
  // over all of K for it, so concurrent accumulation never races.
  parallel_chunks(
      0, N,
      [&](std::size_t n0, std::size_t n1) {
        float panel[kKc * kNr];
        for (std::size_t kb = 0; kb < K; kb += kKc) {
          const std::size_t kc = std::min(kKc, K - kb);
          for (std::size_t nb = n0; nb < n1; nb += kNr) {
            const std::size_t nr = std::min(kNr, n1 - nb);
            const Panel bp = strip_panel(B + kb * N + nb, N, kc, nr, panel);
            for (std::size_t m = 0; m < M; m += kMr) {
              const std::size_t mr = std::min(kMr, M - m);
              micro_kernel(kc, A + kb * M + m, 1, M, bp.p, bp.ld,
                           C + m * N + nb, N, mr, nr);
            }
          }
        }
      },
      kNr);
}

void gemm_nt_causal(const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* S, std::size_t T, std::size_t K) {
  std::size_t macs = 0;
  float bt[kKc * kNr];
  for (std::size_t nb = 0; nb < T; nb += kNr) {
    const std::size_t nr = std::min(kNr, T - nb);
    for (std::size_t kb = 0; kb < K; kb += kKc) {
      const std::size_t kc = std::min(kKc, K - kb);
      for (std::size_t j = 0; j < nr; ++j) {
        const float* src = B + (nb + j) * ldb + kb;
        for (std::size_t k = 0; k < kc; ++k) bt[k * kNr + j] = src[k];
      }
      zero_pad(bt, kc, nr);
      // nb is a multiple of kMr: the first row tile reaching column nb
      // starts there.
      for (std::size_t i0 = nb; i0 < T; i0 += kMr) {
        const std::size_t mr = std::min(kMr, T - i0);
        const std::size_t cols = std::min(nr, i0 + mr - nb);
        micro_kernel(kc, A + i0 * lda + kb, lda, 1, bt, kNr, S + i0 * T + nb,
                     T, mr, cols);
        macs += mr * cols * kc;
      }
    }
  }
  count_macs(macs);
}

void gemm_nn_causal(const float* P, const float* B, std::size_t ldb, float* C,
                    std::size_t ldc, std::size_t T, std::size_t N) {
  std::size_t macs = 0;
  float panel[kKc * kNr];
  for (std::size_t i0 = 0; i0 < T; i0 += kMr) {
    const std::size_t mr = std::min(kMr, T - i0);
    const std::size_t i1 = i0 + mr;
    for (std::size_t kb = 0; kb < i1; kb += kKc) {
      const std::size_t kc = std::min(kKc, i1 - kb);
      for (std::size_t nb = 0; nb < N; nb += kNr) {
        const std::size_t nr = std::min(kNr, N - nb);
        const Panel bp = strip_panel(B + kb * ldb + nb, ldb, kc, nr, panel);
        micro_kernel(kc, P + i0 * T + kb, T, 1, bp.p, bp.ld,
                     C + i0 * ldc + nb, ldc, mr, nr);
      }
    }
    macs += mr * i1 * N;
  }
  count_macs(macs);
}

void gemm_tn_causal(const float* P, const float* B, std::size_t ldb, float* C,
                    std::size_t ldc, std::size_t T, std::size_t N) {
  std::size_t macs = 0;
  float panel[kKc * kNr];
  for (std::size_t i0 = 0; i0 < T; i0 += kMr) {
    const std::size_t mr = std::min(kMr, T - i0);
    // The reduction starts at i0 but its panels stay on multiples of kKc.
    for (std::size_t kb = i0; kb < T; kb = (kb / kKc + 1) * kKc) {
      const std::size_t kc = std::min((kb / kKc + 1) * kKc, T) - kb;
      for (std::size_t nb = 0; nb < N; nb += kNr) {
        const std::size_t nr = std::min(kNr, N - nb);
        const Panel bp = strip_panel(B + kb * ldb + nb, ldb, kc, nr, panel);
        micro_kernel(kc, P + kb * T + i0, 1, T, bp.p, bp.ld,
                     C + i0 * ldc + nb, ldc, mr, nr);
      }
    }
    macs += mr * (T - i0) * N;
  }
  count_macs(macs);
}

// ---------------------------------------------------------------------------
// Quantized inference family (weight-only int8)
// ---------------------------------------------------------------------------
//
// On AVX-512 VNNI hardware the kernel multiplies natively in int8: it
// quantizes each activation row to u8 (zero point 128) and accumulates
// exact int32 dot products with vpdpbusd (4 MACs/lane/instruction),
// reading the K-grouped packed payload built at quantize() time.
// Elsewhere a portable body decodes weight panels and reuses the f32
// micro-kernel on each activation row's u8 round trip (same
// quantization rule), so int8 is W8A8 on every build.
//
// Determinism contract shared by every path: the work a given output
// element (row r, column j) sees — activation quantization of row r,
// reduction order over K, epilogue arithmetic — depends only on the
// shapes, never on the batch size n or which tile the row landed in.
// Rows are processed by one 8-row tile kernel plus a 1-row remainder
// kernel whose per-row instruction sequence is identical, which is what
// keeps sampled tokens width-invariant.

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)
#define EVA_QKERNELS_AVX512 1
#endif

namespace {

/// Output strip width of the quantized kernels (= packed column pad).
constexpr std::size_t kQNr = kQuantColPad;

#ifndef EVA_QKERNELS_AVX512

/// Quantize one activation row to u8 with zero point 128, padding to K4
/// (the vpdpbusd group-of-4 bound; padded lanes multiply zero weights).
/// Returns the row scale; all-zero / non-finite rows get scale 0, which
/// annihilates the output in the epilogue.
inline float quantize_row_u8(const float* x, std::size_t K, std::size_t K4,
                             std::uint8_t* xu) {
  float amax = 0.0f;
  for (std::size_t k = 0; k < K; ++k) amax = std::max(amax, std::fabs(x[k]));
  if (!(amax > 0.0f) || !std::isfinite(amax)) {
    std::fill_n(xu, K4, std::uint8_t{128});
    return 0.0f;
  }
  const float inv = 127.0f / amax;
  for (std::size_t k = 0; k < K; ++k) {
    // NaN elements slip past the amax reduction (std::max discards NaN),
    // so guard the cast: non-finite q maps to -127, the value cvtps2dq +
    // clamp produces in the AVX-512 kernels, keeping builds in agreement.
    const float q = std::clamp(std::nearbyint(x[k] * inv), -127.0f, 127.0f);
    const int qi = std::isfinite(q) ? static_cast<int>(q) : -127;
    xu[k] = static_cast<std::uint8_t>(qi + 128);
  }
  std::fill(xu + K, xu + K4, std::uint8_t{128});
  return amax / 127.0f;
}

/// f32-accumulator epilogue of the portable body: the raw x.q dot still
/// needs the per-column rescale.
__attribute__((noinline)) void store_strip_f32(const float* acc, const float* wscale,
                            const float* bias, Epilogue ep, float* y,
                            std::size_t nr) {
  const bool add_bias = ep != Epilogue::kNone && bias != nullptr;
  for (std::size_t j = 0; j < nr; ++j) {
    float v = wscale[j] * acc[j];
    if (add_bias) v += bias[j];
    y[j] = v;
  }
  if (ep == Epilogue::kBiasGelu) gelu_approx_n(y, nr);
}

/// Portable body: decode one kc x nr weight panel to raw f32 codes
/// (leading dimension kNr, zero-padded past nr) so the register-tiled
/// micro-kernel can run unmodified on top; the int8 per-column rescale
/// happens once in the epilogue.
void decode_panel(const QuantMatrix& W, std::size_t kb, std::size_t kc,
                  std::size_t nb, std::size_t nr, float* panel) {
  const std::size_t N = W.cols;
  for (std::size_t k = 0; k < kc; ++k) {
    const std::int8_t* src = W.q8.data() + (kb + k) * N + nb;
    float* dst = panel + k * kNr;
    for (std::size_t j = 0; j < nr; ++j) dst[j] = static_cast<float>(src[j]);
  }
  zero_pad(panel, kc, nr);
}

#else  // EVA_QKERNELS_AVX512

inline std::uint32_t load_u32(const void* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Vectorized u8 activation quantization (see the scalar variant above
/// for the contract). vcvtps2dq under default MXCSR is round-to-
/// nearest-even, the same rounding as the scalar nearbyint, so the
/// 16-lane body and the scalar tail agree element for element; the
/// split point depends only on K, never on the batch, preserving
/// width-invariance.
inline float quantize_row_u8(const float* x, std::size_t K, std::size_t K4,
                             std::uint8_t* xu) {
  __m512 vmax = _mm512_setzero_ps();
  std::size_t k = 0;
  for (; k + 16 <= K; k += 16) {
    vmax = _mm512_max_ps(vmax, _mm512_abs_ps(_mm512_loadu_ps(x + k)));
  }
  float amax = _mm512_reduce_max_ps(vmax);
  for (; k < K; ++k) amax = std::max(amax, std::fabs(x[k]));
  if (!(amax > 0.0f) || !std::isfinite(amax)) {
    std::fill_n(xu, K4, std::uint8_t{128});
    return 0.0f;
  }
  const float inv = 127.0f / amax;
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512i lo = _mm512_set1_epi32(-127);
  const __m512i hi = _mm512_set1_epi32(127);
  const __m512i off = _mm512_set1_epi32(128);
  k = 0;
  for (; k + 16 <= K; k += 16) {
    __m512i q = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(x + k), vinv));
    q = _mm512_add_epi32(_mm512_min_epi32(_mm512_max_epi32(q, lo), hi), off);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(xu + k),
                     _mm512_cvtepi32_epi8(q));
  }
  for (; k < K; ++k) {
    // A NaN element in the tail slips past the amax reduction (std::max
    // discards NaN), and casting NaN to int is UB. Map non-finite q to
    // -127 — exactly what the 16-lane body computes (cvtps2dq yields
    // INT_MIN, then the epi32 clamp) — so tail and body lanes agree.
    const float q = std::clamp(std::nearbyint(x[k] * inv), -127.0f, 127.0f);
    const int qi = std::isfinite(q) ? static_cast<int>(q) : -127;
    xu[k] = static_cast<std::uint8_t>(qi + 128);
  }
  std::fill(xu + K, xu + K4, std::uint8_t{128});
  return amax / 127.0f;
}

/// int8 epilogue, vectorized: identical arithmetic and association as
/// the scalar tail (`ascale * (wscale * float(acc - 128*colsum))`,
/// then bias) — every op is elementwise, so lanes match scalar IEEE
/// exactly. GELU runs as a second pass over the stored strip, in lanes
/// (gelu_approx_n, the same function the portable body and the f32 path
/// call).
__attribute__((noinline)) void store_strip_i8(const std::int32_t* acc, float ascale,
                           const float* wscale, const std::int32_t* colsum,
                           const float* bias, Epilogue ep, float* y,
                           std::size_t nr) {
  const bool add_bias = ep != Epilogue::kNone && bias != nullptr;
  const __m512 va = _mm512_set1_ps(ascale);
  std::size_t j = 0;
  for (; j + 16 <= nr; j += 16) {
    const __m512i cs = _mm512_loadu_si512(colsum + j);
    const __m512i ai =
        _mm512_sub_epi32(_mm512_load_si512(acc + j), _mm512_slli_epi32(cs, 7));
    __m512 v = _mm512_mul_ps(
        va, _mm512_mul_ps(_mm512_loadu_ps(wscale + j), _mm512_cvtepi32_ps(ai)));
    if (add_bias) v = _mm512_add_ps(v, _mm512_loadu_ps(bias + j));
    _mm512_storeu_ps(y + j, v);
  }
  for (; j < nr; ++j) {
    float v = ascale *
              (wscale[j] * static_cast<float>(acc[j] - 128 * colsum[j]));
    if (add_bias) v += bias[j];
    y[j] = v;
  }
  if (ep == Epilogue::kBiasGelu) gelu_approx_n(y, nr);
}

/// MR rows x 32 cols of int32 accumulators over all K groups. `wp` is
/// the packed q8p base offset to the strip ([kg][Np][4] layout, 64-byte
/// aligned loads yield 16 cols x 4 K-steps); `wstride` = Np*4 bytes.
template <int MR>
inline void qtile_i8(const std::uint8_t* xu, std::size_t xstride,
                     std::size_t kg, const std::int8_t* wp,
                     std::size_t wstride, std::int32_t* acc) {
  __m512i a[MR][2];
  for (int r = 0; r < MR; ++r) {
    a[r][0] = _mm512_setzero_si512();
    a[r][1] = _mm512_setzero_si512();
  }
  for (std::size_t q = 0; q < kg; ++q) {
    const __m512i w0 = _mm512_load_si512(wp + q * wstride);
    const __m512i w1 = _mm512_load_si512(wp + q * wstride + 64);
    for (int r = 0; r < MR; ++r) {
      const __m512i av = _mm512_set1_epi32(
          static_cast<int>(load_u32(xu + r * xstride + q * 4)));
      a[r][0] = _mm512_dpbusd_epi32(a[r][0], av, w0);
      a[r][1] = _mm512_dpbusd_epi32(a[r][1], av, w1);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm512_store_si512(acc + r * kQNr, a[r][0]);
    _mm512_store_si512(acc + r * kQNr + 16, a[r][1]);
  }
}

#endif  // EVA_QKERNELS_AVX512

}  // namespace

void qgemm(const float* X, const QuantMatrix& W, const float* bias, float* Y,
           std::size_t n, Epilogue ep) {
  obs::Span span("qgemm");
  const std::size_t K = W.rows;
  const std::size_t N = W.cols;
  count_flops(n, K, N);
  if (W.empty() || n == 0) return;
#ifdef EVA_QKERNELS_AVX512
  const std::size_t Np = W.padded_cols;
  const std::size_t strips = Np / kQNr;
  const std::size_t kg = (K + 3) / 4;
  const std::size_t K4 = kg * 4;
  // thread_local: qgemm runs per decode step from the (serial) batched
  // inference loop; reusing the activation scratch across steps keeps
  // the hot path allocation-free after warmup.
  static thread_local AlignedVec<std::uint8_t> xu;
  static thread_local std::vector<float> ascale;
  xu.resize(n * K4);
  ascale.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    ascale[r] = quantize_row_u8(X + r * K, K, K4, xu.data() + r * K4);
  }
  // Snapshot the scratch as plain pointers before the parallel region:
  // thread_local names inside the lambda resolve to each pool worker's
  // *own* (empty) vectors, not this thread's filled ones.
  const std::uint8_t* xu_p = xu.data();
  const float* as_p = ascale.data();
  parallel_chunks(
      0, strips,
      [&](std::size_t s0, std::size_t s1) {
        alignas(64) std::int32_t acc[kMr * kQNr];
        for (std::size_t s = s0; s < s1; ++s) {
          const std::size_t nb = s * kQNr;
          const std::size_t nr = std::min(kQNr, N - nb);
          const std::int8_t* wp = W.q8p.data() + nb * 4;
          const float* bp = bias != nullptr ? bias + nb : nullptr;
          std::size_t m = 0;
          for (; m + kMr <= n; m += kMr) {
            qtile_i8<8>(xu_p + m * K4, K4, kg, wp, Np * 4, acc);
            for (std::size_t r = 0; r < kMr; ++r) {
              store_strip_i8(acc + r * kQNr, as_p[m + r],
                             W.scale.data() + nb, W.colsum.data() + nb, bp,
                             ep, Y + (m + r) * N + nb, nr);
            }
          }
          for (; m < n; ++m) {
            qtile_i8<1>(xu_p + m * K4, K4, kg, wp, Np * 4, acc);
            store_strip_i8(acc, as_p[m], W.scale.data() + nb,
                           W.colsum.data() + nb, bp, ep, Y + m * N + nb, nr);
          }
        }
      },
      1);
#else   // !EVA_QKERNELS_AVX512
  // W8A8 as on AVX-512: each activation row becomes its u8 round trip,
  // (code - 128) * ascale, so a NaN element maps to code -127 instead of
  // reaching the output. Same thread_local snapshot as above.
  static thread_local std::vector<std::uint8_t> xu;
  static thread_local std::vector<float> xq;
  xu.resize(K);
  xq.resize(n * K);
  for (std::size_t r = 0; r < n; ++r) {
    const float ascale = quantize_row_u8(X + r * K, K, K, xu.data());
    float* row = xq.data() + r * K;
    for (std::size_t k = 0; k < K; ++k) {
      row[k] = static_cast<float>(int{xu[k]} - 128) * ascale;
    }
  }
  const float* xa = xq.data();
  parallel_chunks(
      0, N,
      [&](std::size_t n0, std::size_t n1) {
        static thread_local std::vector<float> panel;
        panel.resize(kKc * kNr);
        for (std::size_t nb = n0; nb < n1; nb += kNr) {
          const std::size_t nr = std::min(kNr, n1 - nb);
          for (std::size_t r = 0; r < n; ++r) {
            std::fill_n(Y + r * N + nb, nr, 0.0f);
          }
          for (std::size_t kb = 0; kb < K; kb += kKc) {
            const std::size_t kc = std::min(kKc, K - kb);
            decode_panel(W, kb, kc, nb, nr, panel.data());
            for (std::size_t m = 0; m < n; m += kMr) {
              const std::size_t mr = std::min(kMr, n - m);
              micro_kernel(kc, xa + m * K + kb, K, 1, panel.data(), kNr,
                           Y + m * N + nb, N, mr, nr);
            }
          }
          for (std::size_t r = 0; r < n; ++r) {
            float* yrow = Y + r * N + nb;
            store_strip_f32(yrow, W.scale.data() + nb,
                            bias != nullptr ? bias + nb : nullptr, ep, yrow,
                            nr);
          }
        }
      },
      kNr);
#endif  // EVA_QKERNELS_AVX512
}

}  // namespace eva::tensor
