// Inference-only weight quantization (DESIGN.md "Kernel backends &
// quantized inference").
//
// One reduced-precision weight format for the decode hot path: int8,
// symmetric per-output-column scaling of the row-major W(in, out):
// scale[j] = max|W[:,j]| / 127, q = round(W / scale[j]). Elementwise
// absolute error <= scale[j] / 2; quarters weight traffic. Scales are
// per *column* (not per input row) so the scale factors out of the K
// reduction entirely: on AVX-512 VNNI hardware the kernels quantize each
// activation row to u8 (zero point 128) and accumulate exact int32 dot
// products with vpdpbusd — four multiply-accumulates per lane per
// cycle — then apply y = ascale * (scale[j] * (acc - 128 * colsum[j]))
// once per output.
//
// Training never sees these types: repacking is a one-time explicit step
// (TransformerLM::set_inference_quant) and autograd stays f32.
//
// Besides the canonical row-major codes, QuantMatrix carries a packed
// copy laid out for the 512-bit kernel: q8p, [ceil(rows/4)][padded_cols]
// [4] int8 — four consecutive K entries of one column sit in adjacent
// bytes, so one 64-byte load yields 16 columns x 4 K-steps, the exact
// vpdpbusd operand shape. Columns are zero-padded to a multiple of
// kQuantColPad and K to the group size, so the hot loop never needs
// masked loads; the zero codes contribute nothing to the reduction.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/aligned.hpp"

namespace eva::tensor {

/// Inference weight tier. kF32 means "no repack, use the float path".
enum class QuantKind { kF32, kInt8 };

[[nodiscard]] const char* quant_kind_name(QuantKind kind);

/// Parse "f32" / "int8" (case-sensitive). Returns `fallback`
/// for anything else, including the empty string.
[[nodiscard]] QuantKind parse_quant_kind(std::string_view name,
                                         QuantKind fallback);

/// Resolve the EVA_QUANT environment variable; unset or unparseable
/// yields `fallback`.
[[nodiscard]] QuantKind quant_kind_from_env(QuantKind fallback);

// --- quantized weight matrix -------------------------------------------------

/// Column padding of the packed payload: one register tile of the
/// quantized kernel (two 16-lane vectors).
constexpr std::size_t kQuantColPad = 32;

/// A quantized copy of one row-major weight matrix W(rows=in, cols=out).
/// The canonical payload `q8` stays row-major for dequantize() and the
/// portable kernel; `q8p` is the 512-bit-kernel packing described in the
/// header comment.
struct QuantMatrix {
  QuantKind kind = QuantKind::kF32;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t padded_cols = 0;       // cols rounded up to kQuantColPad
  std::vector<std::int8_t> q8;       // rows*cols codes
  std::vector<float> scale;          // cols entries
  std::vector<std::int32_t> colsum;  // cols entries: sum_k q8(k, j)
  AlignedVec<std::int8_t> q8p;       // ceil(rows/4)*padded_cols*4

  [[nodiscard]] bool empty() const { return rows == 0 || cols == 0; }

  /// Quantize `w` (rows*cols floats, row-major). kind must not be kF32.
  /// Columns that are all zero (or whose max is not finite) get scale 0
  /// and all-zero codes — dequantizing reproduces exact zeros instead of
  /// NaN.
  [[nodiscard]] static QuantMatrix quantize(QuantKind kind, const float* w,
                                            std::size_t rows,
                                            std::size_t cols);

  /// Reconstruct the float matrix into `out` (rows*cols floats).
  void dequantize(float* out) const;
};

/// Epilogue applied by the quantized kernels after the K reduction, per
/// output strip while it is still in cache: the rescale and bias add as
/// the strip is stored, then for kBiasGelu one gelu_approx_n pass
/// (tensor/tensor.hpp) over the stored strip, the GELU the f32 path and
/// training run.
enum class Epilogue { kNone, kBias, kBiasGelu };

}  // namespace eva::tensor
