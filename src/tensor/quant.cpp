#include "tensor/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace eva::tensor {

const char* quant_kind_name(QuantKind kind) {
  switch (kind) {
    case QuantKind::kF32: return "f32";
    case QuantKind::kInt8: return "int8";
  }
  return "unknown";
}

QuantKind parse_quant_kind(std::string_view name, QuantKind fallback) {
  if (name == "f32") return QuantKind::kF32;
  if (name == "int8") return QuantKind::kInt8;
  return fallback;
}

QuantKind quant_kind_from_env(QuantKind fallback) {
  const char* v = std::getenv("EVA_QUANT");
  if (v == nullptr || *v == '\0') return fallback;
  return parse_quant_kind(v, fallback);
}

namespace {

/// Interleave the canonical row-major codes into the K-grouped kernel
/// layout: groups of four consecutive K entries of one column land in
/// adjacent bytes ([k/4][padded_col][k%4]). Rows past `rows` and columns
/// past `cols` pad with zero, which contributes nothing to the kernel's
/// reduction.
void pack_k_groups(const std::vector<std::int8_t>& src, std::size_t rows,
                   std::size_t cols, std::size_t padded_cols,
                   AlignedVec<std::int8_t>& dst) {
  constexpr std::size_t kGroup = 4;
  const std::size_t kg = (rows + kGroup - 1) / kGroup;
  dst.assign(kg * padded_cols * kGroup, std::int8_t{0});
  for (std::size_t k = 0; k < rows; ++k) {
    const std::int8_t* row = src.data() + k * cols;
    std::int8_t* out =
        dst.data() + (k / kGroup) * padded_cols * kGroup + (k % kGroup);
    for (std::size_t j = 0; j < cols; ++j) out[j * kGroup] = row[j];
  }
}

}  // namespace

QuantMatrix QuantMatrix::quantize(QuantKind kind, const float* w,
                                  std::size_t rows, std::size_t cols) {
  EVA_REQUIRE(kind != QuantKind::kF32, "quantize: kF32 is the unpacked tier");
  QuantMatrix m;
  m.kind = kind;
  m.rows = rows;
  m.cols = cols;
  m.padded_cols = (cols + kQuantColPad - 1) / kQuantColPad * kQuantColPad;
  m.q8.resize(rows * cols);
  m.scale.assign(cols, 0.0f);
  m.colsum.assign(cols, 0);
  // Pass 1: per-column absolute maxima. NaN must poison the column (the
  // scale-0 contract below), so reduce with a comparison that lets NaN
  // through — std::max would silently discard it and a NaN code would
  // later hit an undefined float->int8 cast.
  std::vector<float> amax(cols, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      const float a = std::fabs(row[c]);
      // `a > NaN` is false, so a poisoned amax is never overwritten.
      if (a > amax[c] || std::isnan(a)) amax[c] = a;
    }
  }
  // Zero columns (and columns poisoned by non-finite values) quantize
  // to scale 0 + all-zero codes: dequantization reproduces exact zeros
  // and the kernels' per-column rescale annihilates the output.
  std::vector<float> inv(cols, 0.0f);
  for (std::size_t c = 0; c < cols; ++c) {
    if (!(amax[c] > 0.0f) || !std::isfinite(amax[c])) continue;
    m.scale[c] = amax[c] / 127.0f;
    inv[c] = 1.0f / m.scale[c];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    std::int8_t* out = m.q8.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      if (inv[c] == 0.0f) {
        out[c] = 0;
        continue;
      }
      const float q = std::nearbyint(row[c] * inv[c]);
      out[c] = static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
      m.colsum[c] += out[c];
    }
  }
  pack_k_groups(m.q8, rows, cols, m.padded_cols, m.q8p);
  return m;
}

void QuantMatrix::dequantize(float* out) const {
  EVA_REQUIRE(kind == QuantKind::kInt8, "dequantize: no payload for kF32");
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out[r * cols + c] = static_cast<float>(q8[r * cols + c]) * scale[c];
    }
  }
}

}  // namespace eva::tensor
