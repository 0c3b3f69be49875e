// fdlibm's tanhf in SIMD lanes (DESIGN.md §6 "GELU tanh in lanes").
//
// A port of s_tanhf.c and the s_expm1f.c it calls, as glibc 2.36 ships
// them, to GCC vector extensions: each branch becomes a select, and every
// lane performs the scalar code's float operations in its order, so every
// lane rounds exactly as the scalar function does. This file alone
// compiles with -ffp-contract=off (src/tensor/CMakeLists.txt): a fused
// multiply-add rounds once where fdlibm rounds twice. The scalar port the
// tests hold as the reference is tests/tanh_reference.cpp.
//
// Original notices of the ported files:
//
// s_tanhf.c, s_expm1f.c -- float versions of s_tanh.c, s_expm1.c.
// Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
#include "tensor/tanh.hpp"

#include <cstdint>
#include <cstring>

namespace eva::tensor {
namespace {

constexpr std::size_t kBytes = kTanhLanes * sizeof(float);
/// One float per lane; arithmetic acts lane by lane, a scalar operand is
/// broadcast and `m ? a : b` selects per lane.
using Floats = float __attribute__((vector_size(kBytes)));
/// The same lanes as bit patterns. Exponent arithmetic is unsigned, so it
/// wraps where fdlibm's int32 arithmetic would.
using Words = std::uint32_t __attribute__((vector_size(kBytes)));
/// Signed lanes: expm1f's k, and per-lane truth as comparisons return it
/// (-1 for true, 0 for false).
using Ints = std::int32_t __attribute__((vector_size(kBytes)));

[[nodiscard]] inline Floats splat(float v) {
  Floats out;
  for (std::size_t l = 0; l < kTanhLanes; ++l) out[l] = v;
  return out;
}

constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

/// expm1f for the arguments tanhf passes it: 2|x| in [2, 44) and -2|x| in
/// (-2, 0). fdlibm's filters for |x| >= 27 ln2 return early only for
/// negative or overflowing arguments, neither of which occurs here, so
/// they are left out; everything below them is kept.
[[nodiscard]] inline Floats expm1f_lanes(Floats x) {
  const Words hx = (Words)x & 0x7fffffffu;
  const Ints neg = (Ints)x < 0;

  // Argument reduction: x = k ln2 + r, r = hi - lo, c the rounding of r.
  const Ints reduce = hx > 0x3eb17218u;   // |x| > 0.5 ln2
  const Ints near = hx < 0x3f851592u;     // and |x| < 1.5 ln2: k = +-1
  // Lanes that are not reduced or take k = +-1 have |x| < 1.5 ln2, and
  // every argument is under 44, so this conversion is always in range.
  const Ints kr = __builtin_convertvector(
      kInvLn2 * x + (neg ? splat(-0.5f) : splat(0.5f)), Ints);
  const Floats tk = __builtin_convertvector(kr, Floats);
  const Floats hi =
      near ? (neg ? x + kLn2Hi : x - kLn2Hi) : x - tk * kLn2Hi;
  const Floats lo = near ? (neg ? splat(-kLn2Lo) : splat(kLn2Lo)) : tk * kLn2Lo;
  const Floats xr = hi - lo;
  const Floats c = (hi - xr) - lo;
  const Ints k = reduce ? (near ? (neg | 1) : kr) : Ints{};
  const Floats r = reduce ? xr : x;

  // r is now in the primary range.
  const Floats hfx = 0.5f * r;
  const Floats hxs = r * hfx;
  const Floats r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const Floats t = 3.0f - r1 * hfx;
  Floats e = hxs * ((r1 - t) / (6.0f - r * t));
  const Floats y0 = r - (r * e - hxs);  // k == 0 (c is 0)
  e = (r * (e - c) - c) - hxs;
  const Floats ym1 = 0.5f * (r - e) - 0.5f;
  const Floats yp1 =
      r < -0.25f ? -2.0f * (e - (r + 0.5f)) : 1.0f + 2.0f * (r - e);
  // |k| >= 2: y * 2^k by adding k to the exponent field. 2^-k is built
  // from its bits as fdlibm does; 1 - 2^-k, which fdlibm builds from
  // bits for 2 <= k < 23, is exact in float, so it is computed.
  const Words scale = (Words)k << 23;
  const Floats p2mk = (Floats)((0x7fu - (Words)k) << 23);
  const Floats y_big = (Floats)((Words)(1.0f - (e - r)) + scale) - 1.0f;
  const Floats y_mid = (Floats)((Words)((1.0f - p2mk) - (e - r)) + scale);
  const Floats y_high = (Floats)((Words)((r - (e + p2mk)) + 1.0f) + scale);

  Floats y = k < 23 ? y_mid : y_high;
  y = (k <= -2) | (k > 56) ? y_big : y;
  y = k == 1 ? yp1 : y;
  y = k == -1 ? ym1 : y;
  y = k == 0 ? y0 : y;
  // |x| < 2^-25: fdlibm returns x - ((huge + x) - huge), which is x.
  return hx < 0x33000000u ? x : y;
}

[[nodiscard]] inline Floats tanhf_lanes(Floats x) {
  const Words ix = (Words)x & 0x7fffffffu;
  const Ints neg = (Ints)x < 0;
  const Ints finite = ix < 0x7f800000u;
  const Ints mid = ix < 0x41b00000u;  // |x| < 22
  const Ints ge1 = ix >= 0x3f800000u;

  // |x| < 22: z = 1 - 2/(expm1(2|x|) + 2) for |x| >= 1, else
  // -t/(t + 2) with t = expm1(-2|x|). Lanes outside take |x| = 1, which
  // keeps expm1f's reduction finite; their z is replaced below.
  const Floats ax = mid ? (Floats)ix : splat(1.0f);
  const Floats t = expm1f_lanes(ge1 ? 2.0f * ax : -2.0f * ax);
  // One division serves both forms: 2/(t+2) and t/(t+2) share the
  // divisor, and -t/(t+2) is -(t/(t+2)) exactly.
  const Floats q = (ge1 ? splat(2.0f) : t) / (t + 2.0f);
  Floats z = ge1 ? 1.0f - q : -q;
  z = mid ? z : splat(1.0f - 1.0e-30f);  // |x| >= 22: one - tiny
  z = neg ? -z : z;
  // |x| < 2^-55 returns x*(1+x); at +-0, where fdlibm returns x, that is
  // x too.
  z = ix < 0x24000000u ? x * (1.0f + x) : z;
  // Inf and NaN: 1/x + 1 with the sign bit clear, 1/x - 1 with it set.
  const Floats inv = 1.0f / x;
  return finite ? z : (neg ? inv - 1.0f : inv + 1.0f);
}

}  // namespace

void tanh_n(const float* in, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + kTanhLanes <= n; i += kTanhLanes) {
    Floats x;
    std::memcpy(&x, in + i, kBytes);
    const Floats y = tanhf_lanes(x);
    std::memcpy(out + i, &y, kBytes);
  }
  if (i < n) {
    // The tail as one padded vector: the lanes past n hold 0 and are
    // never stored.
    Floats x{};
    std::memcpy(&x, in + i, (n - i) * sizeof(float));
    const Floats y = tanhf_lanes(x);
    std::memcpy(out + i, &y, (n - i) * sizeof(float));
  }
}

}  // namespace eva::tensor
