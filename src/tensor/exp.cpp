// glibc's expf in SIMD lanes (DESIGN.md §6 "exp in lanes").
//
// A port of sysdeps/ieee754/flt-32/e_expf.c as glibc 2.36 builds it into
// `__expf_fma`, the variant its ifunc selects on a host with FMA and
// AVX2, to GCC vector extensions over doubles. Each lane performs that
// object's operations in its order, so it rounds as glibc does. Its five
// fused multiply-adds are each one `a * b + c` expression, which this
// file's default contraction fuses as glibc's -mfma -mavx2 build fused
// them: the file must keep it (no -ffp-contract=off here). A build
// without FMA or AVX2, or without optimization (where GCC fuses
// nothing), calls std::exp instead, whose ifunc then picks the same
// fused code on such a host at run time. The lookup table and constants
// are glibc's __exp2f_data (sysdeps/ieee754/flt-32/e_exp2f_data.c).
#include "tensor/exp.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

namespace eva::tensor {

#if defined(__FMA__) && defined(__AVX2__) && defined(__OPTIMIZE__)
namespace {

constexpr std::size_t kDoubleBytes = kExpLanes * sizeof(double);
constexpr std::size_t kFloatBytes = kExpLanes * sizeof(float);
/// One double per lane; arithmetic acts lane by lane and a scalar operand
/// is broadcast.
using Doubles = double __attribute__((vector_size(kDoubleBytes)));
/// The same lanes as bit patterns.
using Words = std::uint64_t __attribute__((vector_size(kDoubleBytes)));
/// The float inputs and outputs of a vector of lanes, and their bits.
using Floats = float __attribute__((vector_size(kFloatBytes)));
using FloatWords = std::uint32_t __attribute__((vector_size(kFloatBytes)));

// tab[i] = bits(2^(i/32)) - (i << 47), so that 2^(k/32) for an integer
// k is the double whose bits are tab[k % 32] + (k << 47).
constexpr std::uint64_t kTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;  // 32 / ln 2
constexpr double kShift = 0x1.8p52;  // rounds to an integer in the low bits
// 2^(r/32) ~= C0 r^3 + C1 r^2 + C2 r + 1 on |r| <= 1/2.
constexpr double kC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32;

/// expf of every lane of x whose |x| < 88 (other lanes get garbage).
[[nodiscard]] inline Floats expf_lanes(Floats x) {
  const Doubles xd = __builtin_convertvector(x, Doubles);
  // x * 32 / ln2 = k + r with k an integer and |r| <= 1/2: kd holds k in
  // its low mantissa bits, rounded to nearest even by the shift.
  Doubles kd = xd * kInvLn2N + kShift;
  const Words ki = (Words)kd;
  kd -= kShift;
  const Doubles r = kInvLn2N * xd - kd;
  // s = 2^(k/32): the table gives the fraction, k's high bits the exponent.
  Words t{};
  for (std::size_t l = 0; l < kExpLanes; ++l) t[l] = kTab[ki[l] % 32];
  const Doubles s = (Doubles)(t + (ki << 47));
  const Doubles z = kC0 * r + kC1;
  const Doubles r2 = r * r;
  Doubles y = kC2 * r + 1.0;
  y = z * r2 + y;
  return __builtin_convertvector(y * s, Floats);
}

/// exp of kExpLanes floats at in into out: the lanes, then std::exp for
/// any lane with |x| >= 88, Inf or NaN (glibc's own special-case test).
inline void exp_vector(const float* in, float* out, std::size_t n) {
  Floats x{};
  std::memcpy(&x, in, n * sizeof(float));
  Floats y = expf_lanes(x);
  const auto special = (((FloatWords)x >> 20) & 0x7ffu) > 0x42au;
  for (std::size_t l = 0; l < n; ++l) {
    if (special[l]) y[l] = std::exp(x[l]);
  }
  std::memcpy(out, &y, n * sizeof(float));
}

}  // namespace

void exp_n(const float* in, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + kExpLanes <= n; i += kExpLanes) {
    exp_vector(in + i, out + i, kExpLanes);
  }
  // The tail as one padded vector: the lanes past n hold 0 and are never
  // stored.
  if (i < n) exp_vector(in + i, out + i, n - i);
}

#else

void exp_n(const float* in, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(in[i]);
}

#endif

}  // namespace eva::tensor
