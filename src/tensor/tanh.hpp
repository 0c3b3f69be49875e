// tanh in SIMD lanes, bit for bit the scalar tanhf GELU used before
// (DESIGN.md §6 "GELU tanh in lanes").
#pragma once

#include <cstddef>

namespace eva::tensor {

/// Floats tanh_n works on side by side: one vector register of the ISA
/// the build targets, as spice::kLanes is for doubles.
#if defined(__AVX512F__)
inline constexpr std::size_t kTanhLanes = 16;
#elif defined(__AVX__)
inline constexpr std::size_t kTanhLanes = 8;
#else
inline constexpr std::size_t kTanhLanes = 4;
#endif

/// out[i] = tanhf(in[i]) for i < n, kTanhLanes at a time. Every lane runs
/// fdlibm's tanhf (and the expm1f it calls) in its float operations and
/// order, so each output equals the scalar fdlibm function bit for bit,
/// and glibc 2.36's tanhf, which is that function. `in == out` is allowed;
/// nothing past n is read or written.
void tanh_n(const float* in, float* out, std::size_t n);

}  // namespace eva::tensor
