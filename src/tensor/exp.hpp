// expf in SIMD lanes, bit for bit glibc's (DESIGN.md §6 "exp in lanes").
#pragma once

#include <cstddef>

namespace eva::tensor {

/// Inputs exp_n evaluates side by side: one vector register of doubles of
/// the ISA the build targets (8 with AVX-512F, 4 with AVX2), as
/// spice::kLanes is. The lanes need FMA and AVX2, the features glibc's
/// ifunc requires before it runs its fused expf; builds without them
/// evaluate one at a time. So do unoptimized (-O0) builds, where GCC fuses
/// no `a * b + c`; GCC 12 fuses from -O2 on, so -O1 builds round two
/// inputs differently (DESIGN.md §6 "exp in lanes").
#if defined(__FMA__) && defined(__AVX2__) && defined(__OPTIMIZE__) && \
    defined(__AVX512F__)
inline constexpr std::size_t kExpLanes = 8;
#elif defined(__FMA__) && defined(__AVX2__) && defined(__OPTIMIZE__)
inline constexpr std::size_t kExpLanes = 4;
#else
inline constexpr std::size_t kExpLanes = 1;
#endif

/// out[i] = std::exp(in[i]) for i < n, bit for bit. With FMA and AVX2
/// each lane runs the operations of glibc 2.36's `__expf_fma` in its
/// order: the variant glibc's ifunc picks on a host with both, so such a
/// build gets the results any binary gets there. Inputs with |x| >= 88,
/// Inf and NaN take std::exp itself. Other builds, and -O0 builds, call
/// std::exp throughout.
/// `in == out` is allowed; nothing past n is read or written.
void exp_n(const float* in, float* out, std::size_t n);

}  // namespace eva::tensor
