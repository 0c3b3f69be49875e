// The scalar reference for tensor::tanh_n: fdlibm's tanhf, as glibc 2.36
// ships it, ported verbatim (tanh_reference.cpp).
#pragma once

namespace eva::test {

/// fdlibm's tanhf (s_tanhf.c, calling s_expm1f.c), scalar, compiled
/// without FMA contraction.
[[nodiscard]] float tanhf_reference(float x);

}  // namespace eva::test
