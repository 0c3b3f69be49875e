// fdlibm's s_tanhf.c and s_expm1f.c, as glibc 2.36 ships them, ported
// verbatim to C++: the scalar reference the lane kernel
// (src/tensor/tanh.cpp) is tested against, and that is itself tested
// against std::tanh. GET_FLOAT_WORD/SET_FLOAT_WORD become memcpy, the
// exponent arithmetic is unsigned, and the errno and floating-point
// exception side effects, which change no value, are left out. Compiled
// with -ffp-contract=off (tests/CMakeLists.txt), as glibc's generic
// float code is.
//
// Original notices:
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
#include "tanh_reference.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

namespace eva::test {
namespace {

std::uint32_t get_float_word(float x) {
  std::uint32_t w;
  std::memcpy(&w, &x, sizeof w);
  return w;
}

float set_float_word(std::uint32_t w) {
  float x;
  std::memcpy(&x, &w, sizeof x);
  return x;
}

const float huge = 1.0e+30f, tiny = 1.0e-30f;

const float one = 1.0f, two = 2.0f,
            o_threshold = 8.8721679688e+01f,  // 0x42b17180
            ln2_hi = 6.9313812256e-01f,       // 0x3f317180
            ln2_lo = 9.0580006145e-06f,       // 0x3717f7d1
            invln2 = 1.4426950216e+00f,       // 0x3fb8aa3b
            // scaled coefficients related to expm1
            Q1 = -3.3333335072e-02f,  // 0xbd088889
            Q2 = 1.5873016091e-03f,   // 0x3ad00d01
            Q3 = -7.9365076090e-05f,  // 0xb8a670cd
            Q4 = 4.0082177293e-06f,   // 0x36867e54
            Q5 = -2.0109921195e-07f;  // 0xb457edbb

float expm1f(float x) {
  float y, hi, lo, c = 0.0f, t, e, hxs, hfx, r1;
  std::int32_t k;
  std::uint32_t hx = get_float_word(x);
  const std::uint32_t xsb = hx & 0x80000000u;  // sign bit of x
  hx &= 0x7fffffffu;                          // high word of |x|

  // filter out huge and non-finite argument
  if (hx >= 0x4195b844u) {    // if |x|>=27*ln2
    if (hx >= 0x42b17218u) {  // if |x|>=88.721...
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return (xsb == 0) ? x : -1.0f;  // exp(+-inf)={inf,-1}
      if (x > o_threshold) return huge * huge;  // overflow
    }
    if (xsb != 0) {  // x < -27*ln2, return -1.0 with inexact
      return tiny - one;
    }
  }

  // argument reduction
  if (hx > 0x3eb17218u) {    // if  |x| > 0.5 ln2
    if (hx < 0x3F851592u) {  // and |x| < 1.5 ln2
      if (xsb == 0) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(invln2 * x + ((xsb == 0) ? 0.5f : -0.5f));
      t = static_cast<float>(k);
      hi = x - t * ln2_hi;  // t*ln2_hi is exact here
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // when |x|<2**-25, return x
    t = huge + x;  // return x with inexact flags when x!=0
    return x - (t - huge);
  } else {
    k = 0;
  }

  // x is now in primary range
  hfx = 0.5f * x;
  hxs = x * hfx;
  r1 = one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  t = 3.0f - r1 * hfx;
  e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return one + 2.0f * (x - e);
  }
  const std::uint32_t kbits = static_cast<std::uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {  // suffice to return exp(x)-1
    y = one - (e - x);
    y = set_float_word(get_float_word(y) + kbits);  // add k to y's exponent
    return y - one;
  }
  if (k < 23) {
    t = set_float_word(0x3f800000u - (0x1000000u >> k));  // t=1-2^-k
    y = t - (e - x);
    y = set_float_word(get_float_word(y) + kbits);  // add k to y's exponent
  } else {
    t = set_float_word((0x7fu - static_cast<std::uint32_t>(k)) << 23);  // 2^-k
    y = x - (e + t);
    y += one;
    y = set_float_word(get_float_word(y) + kbits);  // add k to y's exponent
  }
  return y;
}

}  // namespace

float tanhf_reference(float x) {
  float t, z;
  const std::uint32_t jx = get_float_word(x);
  const std::uint32_t ix = jx & 0x7fffffffu;

  // x is INF or NaN
  if (ix >= 0x7f800000u) {
    if ((jx & 0x80000000u) == 0) return one / x + one;  // tanh(+-inf)=+-1
    return one / x - one;                                // tanh(NaN) = NaN
  }

  // |x| < 22
  if (ix < 0x41b00000u) {          // |x|<22
    if (ix == 0) return x;          // x == +-0
    if (ix < 0x24000000u) {         // |x|<2**-55
      return x * (one + x);         // tanh(small) = small
    }
    if (ix >= 0x3f800000u) {  // |x|>=1
      t = expm1f(two * std::fabs(x));
      z = one - two / (t + two);
    } else {
      t = expm1f(-two * std::fabs(x));
      z = -t / (t + two);
    }
    // |x| > 22, return +-1
  } else {
    z = one - tiny;  // raised inexact flag
  }
  return ((jx & 0x80000000u) == 0) ? z : -z;
}

}  // namespace eva::test
