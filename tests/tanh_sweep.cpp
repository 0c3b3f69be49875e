// Exhaustive check of the lane tanh: every one of the 2^32 float bit
// patterns through tensor::tanh_n, compared bit for bit with the scalar
// fdlibm reference (tanh_reference.cpp), and the reference with
// std::tanh. Too slow for the test suite (about 75 s on one core of a
// 2.1 GHz AVX-512 Xeon); run it by hand after touching
// src/tensor/tanh.cpp or changing the compiler, flags or libm:
//
//   ./build/tests/tanh_sweep
//
// Prints the lane count and both mismatch counts, and exits non-zero if
// either is not 0. NaN inputs are counted apart for std::tanh, whose NaN
// payloads the C standard leaves open.
#include <gnu/libc-version.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "tanh_reference.hpp"
#include "tensor/tanh.hpp"

int main() {
  constexpr std::uint64_t kBlock = std::uint64_t{1} << 20;
  std::vector<float> in(kBlock), out(kBlock);
  std::uint64_t lane_bad = 0, libm_bad = 0, libm_nan_bad = 0, compared = 0;
  for (std::uint64_t base = 0; base < (std::uint64_t{1} << 32); base += kBlock) {
    for (std::uint64_t i = 0; i < kBlock; ++i) {
      in[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
    }
    eva::tensor::tanh_n(in.data(), out.data(), kBlock);
    for (std::uint64_t i = 0; i < kBlock; ++i) {
      const auto ref = std::bit_cast<std::uint32_t>(eva::test::tanhf_reference(in[i]));
      if (std::bit_cast<std::uint32_t>(out[i]) != ref) {
        if (lane_bad++ < 5) {
          std::printf("tanh_n(0x%08x) = 0x%08x, reference 0x%08x\n",
                      std::bit_cast<std::uint32_t>(in[i]),
                      std::bit_cast<std::uint32_t>(out[i]), ref);
        }
      }
      if (std::bit_cast<std::uint32_t>(std::tanh(in[i])) != ref) {
        if (std::isnan(in[i])) {
          ++libm_nan_bad;
        } else if (libm_bad++ < 5) {
          std::printf("reference(0x%08x) = 0x%08x, std::tanh 0x%08x\n",
                      std::bit_cast<std::uint32_t>(in[i]), ref,
                      std::bit_cast<std::uint32_t>(std::tanh(in[i])));
        }
      }
      ++compared;
    }
  }
  std::printf(
      "kTanhLanes %zu, glibc %s: %llu patterns; tanh_n != reference: %llu; "
      "reference != std::tanh: %llu non-NaN, %llu NaN\n",
      eva::tensor::kTanhLanes, gnu_get_libc_version(),
      static_cast<unsigned long long>(compared),
      static_cast<unsigned long long>(lane_bad),
      static_cast<unsigned long long>(libm_bad),
      static_cast<unsigned long long>(libm_nan_bad));
  return lane_bad == 0 && libm_bad == 0 ? 0 : 1;
}
