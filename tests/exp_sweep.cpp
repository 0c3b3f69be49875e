// Exhaustive check of the lane exp: every one of the 2^32 float bit
// patterns through tensor::exp_n, compared bit for bit with std::exp
// (glibc's expf). Too slow for the test suite; run it by hand after
// touching src/tensor/exp.cpp or changing the compiler, flags or libm:
//
//   ./build/tests/exp_sweep
//
// Prints the lane count, the glibc version and the mismatch count, and
// exits non-zero on any mismatch. NaN inputs must come back as the NaN
// std::exp returns for them too.
#include <gnu/libc-version.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "tensor/exp.hpp"

int main() {
  constexpr std::uint64_t kBlock = std::uint64_t{1} << 20;
  std::vector<float> in(kBlock), out(kBlock);
  std::uint64_t bad = 0, compared = 0;
  for (std::uint64_t base = 0; base < (std::uint64_t{1} << 32); base += kBlock) {
    for (std::uint64_t i = 0; i < kBlock; ++i) {
      in[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
    }
    eva::tensor::exp_n(in.data(), out.data(), kBlock);
    for (std::uint64_t i = 0; i < kBlock; ++i) {
      const auto want = std::bit_cast<std::uint32_t>(std::exp(in[i]));
      const auto got = std::bit_cast<std::uint32_t>(out[i]);
      if (got != want && bad++ < 5) {
        std::printf("exp_n(0x%08x) = 0x%08x, std::exp 0x%08x\n",
                    std::bit_cast<std::uint32_t>(in[i]), got, want);
      }
      ++compared;
    }
  }
  std::printf("kExpLanes %zu, glibc %s: %llu patterns; exp_n != std::exp: %llu\n",
              eva::tensor::kExpLanes, gnu_get_libc_version(),
              static_cast<unsigned long long>(compared),
              static_cast<unsigned long long>(bad));
  return bad == 0 ? 0 : 1;
}
