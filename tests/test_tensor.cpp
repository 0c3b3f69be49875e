// Unit tests for the autodiff tensor engine: forward values, gradient
// checks against finite differences for every op, optimizers, and the
// storage cache that keeps large buffers from one step to the next.
#include <gnu/libc-version.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/exp.hpp"
#include "tensor/gemm.hpp"
#include "tensor/optim.hpp"
#include "tensor/tanh.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "attention_reference.hpp"
#include "gemm_reference.hpp"
#include "tanh_reference.hpp"

namespace {

using namespace eva::tensor;
using eva::Rng;
namespace obs = eva::obs;

/// Numeric gradient check: f builds a fresh graph from the leaf each call.
void grad_check(Tensor leaf, const std::function<Tensor(const Tensor&)>& f,
                float tol = 2e-2f) {
  leaf.zero_grad();  // leaves are reused across checks within a test
  Tensor loss = f(leaf);
  ASSERT_EQ(loss.numel(), 1u);
  loss.backward();
  std::vector<float> analytic(leaf.grad().begin(), leaf.grad().end());

  const float eps = 1e-2f;
  auto data = leaf.data();
  for (std::size_t i = 0; i < leaf.numel(); ++i) {
    const float orig = data[i];
    data[i] = orig + eps;
    const float up = f(leaf).item();
    data[i] = orig - eps;
    const float down = f(leaf).item();
    data[i] = orig;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0f, std::abs(numeric)))
        << "grad mismatch at index " << i;
  }
}

TEST(Tensor, FactoriesAndIntrospection) {
  auto t = Tensor::zeros({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(-1), 3);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);

  auto f = Tensor::full({2}, 3.5f);
  EXPECT_EQ(f.data()[0], 3.5f);
  EXPECT_FALSE(f.requires_grad());

  Rng rng(1);
  auto r = Tensor::randn({100}, rng, 2.0f);
  EXPECT_TRUE(r.requires_grad());
}

TEST(Tensor, AddSameShape) {
  auto a = Tensor::from({2, 2}, {1, 2, 3, 4});
  auto b = Tensor::from({2, 2}, {10, 20, 30, 40});
  auto c = add(a, b);
  EXPECT_EQ(c.data()[3], 44.0f);
}

TEST(Tensor, AddSuffixBroadcast) {
  auto a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  auto b = Tensor::from({3}, {10, 20, 30});
  auto c = add(a, b);
  EXPECT_EQ(c.data()[0], 11.0f);
  EXPECT_EQ(c.data()[5], 36.0f);
}

TEST(Tensor, AddScalarOperandBroadcast) {
  auto a = Tensor::from({2, 2}, {1, 2, 3, 4});
  auto s = Tensor::scalar(100.0f);
  auto c = add(a, s);
  EXPECT_EQ(c.data()[2], 103.0f);
}

TEST(Tensor, MulGradBothOperands) {
  Rng rng(2);
  auto a = Tensor::randn({6}, rng, 1.0f);
  grad_check(a, [](const Tensor& x) {
    auto y = Tensor::from({6}, {1, -2, 3, 0.5f, 2, -1});
    return sum_all(mul(x, y));
  });
}

TEST(Tensor, BroadcastGradReducesToSuffix) {
  Rng rng(3);
  auto b = Tensor::randn({3}, rng, 1.0f);
  grad_check(b, [](const Tensor& x) {
    auto a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
    return sum_all(mul(a, x));
  });
}

TEST(Tensor, SubAndScalarOps) {
  Rng rng(4);
  auto a = Tensor::randn({5}, rng, 1.0f);
  grad_check(a, [](const Tensor& x) {
    return sum_all(add_scalar(mul_scalar(sub(x, Tensor::full({5}, 1.0f)), 3.0f),
                              2.0f));
  });
}

TEST(Tensor, UnaryOpsForward) {
  auto x = Tensor::from({3}, {-1.0f, 0.0f, 1.0f});
  EXPECT_NEAR(sigmoid(x).data()[1], 0.5f, 1e-6);
  EXPECT_NEAR(exp_t(x).data()[2], std::exp(1.0f), 1e-5);
  EXPECT_NEAR(square(x).data()[0], 1.0f, 1e-6);
  EXPECT_NEAR(neg(x).data()[2], -1.0f, 1e-6);
}

TEST(Tensor, UnaryGradChecks) {
  Rng rng(5);
  auto x = Tensor::randn({8}, rng, 0.7f);
  grad_check(x, [](const Tensor& t) { return sum_all(sigmoid(t)); });
  grad_check(x, [](const Tensor& t) { return sum_all(gelu(t)); });
  grad_check(x, [](const Tensor& t) { return sum_all(square(t)); });
  grad_check(x, [](const Tensor& t) { return sum_all(exp_t(mul_scalar(t, 0.5f))); });
}

TEST(Tensor, LogGrad) {
  auto x = Tensor::from({4}, {0.5f, 1.0f, 2.0f, 3.0f}, true);
  grad_check(x, [](const Tensor& t) { return sum_all(log_t(t)); });
}

TEST(Tensor, Matmul2D) {
  auto a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  auto b = Tensor::from({3, 2}, {7, 8, 9, 10, 11, 12});
  auto c = matmul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.data()[0], 58.0f);   // 1*7+2*9+3*11
  EXPECT_EQ(c.data()[3], 154.0f);  // 4*8+5*10+6*12
}

TEST(Tensor, Matmul2DGrad) {
  Rng rng(6);
  auto a = Tensor::randn({3, 4}, rng, 0.5f);
  grad_check(a, [](const Tensor& x) {
    auto w = Tensor::from({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
    return sum_all(matmul(x, w));
  });
  auto w = Tensor::randn({4, 2}, rng, 0.5f);
  grad_check(w, [](const Tensor& x) {
    auto a2 = Tensor::from({3, 4}, {1, 0, 2, -1, 3, 1, 0, 2, -2, 1, 1, 0});
    return sum_all(matmul(a2, x));
  });
}

TEST(Tensor, Matmul3Dx2D) {
  Rng rng(7);
  auto a = Tensor::randn({2, 3, 4}, rng, 0.5f);
  auto w = Tensor::randn({4, 5}, rng, 0.5f);
  auto c = matmul(a, w);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 5}));
  grad_check(a, [&w](const Tensor& x) { return sum_all(matmul(x, w.detach())); });
  grad_check(w, [&a](const Tensor& x) { return sum_all(matmul(a.detach(), x)); });
}

TEST(Tensor, BatchedMatmulGrad) {
  Rng rng(8);
  auto a = Tensor::randn({2, 2, 3}, rng, 0.5f);
  auto b = Tensor::randn({2, 3, 2}, rng, 0.5f);
  auto c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  grad_check(a, [&b](const Tensor& x) { return sum_all(matmul(x, b.detach())); });
  grad_check(b, [&a](const Tensor& x) { return sum_all(matmul(a.detach(), x)); });
}

// --- raw GEMM kernels -----------------------------------------------------
// The blocked kernels behind matmul/linear, checked against a naive
// triple loop across shapes that hit every tiling edge case: unit dims,
// sub-tile ragged edges (3, 17), exact tiles (64), and one-past-a-tile
// (129). Reduction order differs from the reference, so compare with a
// K-scaled tolerance rather than exact equality.

std::vector<float> random_mat(std::size_t rows, std::size_t cols, Rng& rng) {
  std::vector<float> m(rows * cols);
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

/// Bit patterns, so a comparison tells -0 from +0.
std::vector<std::uint32_t> bits(std::span<const float> v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::bit_cast<std::uint32_t>(v[i]);
  }
  return out;
}

TEST(Gemm, KernelsMatchNaiveReference) {
  const std::size_t dims[] = {1, 3, 17, 64, 129};
  Rng rng(99);
  for (std::size_t M : dims) {
    for (std::size_t K : dims) {
      for (std::size_t N : dims) {
        const auto A = random_mat(M, K, rng);    // (M,K)
        const auto B = random_mat(K, N, rng);    // (K,N)
        const auto Bt = random_mat(N, K, rng);   // (N,K), for nt
        const auto At = random_mat(K, M, rng);   // (K,M), for tn
        const float tol = 1e-4f * static_cast<float>(K);

        std::vector<float> ref(M * N, 0.0f), out(M * N, 0.0f);

        for (std::size_t i = 0; i < M; ++i)
          for (std::size_t k = 0; k < K; ++k)
            for (std::size_t j = 0; j < N; ++j)
              ref[i * N + j] += A[i * K + k] * B[k * N + j];
        gemm_nn(A.data(), B.data(), out.data(), M, K, N);
        for (std::size_t i = 0; i < M * N; ++i)
          ASSERT_NEAR(out[i], ref[i], tol)
              << "nn " << M << "x" << K << "x" << N << " @" << i;

        std::fill(ref.begin(), ref.end(), 0.0f);
        std::fill(out.begin(), out.end(), 0.0f);
        for (std::size_t i = 0; i < M; ++i)
          for (std::size_t j = 0; j < N; ++j)
            for (std::size_t k = 0; k < K; ++k)
              ref[i * N + j] += A[i * K + k] * Bt[j * K + k];
        gemm_nt(A.data(), Bt.data(), out.data(), M, K, N);
        for (std::size_t i = 0; i < M * N; ++i)
          ASSERT_NEAR(out[i], ref[i], tol)
              << "nt " << M << "x" << K << "x" << N << " @" << i;

        std::fill(ref.begin(), ref.end(), 0.0f);
        std::fill(out.begin(), out.end(), 0.0f);
        for (std::size_t k = 0; k < K; ++k)
          for (std::size_t i = 0; i < M; ++i)
            for (std::size_t j = 0; j < N; ++j)
              ref[i * N + j] += At[k * M + i] * B[k * N + j];
        gemm_tn(At.data(), B.data(), out.data(), K, M, N);
        for (std::size_t i = 0; i < M * N; ++i)
          ASSERT_NEAR(out[i], ref[i], tol)
              << "tn " << K << "x" << M << "x" << N << " @" << i;
      }
    }
  }
}

TEST(Gemm, KernelsAccumulateIntoC) {
  // All three kernels are C += ..., not C = ...; the backward pass
  // relies on accumulation when a tensor feeds several consumers.
  Rng rng(100);
  const std::size_t n = 17;
  const auto A = random_mat(n, n, rng);
  const auto B = random_mat(n, n, rng);
  std::vector<float> once(n * n, 1.0f), twice(n * n, 1.0f);
  gemm_nn(A.data(), B.data(), once.data(), n, n, n);
  gemm_nn(A.data(), B.data(), twice.data(), n, n, n);
  gemm_nn(A.data(), B.data(), twice.data(), n, n, n);
  for (std::size_t i = 0; i < n * n; ++i)
    EXPECT_NEAR(twice[i], 2.0f * once[i] - 1.0f, 1e-3f);
}

TEST(Gemm, OneRowMatchesCohortRow) {
  // gemm_nn's M == 1 case runs its own kernel. It must reduce in the
  // tiled kernel's K-panel order, so a row computed alone is bitwise the
  // row of a 9-row call (one full 8-row tile plus a ragged one) at every
  // K, including K past one 256-wide panel. C starts non-zero because
  // gemm_nn accumulates into it.
  Rng rng(101);
  constexpr std::size_t kRows = 9;
  for (std::size_t K : {1u, 7u, 255u, 256u, 257u, 769u}) {
    for (std::size_t N : {1u, 31u, 32u, 33u, 64u, 65u, 200u}) {
      const auto A = random_mat(kRows, K, rng);
      const auto B = random_mat(K, N, rng);
      const auto c0 = random_mat(1, N, rng);
      std::vector<float> cohort(kRows * N);
      for (std::size_t r = 0; r < kRows; ++r)
        std::copy(c0.begin(), c0.end(), cohort.begin() + r * N);
      gemm_nn(A.data(), B.data(), cohort.data(), kRows, K, N);
      for (std::size_t r = 0; r < kRows; ++r) {
        std::vector<float> solo(c0), ref(c0);
        gemm_nn(A.data() + r * K, B.data(), solo.data(), 1, K, N);
        for (std::size_t k = 0; k < K; ++k)
          for (std::size_t j = 0; j < N; ++j)
            ref[j] += A[r * K + k] * B[k * N + j];
        for (std::size_t j = 0; j < N; ++j) {
          ASSERT_EQ(solo[j], cohort[r * N + j])
              << "K=" << K << " N=" << N << " row " << r << " @" << j;
          ASSERT_NEAR(solo[j], ref[j], 1e-4f * static_cast<float>(K) + 1e-5f)
              << "K=" << K << " N=" << N << " row " << r << " @" << j;
        }
      }
    }
  }
}

TEST(Gemm, FlopCounterCountsEveryKernel) {
  // tensor.gemm_flops is the kernels' only traffic count (the serve
  // stats snapshot reports it): every call adds exactly 2*M*K*N.
  Rng rng(102);
  obs::Counter& flops = obs::counter("tensor.gemm_flops");
  const auto expect_flops = [&](const char* what, std::int64_t want,
                                const std::function<void()>& call) {
    const std::int64_t before = flops.value();
    call();
    EXPECT_EQ(flops.value() - before, want) << what;
  };
  const auto A = random_mat(9, 40, rng);
  const auto B = random_mat(40, 24, rng);
  const auto Bt = random_mat(24, 40, rng);
  std::vector<float> C(9 * 24, 0.0f);
  expect_flops("nn M=1", 2 * 1 * 40 * 24,
               [&] { gemm_nn(A.data(), B.data(), C.data(), 1, 40, 24); });
  expect_flops("nn M=9", 2 * 9 * 40 * 24,
               [&] { gemm_nn(A.data(), B.data(), C.data(), 9, 40, 24); });
  expect_flops("nt", 2 * 9 * 40 * 24,
               [&] { gemm_nt(A.data(), Bt.data(), C.data(), 9, 40, 24); });
  // tn: A is (K,M) = (40,9) read transposed.
  expect_flops("tn", 2 * 40 * 9 * 24,
               [&] { gemm_tn(A.data(), B.data(), C.data(), 40, 9, 24); });
  const auto W = QuantMatrix::quantize(QuantKind::kInt8, B.data(), 40, 24);
  expect_flops("qgemm", 2 * 9 * 40 * 24, [&] {
    qgemm(A.data(), W, nullptr, C.data(), 9, Epilogue::kNone);
  });
}

TEST(Gemm, LaneTileMatchesScalarTileBitwise) {
  // The lane tile must give every element of C the scalar tile's
  // multiply-add chain (tests/gemm_reference.cpp): full and ragged row
  // tiles, ragged column strips, K past one 256-wide panel, the one-row
  // case, and the lower-triangle products at every head width, at pool
  // widths 1 and 4. Every operand is allocated at its exact size, so a
  // read past a ragged edge shows under ASan; C starts non-zero because
  // every kernel accumulates into it.
  const std::size_t Ms[] = {1, 2, 7, 8, 9, 15, 16, 17, 33, 800};
  const std::size_t Ks[] = {1, 3, 64, 256, 257, 600};
  const std::size_t Ns[] = {1, 5, 16, 30, 31, 32, 33, 64, 190, 256};
  const std::size_t Ts[] = {1,  2,   7,   8,   9,   31, 32,
                            33, 100, 255, 256, 257, 300};
  const auto expect_same = [](const std::vector<float>& lanes,
                              const std::vector<float>& scalar,
                              const std::string& what) {
    const auto a = bits(lanes), b = bits(scalar);
    const auto at = std::mismatch(a.begin(), a.end(), b.begin()).first;
    EXPECT_TRUE(at == a.end())
        << what << ": element " << (at - a.begin()) << " differs";
  };
  Rng rng(103);
  // Uniform, not normal: drawing the operands would otherwise take most
  // of the test's time.
  const auto operand = [&](std::size_t rows, std::size_t cols) {
    std::vector<float> m(rows * cols);
    for (auto& x : m) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return m;
  };
  for (std::size_t width : {1u, 4u}) {
    eva::set_num_threads(width);
    const std::string pool = " at width " + std::to_string(width);
    for (std::size_t M : Ms) {
      for (std::size_t K : Ks) {
        for (std::size_t N : Ns) {
          // The largest products add time, not cases: M = 800 already
          // runs the LM head's 800 x 64 x 190.
          if (M * K * N > (std::size_t{1} << 24)) continue;
          const std::string shape = std::to_string(M) + "x" +
                                    std::to_string(K) + "x" +
                                    std::to_string(N) + pool;
          const auto A = operand(M, K);
          const auto B = operand(K, N);
          const auto Bt = operand(N, K);
          const auto At = operand(K, M);
          const auto C0 = operand(M, N);
          std::vector<float> lanes = C0, scalar = C0;
          gemm_nn(A.data(), B.data(), lanes.data(), M, K, N);
          reference::gemm_nn(A.data(), B.data(), scalar.data(), M, K, N);
          expect_same(lanes, scalar, "nn " + shape);
          lanes = scalar = C0;
          gemm_nt(A.data(), Bt.data(), lanes.data(), M, K, N);
          reference::gemm_nt(A.data(), Bt.data(), scalar.data(), M, K, N);
          expect_same(lanes, scalar, "nt " + shape);
          lanes = scalar = C0;
          gemm_tn(At.data(), B.data(), lanes.data(), K, M, N);
          reference::gemm_tn(At.data(), B.data(), scalar.data(), K, M, N);
          expect_same(lanes, scalar, "tn " + shape);
        }
      }
    }
    // One head of two at a time, in place in (T, 2D) rows as
    // causal_attention runs it: the second head's last row ends the
    // buffer. P is zero above the diagonal.
    for (std::size_t T : Ts) {
      for (std::size_t D : {8u, 16u, 32u, 64u}) {
        const std::size_t ld = 2 * D;
        const auto q = operand(T, ld);
        const auto k = operand(T, ld);
        const auto v = operand(T, ld);
        const auto S0 = operand(T, T);
        const auto C0 = operand(T, ld);
        auto P = operand(T, T);
        for (std::size_t i = 0; i < T; ++i) {
          std::fill(P.begin() + i * T + i + 1, P.begin() + (i + 1) * T, 0.0f);
        }
        for (std::size_t o : {std::size_t{0}, D}) {
          const std::string shape = "T " + std::to_string(T) + ", D " +
                                    std::to_string(D) + ", head at " +
                                    std::to_string(o) + pool;
          std::vector<float> lanes = S0, scalar = S0;
          gemm_nt_causal(q.data() + o, ld, k.data() + o, ld, lanes.data(), T,
                         D);
          reference::gemm_nt_causal(q.data() + o, ld, k.data() + o, ld,
                                    scalar.data(), T, D);
          expect_same(lanes, scalar, "nt_causal " + shape);
          lanes = scalar = C0;
          gemm_nn_causal(P.data(), v.data() + o, ld, lanes.data() + o, ld, T,
                         D);
          reference::gemm_nn_causal(P.data(), v.data() + o, ld,
                                    scalar.data() + o, ld, T, D);
          expect_same(lanes, scalar, "nn_causal " + shape);
          lanes = scalar = C0;
          gemm_tn_causal(P.data(), v.data() + o, ld, lanes.data() + o, ld, T,
                         D);
          reference::gemm_tn_causal(P.data(), v.data() + o, ld,
                                    scalar.data() + o, ld, T, D);
          expect_same(lanes, scalar, "tn_causal " + shape);
        }
      }
    }
  }
  eva::set_num_threads(0);
}

TEST(Tensor, TransposeLast) {
  auto a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  auto t = transpose_last(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.data()[0], 1.0f);
  EXPECT_EQ(t.data()[1], 4.0f);
  Rng rng(9);
  auto x = Tensor::randn({2, 2, 3}, rng, 1.0f);
  grad_check(x, [](const Tensor& t2) {
    auto w = Tensor::from({2, 3, 2}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
    return sum_all(mul(transpose_last(t2), w));
  });
}

TEST(Tensor, ReshapeRoundTrip) {
  auto a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6}, true);
  auto r = reshape(a, {3, 2});
  EXPECT_EQ(r.data()[4], 5.0f);
  grad_check(a, [](const Tensor& x) {
    return sum_all(square(reshape(x, {6})));
  });
}

TEST(Tensor, SoftmaxRowsSumToOne) {
  Rng rng(11);
  auto x = Tensor::randn({3, 5}, rng, 2.0f);
  auto s = softmax_lastdim(x);
  for (int r = 0; r < 3; ++r) {
    float sum = 0;
    for (int c = 0; c < 5; ++c) sum += s.data()[r * 5 + c];
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  grad_check(x, [](const Tensor& t) {
    auto w = Tensor::from({3, 5}, std::vector<float>(15, 0.0f));
    w.data()[2] = 1.0f;
    w.data()[7] = -2.0f;
    return sum_all(mul(softmax_lastdim(t), w));
  });
}

TEST(Tensor, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(13);
  auto x = Tensor::randn({2, 4}, rng, 1.5f);
  auto ls = log_softmax_lastdim(x);
  auto s = softmax_lastdim(x);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(ls.data()[i], std::log(s.data()[i]), 1e-5);
  }
  grad_check(x, [](const Tensor& t) {
    auto w = Tensor::from({2, 4}, {1, 0, -1, 2, 0.5f, 1, 0, -2});
    return sum_all(mul(log_softmax_lastdim(t), w));
  });
}

TEST(Tensor, LayernormNormalizes) {
  Rng rng(14);
  auto x = Tensor::randn({4, 8}, rng, 3.0f);
  auto gamma = Tensor::full({8}, 1.0f);
  auto beta = Tensor::zeros({8});
  auto y = layernorm(x, gamma, beta);
  for (int r = 0; r < 4; ++r) {
    float mu = 0, var = 0;
    for (int c = 0; c < 8; ++c) mu += y.data()[r * 8 + c];
    mu /= 8;
    for (int c = 0; c < 8; ++c) {
      const float d = y.data()[r * 8 + c] - mu;
      var += d * d;
    }
    EXPECT_NEAR(mu, 0.0f, 1e-4);
    EXPECT_NEAR(var / 8, 1.0f, 1e-2);
  }
}

TEST(Tensor, LayernormGradAllInputs) {
  Rng rng(15);
  auto x = Tensor::randn({2, 4}, rng, 1.0f);
  auto gamma = Tensor::randn({4}, rng, 0.3f);
  auto beta = Tensor::randn({4}, rng, 0.3f);
  auto wrap = [&](const Tensor& t) {
    return sum_all(square(layernorm(t, gamma, beta)));
  };
  grad_check(x, wrap, 5e-2f);
  grad_check(gamma, [&](const Tensor& g) {
    return sum_all(square(layernorm(x, g, beta)));
  });
  grad_check(beta, [&](const Tensor& bb) {
    return sum_all(square(layernorm(x, gamma, bb)));
  });
}

TEST(Tensor, EmbeddingGatherAndScatter) {
  auto table = Tensor::from({3, 2}, {1, 2, 3, 4, 5, 6}, true);
  auto e = embedding(table, {2, 0, 2}, 1, 3);
  EXPECT_EQ(e.shape(), (Shape{1, 3, 2}));
  EXPECT_EQ(e.data()[0], 5.0f);
  EXPECT_EQ(e.data()[2], 1.0f);
  grad_check(table, [](const Tensor& t) {
    return sum_all(square(embedding(t, {2, 0, 2}, 1, 3)));
  });
}

TEST(Tensor, CrossEntropyValueAndGrad) {
  // Uniform logits over V=4: loss = log(4).
  auto logits = Tensor::zeros({2, 4}, true);
  auto loss = cross_entropy(logits, {1, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5);
  Rng rng(16);
  auto x = Tensor::randn({3, 5}, rng, 1.0f);
  grad_check(x, [](const Tensor& t) {
    return cross_entropy(t, {0, 2, 4});
  });
}

TEST(Tensor, CrossEntropyIgnoreIndex) {
  auto logits = Tensor::from({2, 2}, {10, 0, 0, 10}, true);
  // Second row ignored: loss comes from row 0 only.
  auto loss = cross_entropy(logits, {0, -1}, -1);
  EXPECT_NEAR(loss.item(), 0.0f, 1e-3);
  loss.backward();
  // Ignored row gets zero grad.
  EXPECT_FLOAT_EQ(logits.grad()[2], 0.0f);
  EXPECT_FLOAT_EQ(logits.grad()[3], 0.0f);
}

TEST(Tensor, GatherLastdim) {
  auto x = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6}, true);
  auto g = gather_lastdim(x, {2, 0});
  EXPECT_EQ(g.data()[0], 3.0f);
  EXPECT_EQ(g.data()[1], 4.0f);
  grad_check(x, [](const Tensor& t) {
    return sum_all(square(gather_lastdim(t, {2, 0})));
  });
}

TEST(Tensor, DropoutTrainAndEval) {
  Rng rng(17);
  auto x = Tensor::full({1000}, 1.0f, true);
  auto y = dropout(x, 0.5f, rng, true);
  int zeros = 0;
  for (float v : y.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 2.0f, 1e-6);  // inverted scaling
    }
  }
  EXPECT_NEAR(zeros, 500, 80);
  // Eval mode: identity (same node).
  auto z = dropout(x, 0.5f, rng, false);
  EXPECT_EQ(z.node().get(), x.node().get());
}

TEST(Tensor, GradAccumulatesOnReuse) {
  auto x = Tensor::from({1}, {3.0f}, true);
  auto y = add(x, x);  // dy/dx = 2
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(Tensor, DetachStopsGradient) {
  auto x = Tensor::from({2}, {1.0f, 2.0f}, true);
  auto d = x.detach();
  EXPECT_FALSE(d.requires_grad());
  auto loss = sum_all(mul(x, d));
  loss.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 2.0f);
}

// --- optim -----------------------------------------------------------------

TEST(Optim, AdamWFitsLinearRegression) {
  // Fit y = 2x + 1 from 16 points.
  Rng rng(18);
  std::vector<float> xs(16), ys(16);
  for (int i = 0; i < 16; ++i) {
    xs[static_cast<std::size_t>(i)] = static_cast<float>(i) / 8.0f - 1.0f;
    ys[static_cast<std::size_t>(i)] = 2.0f * xs[static_cast<std::size_t>(i)] + 1.0f;
  }
  auto w = Tensor::from({1}, {0.0f}, true);
  auto b = Tensor::from({1}, {0.0f}, true);
  AdamW opt({w, b}, {.lr = 0.05f});
  for (int step = 0; step < 400; ++step) {
    opt.zero_grad();
    auto x = Tensor::from({16}, xs);
    auto y = Tensor::from({16}, ys);
    auto pred = add(mul(x, w), b);
    auto loss = mean_all(square(sub(pred, y)));
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(w.data()[0], 2.0f, 0.05f);
  EXPECT_NEAR(b.data()[0], 1.0f, 0.05f);
}

// ------------------------------------------------------------ storage cache

// 256 KiB of floats: well above the 64 KiB the cache starts at.
constexpr int kBig = 64 * 1024;

std::int64_t storage_blocks(const std::string& what) {
  return obs::counter("tensor.storage." + what).value();
}

void expect_under_peak(const char* where) {
  const StorageStats s = storage_stats();
  EXPECT_LE(s.live_bytes + s.cached_bytes, s.peak_live_bytes) << where;
}

TEST(TensorStorage, ReusedBlockReadsAsZeros) {
  // Earlier tests in this process may have left blocks in the cache that
  // a kBig request would take first. Hold every one of them: acquire
  // until a request maps a fresh block, so the only fitting cached block
  // below is the one `garbage` releases.
  std::vector<Tensor> held;
  const std::int64_t mapped0 = storage_blocks("mapped");
  while (storage_blocks("mapped") == mapped0) {
    held.push_back(Tensor::zeros({kBig}));
  }
  const float* garbage_at = nullptr;
  {
    const Tensor garbage = Tensor::full({kBig}, -7.0f);
    garbage_at = garbage.data().data();
  }
  const std::int64_t reused0 = storage_blocks("reused");
  const Tensor z = Tensor::zeros({kBig});
  EXPECT_EQ(z.data().data(), garbage_at);
  EXPECT_EQ(storage_blocks("reused"), reused0 + 1);
  for (float v : z.data()) ASSERT_EQ(v, 0.0f);

  // A gradient buffer, allocated on first access, reads as zeros too.
  Tensor p = Tensor::full({kBig}, 1.0f, true);
  { const Tensor garbage = Tensor::full({kBig}, 3.0f); }
  for (float g : p.grad()) ASSERT_EQ(g, 0.0f);
}

/// One training step of a small attention-like graph at sequence length
/// T: embedding, layernorm, causal attention, MLP with dropout, output
/// projection, cross-entropy, backward and AdamW. Checks the cache bound
/// after forward, after backward and after the graph dies.
struct MiniModel {
  static constexpr int kB = 8, kC = 64, kV = 96;
  Rng rng{17};
  std::vector<Tensor> params{
      Tensor::randn({kV, kC}, rng, 0.1f), Tensor::full({kC}, 1.0f, true),
      Tensor::zeros({kC}, true), Tensor::randn({kC, 4 * kC}, rng, 0.1f),
      Tensor::randn({4 * kC, kV}, rng, 0.1f)};
  AdamW opt{params, {}};

  void step(int T) {
    std::vector<int> tokens(static_cast<std::size_t>(kB * T));
    for (auto& t : tokens) t = static_cast<int>(rng.index(kV));
    {
      opt.zero_grad();
      Tensor x = embedding(params[0], tokens, kB, T);
      Tensor h = layernorm(x, params[1], params[2]);
      h = add(x, causal_attention(h, h, h, 2));
      h = dropout(gelu(matmul(h, params[3])), 0.1f, rng, true);
      Tensor logits = reshape(matmul(h, params[4]), {kB * T, kV});
      Tensor loss = cross_entropy(logits, tokens);
      expect_under_peak("after forward");
      loss.backward();
      expect_under_peak("after backward");
      opt.step();
    }
    expect_under_peak("after the graph died");
  }
};

TEST(TensorStorage, LivePlusCachedStaysUnderPeakLiveTotal) {
  MiniModel m;
  const std::int64_t reused0 = storage_blocks("reused");
  for (int T : {40, 96, 64, 128, 48, 112, 80, 128, 32, 100}) m.step(T);
  EXPECT_GT(storage_blocks("reused"), reused0);
}

TEST(TensorStorage, SecondIdenticalStepMapsNoBlock) {
  MiniModel m;
  m.step(96);
  const std::int64_t mapped = storage_blocks("mapped");
  const std::int64_t reused = storage_blocks("reused");
  m.step(96);
  EXPECT_EQ(storage_blocks("mapped"), mapped);
  EXPECT_GT(storage_blocks("reused"), reused);
}

TEST(TensorStorage, TensorsFreedOnPoolWorkers) {
  eva::set_num_threads(4);
  const std::size_t live0 = storage_stats().live_bytes;
  std::vector<Tensor> ts(32);
  for (int round = 0; round < 4; ++round) {
    const auto value = [round](std::size_t i) {
      return static_cast<float>(round * 100 + static_cast<int>(i));
    };
    eva::parallel_for(0, ts.size(), [&](std::size_t i) {
      ts[i] = Tensor::full({kBig + static_cast<int>(i % 5) * 4096}, value(i));
    });
    for (std::size_t i = 0; i < ts.size(); ++i) {
      for (float v : ts[i].data()) ASSERT_EQ(v, value(i));
    }
    eva::parallel_for(0, ts.size(), [&](std::size_t i) { ts[i] = Tensor(); });
    expect_under_peak("after a round");
  }
  EXPECT_EQ(storage_stats().live_bytes, live0);
  eva::set_num_threads(0);
}

// ------------------------------------------------ training elementwise ops

std::vector<float> seeded(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

TEST(Tensor, BroadcastOpsMatchModuloReference) {
  struct Op {
    char sym;
    Tensor (*fn)(const Tensor&, const Tensor&);
  };
  const Op ops[] = {{'+', add}, {'-', sub}, {'*', mul}};
  const Shape a_shape{6, 40, 48};
  const std::size_t n = shape_numel(a_shape);
  const Shape b_shapes[] = {a_shape, {48}, {40, 48}, {1}};
  const std::vector<float> pa = seeded(n, 1);
  const std::vector<float> w = seeded(n, 3);  // upstream gradient
  eva::set_num_threads(4);  // several chunks, on pool workers
  for (const Op& op : ops) {
    for (const Shape& bs : b_shapes) {
      const std::size_t bsz = shape_numel(bs);
      const std::vector<float> pb = seeded(bsz, 2);
      Tensor a = Tensor::from(a_shape, pa, true);
      Tensor b = Tensor::from(bs, pb, true);
      const Tensor out = op.fn(a, b);
      // The product's backward hands `out` exactly w as its gradient.
      sum_all(mul(out, Tensor::from(a_shape, w))).backward();

      std::vector<float> fwd(n), ga(n, 0.0f), gb(bsz, 0.0f);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = i % bsz;
        switch (op.sym) {
          case '+':
            fwd[i] = pa[i] + pb[j];
            ga[i] += w[i];
            gb[j] += w[i];
            break;
          case '-':
            fwd[i] = pa[i] - pb[j];
            ga[i] += w[i];
            gb[j] -= w[i];
            break;
          default:
            fwd[i] = pa[i] * pb[j];
            ga[i] += w[i] * pb[j];
            gb[j] += w[i] * pa[i];
            break;
        }
      }
      const std::string where =
          "a " + std::string(1, op.sym) + " b, b " + shape_str(bs);
      EXPECT_EQ(bits(out.data()), bits(fwd)) << where;
      EXPECT_EQ(bits(a.grad()), bits(ga)) << where;
      EXPECT_EQ(bits(b.grad()), bits(gb)) << where;
    }
  }
  eva::set_num_threads(0);
}

/// Loss and every parameter gradient, as bits, of one training step of a
/// small two-head causal attention + MLP block whose elementwise ops cover
/// every operand kind: a (T,C) position table, (C) and (4C) biases, a (C)
/// gate, a scalar attention scale and same-shape residuals.
std::vector<std::vector<std::uint32_t>> attention_mlp_step() {
  constexpr int kB = 4, kT = 48, kC = 32, kV = 40;
  Rng rng(29);
  const std::vector<Tensor> params{
      Tensor::randn({kV, kC}, rng, 0.1f),      // token embedding
      Tensor::randn({kT, kC}, rng, 0.1f),      // positions
      Tensor::full({kC}, 1.0f, true),          // layernorm gamma
      Tensor::zeros({kC}, true),               // layernorm beta
      Tensor::randn({kC, kC}, rng, 0.2f),      // query
      Tensor::randn({kC, kC}, rng, 0.2f),      // key
      Tensor::randn({kC, 4 * kC}, rng, 0.1f),  // MLP in
      Tensor::randn({4 * kC}, rng, 0.1f),      // its bias
      Tensor::randn({4 * kC, kC}, rng, 0.1f),  // MLP out
      Tensor::randn({kC}, rng, 0.1f),          // its bias
      Tensor::randn({kC}, rng, 0.5f),          // gate
      Tensor::randn({kC, kV}, rng, 0.1f)};     // output
  std::vector<int> tokens(static_cast<std::size_t>(kB * kT));
  for (auto& t : tokens) t = static_cast<int>(rng.index(kV));

  const Tensor x = add(embedding(params[0], tokens, kB, kT), params[1]);
  Tensor h = layernorm(x, params[2], params[3]);
  const Tensor att = causal_attention(matmul(h, params[4]),
                                      matmul(h, params[5]), h, 2);
  h = add(x, mul(att, Tensor::scalar(0.18f)));
  const Tensor m = add(
      matmul(gelu(add(matmul(h, params[6]), params[7])), params[8]),
      params[9]);
  h = mul(sub(h, m), params[10]);
  Tensor loss = cross_entropy(reshape(matmul(h, params[11]), {kB * kT, kV}),
                              tokens);
  loss.backward();

  std::vector<std::vector<std::uint32_t>> out{bits(loss.data())};
  for (const Tensor& p : params) out.push_back(bits(p.grad()));
  return out;
}

TEST(Tensor, TrainingStepBitwiseAcrossPoolWidths) {
  eva::set_num_threads(1);
  const auto serial = attention_mlp_step();
  eva::set_num_threads(4);
  const auto pooled = attention_mlp_step();
  eva::set_num_threads(0);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_TRUE(serial[k] == pooled[k])
        << (k == 0 ? std::string("loss")
                   : "gradient of parameter " + std::to_string(k - 1));
  }
}

// ------------------------------------------------------------- linear

/// Values with a few signed zeros among them: a -0 upstream gradient is
/// where the chain's copy 0 + g of it differs from g.
std::vector<float> seeded_with_zeros(std::size_t n, std::uint64_t seed) {
  std::vector<float> v = seeded(n, seed);
  for (std::size_t i = 0; i < n; i += 7) v[i] = i % 2 ? -0.0f : 0.0f;
  return v;
}

using Affine = Tensor (*)(const Tensor&, const Tensor&, const Tensor&);

Tensor matmul_add(const Tensor& x, const Tensor& w, const Tensor& b) {
  return add(matmul(x, w), b);
}

/// The outputs of `affine` on one x and three (W, b) pairs, and the x,
/// W and b gradients, as bits, backpropagated from the sum of each output
/// times a seeded weight: x's gradient takes its three contributions in
/// the order the tape gives the three nodes.
std::vector<std::vector<std::uint32_t>> affine_bits(Affine affine,
                                                    const Shape& xs, int N) {
  const int K = xs.back();
  const auto seed = static_cast<std::uint64_t>(xs.size() * 1000 + K * 7 + N);
  const Tensor x =
      Tensor::from(xs, seeded_with_zeros(shape_numel(xs), seed), true);
  Shape os = xs;
  os.back() = N;
  const std::size_t on = shape_numel(os);
  std::vector<std::vector<std::uint32_t>> out;
  std::vector<Tensor> params;
  Tensor loss;
  for (std::uint64_t l = 1; l <= 3; ++l) {
    const auto ks = static_cast<std::size_t>(K);
    const auto ns = static_cast<std::size_t>(N);
    const Tensor w = Tensor::from({K, N}, seeded(ks * ns, seed + 10 * l), true);
    const Tensor b = Tensor::from({N}, seeded(ns, seed + 10 * l + 1), true);
    const Tensor y = affine(x, w, b);
    out.push_back(bits(y.data()));
    const Tensor term = sum_all(
        mul(y, Tensor::from(os, seeded_with_zeros(on, seed + 10 * l + 2))));
    loss = l == 1 ? term : add(loss, term);
    params.push_back(w);
    params.push_back(b);
  }
  loss.backward();
  out.push_back(bits(x.grad()));
  for (const Tensor& p : params) out.push_back(bits(p.grad()));
  return out;
}

TEST(Tensor, LinearMatchesMatmulAddChainBitwise) {
  const char* what[] = {"output 1",   "output 2",   "output 3",
                        "x gradient", "W1 gradient", "b1 gradient",
                        "W2 gradient", "b2 gradient", "W3 gradient",
                        "b3 gradient"};
  for (const std::size_t width : {1, 4}) {
    eva::set_num_threads(width);
    // One K-panel, two (257) and three (600); kNr-sized, ragged and LM-head
    // column counts.
    for (const int K : {1, 3, 64, 256, 257, 600}) {
      for (const int N : {1, 5, 32, 33, 190, 256}) {
        for (const Shape& xs : {Shape{17, K}, Shape{3, 7, K}}) {
          const auto op = affine_bits(linear, xs, N);
          const auto chain = affine_bits(matmul_add, xs, N);
          ASSERT_EQ(op.size(), chain.size());
          for (std::size_t i = 0; i < op.size(); ++i) {
            EXPECT_TRUE(op[i] == chain[i])
                << what[i] << ", x " << shape_str(xs) << ", N " << N
                << ", pool width " << width;
          }
        }
      }
    }
  }
  eva::set_num_threads(0);
}

TEST(Tensor, LinearRejectsShapesOtherThanXWPlusB) {
  const auto t = [](Shape s) { return Tensor::zeros(std::move(s)); };
  EXPECT_NO_THROW((void)linear(t({2, 3, 4}), t({4, 5}), t({5})));
  EXPECT_THROW((void)linear(t({4}), t({4, 5}), t({5})), eva::Error);
  EXPECT_THROW((void)linear(t({1, 2, 3, 4}), t({4, 5}), t({5})), eva::Error);
  EXPECT_THROW((void)linear(t({2, 3}), t({4, 5}), t({5})), eva::Error);
  EXPECT_THROW((void)linear(t({2, 4}), t({2, 4, 5}), t({5})), eva::Error);
  EXPECT_THROW((void)linear(t({2, 4}), t({4, 5}), t({6})), eva::Error);
  EXPECT_THROW((void)linear(t({2, 4}), t({4, 5}), t({1, 5})), eva::Error);
  try {
    (void)linear(t({2, 3}), t({4, 5}), t({5}));
  } catch (const eva::Error& e) {
    EXPECT_NE(std::string(e.what()).find("(2,3)"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("(4,5)"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- causal attention

using Attend = Tensor (*)(const Tensor&, const Tensor&, const Tensor&, int);

/// The output and the q, k and v gradients, as bits, of `attend` on seeded
/// (B,T,heads*D) projections, backpropagated from sum(out * w) so that the
/// output's gradient is exactly the seeded w.
std::vector<std::vector<std::uint32_t>> attention_bits(Attend attend, int B,
                                                       int heads, int D,
                                                       int T) {
  const Shape shape{B, T, heads * D};
  const std::size_t n = shape_numel(shape);
  const auto seed =
      static_cast<std::uint64_t>(((B * 7 + heads) * 97 + D) * 331 + T);
  const Tensor q = Tensor::from(shape, seeded(n, seed), true);
  const Tensor k = Tensor::from(shape, seeded(n, seed + 1), true);
  const Tensor v = Tensor::from(shape, seeded(n, seed + 2), true);
  const Tensor out = attend(q, k, v, heads);
  sum_all(mul(out, Tensor::from(shape, seeded(n, seed + 3)))).backward();
  return {bits(out.data()), bits(q.grad()), bits(k.grad()), bits(v.grad())};
}

class CausalAttentionBitwise : public ::testing::TestWithParam<int> {};

// Row tiles of 8 and K-panels of 256: lengths on, next to and across both.
INSTANTIATE_TEST_SUITE_P(SeqLen, CausalAttentionBitwise,
                         ::testing::Values(1, 2, 7, 8, 9, 31, 33, 100, 255,
                                           256, 257, 300));

TEST_P(CausalAttentionBitwise, MatchesTheChainItReplaced) {
  const int T = GetParam();
  const char* what[] = {"output", "q gradient", "k gradient", "v gradient"};
  for (int B : {1, 3}) {
    for (int heads : {1, 2, 6}) {
      for (int D : {16, 32, 64}) {
        const auto op = attention_bits(causal_attention, B, heads, D, T);
        const auto ref =
            attention_bits(reference::causal_attention, B, heads, D, T);
        for (std::size_t i = 0; i < op.size(); ++i) {
          EXPECT_TRUE(op[i] == ref[i]) << what[i] << " at B " << B << ", "
                                       << heads << " heads, D " << D;
        }
      }
    }
  }
}

TEST(CausalAttention, LaterKeysAndValuesLeaveEarlierRowsBitwiseUnchanged) {
  constexpr int kB = 2, kT = 19, kHeads = 2, kC = 16;
  const Shape shape{kB, kT, kC};
  const std::size_t n = shape_numel(shape);
  const std::vector<float> q = seeded(n, 61), k = seeded(n, 62),
                           v = seeded(n, 63);
  const auto attend = [&](const std::vector<float>& k2,
                          const std::vector<float>& v2) {
    const Tensor out =
        causal_attention(Tensor::from(shape, q), Tensor::from(shape, k2),
                         Tensor::from(shape, v2), kHeads);
    return std::vector<float>(out.data().begin(), out.data().end());
  };
  const std::vector<float> base = attend(k, v);
  for (int t : {0, 7, 8, 18}) {
    for (bool at_v : {false, true}) {
      std::vector<float> k2 = k, v2 = v;
      std::vector<float>& changed = at_v ? v2 : k2;
      for (int b = 0; b < kB; ++b) {
        for (int c = 0; c < kC; ++c) changed[(b * kT + t) * kC + c] += 1.5f;
      }
      const std::vector<float> out = attend(k2, v2);
      const std::string where =
          std::string(at_v ? "v" : "k") + " changed at " + std::to_string(t);
      for (int b = 0; b < kB; ++b) {
        const std::size_t row = static_cast<std::size_t>(b * kT * kC);
        const std::size_t split = row + static_cast<std::size_t>(t * kC);
        const std::size_t end = row + static_cast<std::size_t>(kT * kC);
        EXPECT_EQ(bits({out.data() + row, split - row}),
                  bits({base.data() + row, split - row}))
            << where << ", batch " << b;
        // Row t itself sees the change (at t = 0 a k change cancels out
        // of a one-entry softmax, so only v counts there).
        if (at_v || t > 0) {
          EXPECT_NE(bits({out.data() + split, end - split}),
                    bits({base.data() + split, end - split}))
              << where << ", batch " << b;
        }
      }
    }
  }
}

TEST(CausalAttention, FiniteDifferenceGradients) {
  for (int T : {1, 3, 9}) {
    for (int heads : {1, 2}) {
      const Shape shape{2, T, 4};
      const std::size_t n = shape_numel(shape);
      const auto seed = static_cast<std::uint64_t>(70 + 10 * T + heads);
      Tensor q = Tensor::from(shape, seeded(n, seed), true);
      Tensor k = Tensor::from(shape, seeded(n, seed + 1), true);
      Tensor v = Tensor::from(shape, seeded(n, seed + 2), true);
      const Tensor w = Tensor::from(shape, seeded(n, seed + 3));
      SCOPED_TRACE("T " + std::to_string(T) + ", " + std::to_string(heads) +
                   " heads");
      grad_check(q, [&](const Tensor& x) {
        return sum_all(mul(causal_attention(x, k, v, heads), w));
      });
      grad_check(k, [&](const Tensor& x) {
        return sum_all(mul(causal_attention(q, x, v, heads), w));
      });
      grad_check(v, [&](const Tensor& x) {
        return sum_all(mul(causal_attention(q, k, x, heads), w));
      });
    }
  }
}

TEST(CausalAttention, RejectsHeadsThatDoNotDivideChannelsAndUnequalShapes) {
  const Tensor x = Tensor::zeros({2, 5, 6});
  EXPECT_NO_THROW((void)causal_attention(x, x, x, 3));
  EXPECT_THROW((void)causal_attention(x, x, x, 4), eva::Error);
  EXPECT_THROW((void)causal_attention(x, x, x, 0), eva::Error);
  const Tensor longer = Tensor::zeros({2, 6, 6});
  const Tensor wider = Tensor::zeros({2, 5, 12});
  const Tensor batched = Tensor::zeros({3, 5, 6});
  EXPECT_THROW((void)causal_attention(x, longer, x, 2), eva::Error);
  EXPECT_THROW((void)causal_attention(x, x, wider, 2), eva::Error);
  EXPECT_THROW((void)causal_attention(batched, x, x, 2), eva::Error);
  const Tensor flat = Tensor::zeros({10, 6});
  EXPECT_THROW((void)causal_attention(flat, flat, flat, 2), eva::Error);
}

TEST(CausalAttention, CountsTheFlopsOfTheTilesItRuns) {
  // B 2, T 19, 2 heads of D 8. Rows go in tiles of 8, 8 and 3, which
  // reach columns 8, 16 and 19, so each of the six products (QK^T and
  // P V forward; dP, dQ, dK and dV backward) runs 8*8 + 8*16 + 3*19 = 249
  // rows x columns per head, times D multiply-adds of 2 FLOPs. The full
  // square would be 19*19 = 361.
  constexpr int kB = 2, kT = 19, kHeads = 2, kD = 8;
  const Shape shape{kB, kT, kHeads * kD};
  const std::size_t n = shape_numel(shape);
  const Tensor q = Tensor::from(shape, seeded(n, 81), true);
  const Tensor k = Tensor::from(shape, seeded(n, 82), true);
  const Tensor v = Tensor::from(shape, seeded(n, 83), true);
  obs::Counter& flops = obs::counter("tensor.gemm_flops");
  const std::int64_t per_product = 2 * kB * kHeads * kD * 249;
  std::int64_t before = flops.value();
  const Tensor out = causal_attention(q, k, v, kHeads);
  EXPECT_EQ(flops.value() - before, 2 * per_product) << "forward";
  before = flops.value();
  sum_all(out).backward();
  EXPECT_EQ(flops.value() - before, 4 * per_product) << "backward";
  // Without a gradient for q and k only P V and dV remain.
  before = flops.value();
  const Tensor v2 = Tensor::from(shape, seeded(n, 83), true);
  sum_all(causal_attention(q.detach(), k.detach(), v2, kHeads)).backward();
  EXPECT_EQ(flops.value() - before, 3 * per_product) << "v alone";
}

/// GELU's value and derivative as written before the forward pass kept
/// tanh(u): each recomputes it from x.
float gelu_recomputed(float x) {
  constexpr float kC = 0.7978845608028654f;
  constexpr float kA = 0.044715f;
  const float u = kC * (x + kA * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(u));
}

float gelu_grad_recomputed(float x) {
  constexpr float kC = 0.7978845608028654f;
  constexpr float kA = 0.044715f;
  const float u = kC * (x + kA * x * x * x);
  const float t = std::tanh(u);
  const float du = kC * (1.0f + 3.0f * kA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}

TEST(Tensor, GeluMatchesRecomputedTanhBitwise) {
  std::vector<float> xs{0.0f, 1e-3f, -1e-3f, 3.0f,  -3.0f,
                        10.0f, -10.0f, 1e4f,  -1e4f};
  Rng rng(41);
  while (xs.size() < 4096) xs.push_back(static_cast<float>(rng.normal()) * 2);
  const std::size_t n = xs.size();
  const std::vector<float> up = seeded(n, 43);  // upstream gradient
  std::vector<float> y_ref(n), g_ref(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    y_ref[i] = gelu_recomputed(xs[i]);
    g_ref[i] += up[i] * gelu_grad_recomputed(xs[i]);
  }

  eva::set_num_threads(4);
  Tensor x = Tensor::from({64, 64}, xs, true);
  const Tensor y = gelu(x);
  sum_all(mul(y, Tensor::from({64, 64}, up))).backward();
  const Tensor y_no_grad = gelu(x.detach());
  eva::set_num_threads(0);
  EXPECT_EQ(bits(y.data()), bits(y_ref));
  EXPECT_EQ(bits(x.grad()), bits(g_ref));
  EXPECT_EQ(bits(y_no_grad.data()), bits(y_ref));
}

TEST(Tensor, GeluKeepsTanhOnlyForGrad) {
  const auto acquired = [] {
    return storage_blocks("reused") + storage_blocks("mapped");
  };
  // Large enough that every block here goes through the storage cache.
  constexpr int kN = 3 * kBig;
  const Tensor x = Tensor::full({kN}, 0.5f);
  const std::size_t live0 = storage_stats().live_bytes;
  std::int64_t blocks0 = acquired();
  Tensor y = gelu(x);
  EXPECT_EQ(acquired(), blocks0 + 1);  // the output, no side buffer
  y = Tensor();
  EXPECT_EQ(storage_stats().live_bytes, live0);  // the output was all

  // With grad the kept tanh(u) is a second block of the output's size.
  const Tensor xg = Tensor::full({kN}, 0.5f, true);
  blocks0 = acquired();
  const Tensor yg = gelu(xg);
  EXPECT_EQ(acquired(), blocks0 + 2);
}

TEST(Tensor, BackwardRecordsASpanPerOp) {
  obs::clear_trace();
  obs::set_trace_enabled(true);
  Tensor x = Tensor::from({4}, {-1.0f, 0.0f, 0.5f, 2.0f}, true);
  sum_all(gelu(x)).backward();
  obs::set_trace_enabled(false);
  const std::string json = obs::trace_to_json();
  obs::clear_trace();
  EXPECT_NE(json.find("{\"name\":\"gelu\""), std::string::npos) << json;
  EXPECT_NE(json.find("{\"name\":\"sum\""), std::string::npos) << json;
}

// --- GELU's tanh in lanes ---------------------------------------------------
//
// tanh_n runs fdlibm's tanhf in kTanhLanes lanes. It must equal the scalar
// port in tanh_reference.cpp bit for bit on every build, and that port
// must equal glibc's tanhf (std::tanh), which GELU called before.

std::uint32_t word(float x) { return std::bit_cast<std::uint32_t>(x); }
float from_word(std::uint32_t w) { return std::bit_cast<float>(w); }

/// A lane function and the scalar function each of its lanes must equal.
struct LaneFunction {
  const char* name;
  void (*lanes)(const float*, float*, std::size_t);
  std::size_t width;
  const char* scalar_name;
  float (*scalar)(float);
};

const LaneFunction kTanh{"tanh_n", tanh_n, kTanhLanes, "reference",
                         eva::test::tanhf_reference};
const LaneFunction kExp{"exp_n", exp_n, kExpLanes, "std::exp",
                        [](float x) { return std::exp(x); }};

/// Every `stride`th bit pattern from 0 up, handed to `check` 2^20 at a
/// time: floats of every exponent, both signs, Inf and NaN included.
template <class Check>
void strided_sweep(std::uint64_t stride, Check check) {
  constexpr std::size_t kBlock = std::size_t{1} << 20;
  std::vector<float> xs;
  xs.reserve(kBlock);
  for (std::uint64_t w = 0; w < (std::uint64_t{1} << 32); w += stride) {
    xs.push_back(from_word(static_cast<std::uint32_t>(w)));
    if (xs.size() == kBlock) {
      check(xs);
      xs.clear();
    }
  }
  if (!xs.empty()) check(xs);
}

/// f's lanes over all of `xs` at once, compared with its scalar function;
/// names the first few differing inputs.
void expect_lanes_match(const LaneFunction& f, const std::vector<float>& xs,
                        const std::string& what) {
  std::vector<float> got(xs.size());
  f.lanes(xs.data(), got.data(), xs.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const float want = f.scalar(xs[i]);
    if (word(got[i]) == word(want)) continue;
    if (++bad <= 5) {
      ADD_FAILURE() << what << ": " << f.name << "(0x" << std::hex
                    << word(xs[i]) << ") = 0x" << word(got[i]) << ", "
                    << f.scalar_name << " 0x" << word(want);
    }
  }
  EXPECT_EQ(bad, 0u) << what << ": " << bad << " of " << xs.size()
                     << " differ at " << f.width << " lanes, glibc "
                     << gnu_get_libc_version();
}

TEST(TanhLanes, MatchReferenceOnStridedSweep) {
  // Every 509th bit pattern: 8.4M floats.
  strided_sweep(509, [](const std::vector<float>& xs) {
    expect_lanes_match(kTanh, xs, "strided sweep");
  });
}

TEST(TanhReference, MatchesStdTanhOnStridedSweep) {
  std::size_t bad = 0;
  strided_sweep(509, [&bad](const std::vector<float>& xs) {
    for (const float x : xs) {
      const float want = std::tanh(x);
      const float got = eva::test::tanhf_reference(x);
      if (word(got) == word(want)) continue;
      if (++bad <= 5) {
        ADD_FAILURE() << "reference(0x" << std::hex << word(x) << ") = 0x"
                      << word(got) << ", std::tanh 0x" << word(want);
      }
    }
  });
  EXPECT_EQ(bad, 0u)
      << "the reference ports glibc 2.36's tanhf (fdlibm); this libm is glibc "
      << gnu_get_libc_version()
      << ", whose tanhf differs, so GELU's values differ from std::tanh's";
}

TEST(TanhLanes, MatchReferenceOverGeluRange) {
  // GELU hands tanh u = sqrt(2/pi) (x + 0.044715 x^3); tanhf reaches +-1
  // at |u| ~ 9. Every 23rd float with 2^-12 <= |u| < 16, both signs.
  std::vector<float> xs;
  for (std::uint32_t w = word(0x1p-12f); w < word(16.0f); w += 23) {
    xs.push_back(from_word(w));
    xs.push_back(-from_word(w));
  }
  expect_lanes_match(kTanh, xs, "GELU range");
}

TEST(TanhLanes, MatchReferenceAtBranchThresholds) {
  // tanhf's own thresholds on |x|: 2^-55, 1, 22, Inf.
  std::vector<std::uint32_t> edges{0x24000000u, 0x3f800000u, 0x41b00000u,
                                   0x7f800000u};
  // expm1f's thresholds on |a| (0.5 ln2, 1.5 ln2, 2^-25, 27 ln2, 88.7)
  // reach tanhf through a = +-2|x|, at half of each: one exponent less.
  for (const std::uint32_t a : {0x3eb17218u, 0x3f851592u, 0x33000000u,
                                0x4195b844u, 0x42b17218u}) {
    edges.push_back(a - 0x00800000u);
  }
  // expm1f's reduction multiple k = (int)(a/ln2 +- 1/2) picks among its
  // finishing branches (k < 23, k > 56, k <= -2): the first float of
  // every k tanhf reaches, found by bisection on |x| in [0.25 ln2, 22).
  const auto k_of = [](std::uint32_t w) {
    const float ax = from_word(w);
    const float a = ax >= 1.0f ? 2.0f * ax : -2.0f * ax;
    return static_cast<int>(1.4426950216f * a + (a < 0 ? -0.5f : 0.5f));
  };
  const std::uint32_t lo_w = 0x3e317218u, hi_w = 0x41b00000u;
  for (std::uint32_t w = lo_w; w < hi_w;) {
    const int k = k_of(w);
    std::uint32_t lo = w, hi = hi_w;  // first word whose k differs
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      (k_of(mid) == k ? lo : hi) = mid;
    }
    edges.push_back(hi);
    w = hi;
  }
  std::vector<float> xs;
  for (const std::uint32_t e : edges) {
    for (std::uint32_t w = e - 16; w <= e + 16; ++w) {
      xs.push_back(from_word(w));
      xs.push_back(from_word(w | 0x80000000u));
    }
  }
  expect_lanes_match(kTanh, xs, "branch thresholds");
}

TEST(TanhLanes, MatchReferenceAtZerosDenormalsInfinitiesAndNaNs) {
  std::vector<float> xs;
  for (const std::uint32_t w :
       {0x00000000u, 0x00000001u, 0x00000002u, 0x0000ffffu, 0x00400000u,
        0x007ffffeu, 0x007fffffu, 0x00800000u, 0x7f7fffffu, 0x7f800000u,
        0x7f800001u, 0x7fa00000u, 0x7fbfffffu, 0x7fc00000u, 0x7fc12345u,
        0x7fffffffu}) {
    xs.push_back(from_word(w));
    xs.push_back(from_word(w | 0x80000000u));
  }
  expect_lanes_match(kTanh, xs, "special values");
}

/// f at every length from 0 to three vectors and every offset within one:
/// into buffers that end at n, into slack past n that must keep its
/// sentinels, and in place.
void expect_every_length_and_offset_touches_only_its_range(
    const LaneFunction& f) {
  const std::size_t lanes = f.width;
  // Inputs from every branch, all distinct, so a lane read from the
  // wrong element or left over from an earlier vector shows; 4 more than
  // five vectors, so the specials fit at one lane too.
  std::vector<float> pool;
  Rng rng(7);
  for (std::size_t i = 0; pool.size() < 5 * lanes + 4; ++i) {
    const float mag = static_cast<float>(rng.uniform()) * (i % 3 == 0 ? 30 : 2);
    pool.push_back(i % 2 ? -mag : mag);
  }
  pool[1] = std::numeric_limits<float>::infinity();
  pool[lanes + 2] = std::numeric_limits<float>::quiet_NaN();
  pool[2 * lanes + 3] = 0x1p-60f;
  const float sentinel = from_word(0x7fc0beefu);
  for (std::size_t off = 0; off < lanes; ++off) {
    for (std::size_t n = 0; n <= 3 * lanes; ++n) {
      const std::string where = std::string(f.name) + ", n " +
                                std::to_string(n) + " offset " +
                                std::to_string(off);
      // Buffers that end at n: a read or write past it is a heap
      // overflow under ASan.
      std::vector<float> in(pool.begin(), pool.begin() + off + n);
      std::vector<float> out(off + n, sentinel);
      f.lanes(in.data() + off, out.data() + off, n);
      // Slack after n, which must keep its sentinels; and in place.
      std::vector<float> padded(off + n + lanes, sentinel);
      f.lanes(in.data() + off, padded.data() + off, n);
      std::vector<float> inplace = in;
      f.lanes(inplace.data() + off, inplace.data() + off, n);
      for (std::size_t i = 0; i < off + n + lanes; ++i) {
        const bool live = i >= off && i < off + n;
        const std::uint32_t want =
            live ? word(f.scalar(in[i])) : word(sentinel);
        ASSERT_EQ(word(padded[i]), want) << where << " index " << i;
        if (i < off + n) {
          ASSERT_EQ(word(out[i]), want) << where << " index " << i;
          ASSERT_EQ(word(inplace[i]), live ? want : word(in[i]))
              << where << " in place, index " << i;
        }
      }
    }
  }
}

TEST(TanhLanes, EveryLengthAndOffsetTouchesOnlyItsRange) {
  expect_every_length_and_offset_touches_only_its_range(kTanh);
}

// --- exp in lanes -----------------------------------------------------------
//
// exp_n runs glibc's expf in kExpLanes lanes (std::exp without FMA and
// AVX2). It must equal std::exp bit for bit on every build; the softmax
// rows built on it must equal the scalar std::exp loops they replaced.

TEST(ExpLanes, MatchesStdExp) {
  // Every 97th bit pattern: 44M floats.
  strided_sweep(97, [](const std::vector<float>& xs) {
    expect_lanes_match(kExp, xs, "strided sweep");
  });

  // The edges, each with its 16 neighbours on either side: zero and the
  // denormals; the two inputs only a fused build gets right (32.56 and
  // -63.10); the overflow threshold (88, the last finite result, the first
  // infinite one); the underflow to denormals and to zero; Inf and NaN.
  std::vector<float> xs;
  for (const std::uint32_t e :
       {0x00000000u, 0x80000000u, 0x00000010u, 0x80000010u, 0x007ffff0u,
        0x807ffff0u, 0x4202422fu, 0xc27c65d9u, 0x42b00000u, 0x42b17217u,
        0x42b17218u, 0xc2ce8ecfu, 0xc2cff1b4u, 0x7f800000u, 0xff800000u,
        0x7fc00000u, 0xffc00000u}) {
    for (std::uint32_t w = e - 16; w != e + 17; ++w) {
      xs.push_back(from_word(w));
    }
  }
  expect_lanes_match(kExp, xs, "edges");
}

TEST(ExpLanes, EveryLengthAndOffsetTouchesOnlyItsRange) {
  expect_every_length_and_offset_touches_only_its_range(kExp);
}

// The row ops as they were before exp_n, one scalar std::exp at a time.

void softmax_row_scalar(const float* x, float* y, std::size_t cols) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::size_t c = 0; c < cols; ++c) mx = std::max(mx, x[c]);
  float z = 0.0f;
  for (std::size_t c = 0; c < cols; ++c) {
    y[c] = std::exp(x[c] - mx);
    z += y[c];
  }
  const float inv = 1.0f / z;
  for (std::size_t c = 0; c < cols; ++c) y[c] *= inv;
}

/// Rows of logits whose length is `cols`: seeded, spread wide enough that
/// some exps underflow, with a row of signed-zero ties at the max.
std::vector<float> softmax_input(std::size_t rows, std::size_t cols) {
  std::vector<float> x = seeded(rows * cols, 40 + cols);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] *= i % 3 ? 4.0f : 30.0f;
  for (std::size_t c = 0; c < cols; ++c) {
    x[c] = c % 3 == 0 ? 0.0f : c % 3 == 1 ? -0.0f : -std::abs(x[c]);
  }
  return x;
}

TEST(ExpLanes, RowOpsMatchScalarExpLoops) {
  constexpr std::size_t kRows = 3;
  for (std::size_t cols = 1; cols <= 300; ++cols) {
    const std::string where = "row length " + std::to_string(cols);
    const Shape shape{static_cast<int>(kRows), static_cast<int>(cols)};
    const std::size_t n = kRows * cols;
    const std::vector<float> x = softmax_input(kRows, cols);
    const std::vector<float> w = seeded(n, 900 + cols);  // upstream grad

    // softmax_lastdim: values, and the gradient its backward forms from
    // them.
    std::vector<float> y(n), gx(n, 0.0f);
    for (std::size_t r = 0; r < kRows; ++r) {
      softmax_row_scalar(x.data() + r * cols, y.data() + r * cols, cols);
      const float* yr = y.data() + r * cols;
      const float* gr = w.data() + r * cols;
      float dot = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) dot += yr[c] * gr[c];
      for (std::size_t c = 0; c < cols; ++c) {
        gx[r * cols + c] += yr[c] * (gr[c] - dot);
      }
    }
    Tensor t = Tensor::from(shape, x, true);
    const Tensor s = softmax_lastdim(t);
    sum_all(mul(s, Tensor::from(shape, w))).backward();
    EXPECT_EQ(bits(s.data()), bits(y)) << "softmax, " << where;
    EXPECT_EQ(bits(t.grad()), bits(gx)) << "softmax gradient, " << where;

    // cross_entropy, the last row's target ignored.
    std::vector<int> targets(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      targets[r] = static_cast<int>((r * 7 + cols / 2) % cols);
    }
    targets[kRows - 1] = -1;
    double total = 0.0;
    for (std::size_t r = 0; r + 1 < kRows; ++r) {
      total += -std::log(std::max(
          y[r * cols + static_cast<std::size_t>(targets[r])], 1e-12f));
    }
    const float denom = static_cast<float>(kRows - 1);
    const float g = 1.0f / denom;
    std::vector<float> gce(n, 0.0f);
    for (std::size_t r = 0; r + 1 < kRows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        gce[r * cols + c] += g * y[r * cols + c];
      }
      gce[r * cols + static_cast<std::size_t>(targets[r])] -= g;
    }
    t = Tensor::from(shape, x, true);
    Tensor ce = cross_entropy(t, targets);
    ce.backward();
    EXPECT_EQ(word(ce.item()), word(static_cast<float>(total) / denom))
        << "cross_entropy, " << where;
    EXPECT_EQ(bits(t.grad()), bits(gce)) << "cross_entropy gradient, "
                                         << where;
  }
}

TEST(TensorStorageDeathTest, DeadAndTailReadsAreReported) {
#if defined(__SANITIZE_ADDRESS__)
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const float* dead = nullptr;
  {
    const Tensor t = Tensor::full({kBig}, 1.0f);
    dead = t.data().data();
  }
  EXPECT_DEATH(
      {
        const volatile float v = dead[0];
        (void)v;
      },
      "use-after-poison");
  // The block is page-rounded: the bytes past the tensor's end are
  // poisoned too.
  const Tensor live = Tensor::full({kBig}, 1.0f);
  const float* end = live.data().data() + live.numel();
  EXPECT_DEATH(
      {
        const volatile float v = end[0];
        (void)v;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "needs AddressSanitizer";
#endif
}

TEST(Optim, ClipGradNorm) {
  auto a = Tensor::from({2}, {0.0f, 0.0f}, true);
  auto loss = sum_all(mul_scalar(a, 100.0f));
  loss.backward();
  std::vector<Tensor> params{a};
  const double pre = clip_grad_norm(params, 1.0);
  EXPECT_NEAR(pre, 100.0 * std::sqrt(2.0), 1e-3);
  double post = 0;
  for (float g : a.grad()) post += static_cast<double>(g) * g;
  EXPECT_NEAR(std::sqrt(post), 1.0, 1e-4);
}

}  // namespace
