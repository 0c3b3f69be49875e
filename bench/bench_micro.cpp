// google-benchmark microbenchmarks for the substrates: tensor engine,
// circuit representation, mini-SPICE, generation throughput.
//
// Always writes a machine-readable report (chrome for CI trend tracking):
// unless the caller passes an explicit --benchmark_out, the run also
// writes google-benchmark JSON to BENCH_micro.json in the working
// directory (override the path with EVA_BENCH_OUT). GFLOP/s and token
// throughput appear as items_per_second, latencies as real_time in the
// benchmark's declared unit. Every kernel and decode family rates on
// wall-clock time (UseRealTime), so work done by pool workers counts
// against the elapsed time rather than the main thread's CPU time.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/canon.hpp"
#include "circuit/pingraph.hpp"
#include "circuit/validity.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "nn/sampler.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "nn/walk.hpp"
#include "opt/ga.hpp"
#include "serve/service.hpp"
#include "spice/engine.hpp"
#include "spice/fom.hpp"
#include "tensor/gemm.hpp"
#include "tensor/optim.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"

namespace {

using namespace eva;

// --- tensor ---------------------------------------------------------------

// Raw kernel throughput for the three GEMM shapes the training loop
// exercises: nn (forward), nt (input-gradient), tn (weight-gradient).
// items_per_second == FLOP/s; read it as GFLOP/s. Each shape runs square
// (64, 256) and at the pretrain LM head's products, 800 tokens x d_model 64
// x vocab 190 (lm_head: nn its forward, nt its input gradient, tn its
// weight gradient), whose last 30-column strip is ragged. The argument is
// the pool width, as for the training rows below: /1 runs inline, so a run
// pinned to one CPU times one thread; /0 is the hardware default.

void BM_GemmNN(benchmark::State& state, std::size_t M, std::size_t K,
               std::size_t N) {
  set_num_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(41);
  auto a = tensor::Tensor::randn({static_cast<int>(M), static_cast<int>(K)},
                                 rng, 1.0f, false);
  auto b = tensor::Tensor::randn({static_cast<int>(K), static_cast<int>(N)},
                                 rng, 1.0f, false);
  std::vector<float> c(M * N, 0.0f);
  for (auto _ : state) {
    tensor::gemm_nn(a.data().data(), b.data().data(), c.data(), M, K, N);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL *
                          static_cast<std::int64_t>(M * K * N));
  set_num_threads(0);
}
BENCHMARK_CAPTURE(BM_GemmNN, 64, 64, 64, 64)->Arg(1)->Arg(0)->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmNN, 256, 256, 256, 256)
    ->Arg(1)->Arg(0)->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmNN, lm_head, 800, 64, 190)
    ->Arg(1)->Arg(0)->UseRealTime();

// C(M,N) += A(M,K) @ B(N,K)^T.
void BM_GemmNT(benchmark::State& state, std::size_t M, std::size_t K,
               std::size_t N) {
  set_num_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(42);
  auto a = tensor::Tensor::randn({static_cast<int>(M), static_cast<int>(K)},
                                 rng, 1.0f, false);
  auto b = tensor::Tensor::randn({static_cast<int>(N), static_cast<int>(K)},
                                 rng, 1.0f, false);
  std::vector<float> c(M * N, 0.0f);
  for (auto _ : state) {
    tensor::gemm_nt(a.data().data(), b.data().data(), c.data(), M, K, N);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL *
                          static_cast<std::int64_t>(M * K * N));
  set_num_threads(0);
}
BENCHMARK_CAPTURE(BM_GemmNT, 64, 64, 64, 64)->Arg(1)->Arg(0)->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmNT, 256, 256, 256, 256)
    ->Arg(1)->Arg(0)->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmNT, lm_head, 800, 190, 64)
    ->Arg(1)->Arg(0)->UseRealTime();

// C(M,N) += A(K,M)^T @ B(K,N).
void BM_GemmTN(benchmark::State& state, std::size_t K, std::size_t M,
               std::size_t N) {
  set_num_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(43);
  auto a = tensor::Tensor::randn({static_cast<int>(K), static_cast<int>(M)},
                                 rng, 1.0f, false);
  auto b = tensor::Tensor::randn({static_cast<int>(K), static_cast<int>(N)},
                                 rng, 1.0f, false);
  std::vector<float> c(M * N, 0.0f);
  for (auto _ : state) {
    tensor::gemm_tn(a.data().data(), b.data().data(), c.data(), K, M, N);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL *
                          static_cast<std::int64_t>(M * K * N));
  set_num_threads(0);
}
BENCHMARK_CAPTURE(BM_GemmTN, 64, 64, 64, 64)->Arg(1)->Arg(0)->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmTN, 256, 256, 256, 256)
    ->Arg(1)->Arg(0)->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmTN, lm_head, 800, 64, 190)
    ->Arg(1)->Arg(0)->UseRealTime();

// Quantized inference GEMM (weight-only int8, fused bias epilogue) at
// the batched-decode shape: n rows of activations against a
// (256, 768)-ish weight. items_per_second == FLOP/s of the equivalent
// f32 GEMM, so these read directly against BM_GemmNN.
void BM_QGemmInt8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kIn = 192;
  constexpr std::size_t kOut = 768;
  Rng rng(44);
  auto w = tensor::Tensor::randn({static_cast<int>(kIn), static_cast<int>(kOut)},
                                 rng, 1.0f, false);
  auto x = tensor::Tensor::randn({static_cast<int>(n), static_cast<int>(kIn)},
                                 rng, 1.0f, false);
  auto b = tensor::Tensor::randn({static_cast<int>(kOut)}, rng, 1.0f, false);
  const auto qw = tensor::QuantMatrix::quantize(tensor::QuantKind::kInt8,
                                                w.data().data(), kIn, kOut);
  std::vector<float> y(n * kOut, 0.0f);
  for (auto _ : state) {
    tensor::qgemm(x.data().data(), qw, b.data().data(), y.data(), n,
                  tensor::Epilogue::kBias);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * state.range(0) *
                          static_cast<std::int64_t>(kIn * kOut));
}
BENCHMARK(BM_QGemmInt8)->Arg(1)->Arg(8)->Arg(16)->UseRealTime();

// GELU at its two sites, at pool width 1; items_per_second == elements
// per second. /train: the training forward with grad (it keeps tanh(u)
// for the backward pass) at the pretrain MLP shape, 880 tokens x 256.
// /decode: the decode GELU over one width-8 block of the MLP (8 x 256),
// in place, so each iteration first copies the block's inputs back in.
void BM_Gelu(benchmark::State& state, bool train) {
  set_num_threads(1);
  Rng rng(45);
  const int rows = train ? 880 : 8;
  auto x = tensor::Tensor::randn({rows, 256}, rng, 2.0f, train);
  std::vector<float> y(x.numel());
  for (auto _ : state) {
    if (train) {
      benchmark::DoNotOptimize(tensor::gelu(x).data().data());
    } else {
      std::copy(x.data().begin(), x.data().end(), y.begin());
      tensor::gelu_approx_n(y.data(), y.size());
      benchmark::DoNotOptimize(y.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.numel()));
  set_num_threads(0);
}
BENCHMARK_CAPTURE(BM_Gelu, train, true)->UseRealTime();
BENCHMARK_CAPTURE(BM_Gelu, decode, false)->UseRealTime();

void BM_TensorMatmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  auto a = tensor::Tensor::randn({n, n}, rng, 1.0f, false);
  auto b = tensor::Tensor::randn({n, n}, rng, 1.0f, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

// One layer's causal attention, forward and backward, at the pretrain
// shape (batch 8, d_model 64, 2 heads) and pool width 1: q, k and v in,
// the context out, its gradient back to q, k and v. The argument is the
// sequence length; items_per_second == tokens/sec.
void BM_CausalAttention(benchmark::State& state) {
  set_num_threads(1);
  constexpr int kBatch = 8, kC = 64, kHeads = 2;
  const int T = static_cast<int>(state.range(0));
  Rng rng(46);
  const tensor::Shape shape{kBatch, T, kC};
  auto q = tensor::Tensor::randn(shape, rng, 1.0f);
  auto k = tensor::Tensor::randn(shape, rng, 1.0f);
  auto v = tensor::Tensor::randn(shape, rng, 1.0f);
  auto g = tensor::Tensor::randn(shape, rng, 1.0f, false);
  for (auto _ : state) {
    auto loss = tensor::sum_all(
        tensor::mul(tensor::causal_attention(q, k, v, kHeads), g));
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * kBatch * T);
  set_num_threads(0);
}
BENCHMARK(BM_CausalAttention)
    ->Arg(32)->Arg(100)->Arg(255)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One biased linear layer, forward and backward, at the pretrain shape
// (batch 8 x 100 tokens) and pool width 1: 800 x 64 -> 256 is the MLP's
// up projection, 800 x 256 -> 64 its down projection. The argument is the
// pool width; items_per_second == FLOP/s of the three products (output,
// input gradient, weight gradient).
void BM_Linear(benchmark::State& state, int K, int N) {
  set_num_threads(static_cast<std::size_t>(state.range(0)));
  constexpr int kTokens = 800;
  Rng rng(47);
  auto x = tensor::Tensor::randn({8, kTokens / 8, K}, rng, 1.0f);
  auto w = tensor::Tensor::randn({K, N}, rng, 0.1f);
  auto b = tensor::Tensor::randn({N}, rng, 0.1f);
  auto g = tensor::Tensor::randn({8, kTokens / 8, N}, rng, 1.0f, false);
  for (auto _ : state) {
    auto loss = tensor::sum_all(tensor::mul(tensor::linear(x, w, b), g));
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * 6LL * kTokens * K * N);
  set_num_threads(0);
}
BENCHMARK_CAPTURE(BM_Linear, 64x256, 64, 256)->Arg(1)->UseRealTime();
BENCHMARK_CAPTURE(BM_Linear, 256x64, 256, 64)->Arg(1)->UseRealTime();

// The pretrain loss at pool width 1: cross-entropy over 800 positions of
// the 190-token vocabulary, forward (a softmax row per position) and
// backward. items_per_second == rows per second.
void BM_CrossEntropy(benchmark::State& state) {
  set_num_threads(1);
  constexpr int kRows = 800, kVocab = 190;
  Rng rng(48);
  auto logits = tensor::Tensor::randn({kRows, kVocab}, rng, 2.0f);
  std::vector<int> targets(kRows);
  for (auto& t : targets) t = static_cast<int>(rng.index(kVocab));
  for (auto _ : state) {
    auto loss = tensor::cross_entropy(logits, targets);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  set_num_threads(0);
}
BENCHMARK(BM_CrossEntropy)->UseRealTime();

// The training rows take the thread pool's width as their argument:
// /1 runs every parallel region inline, so a run pinned to one CPU times
// one thread; /0 is the hardware default.
void BM_TransformerForwardBackward(benchmark::State& state) {
  set_num_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(2);
  nn::ModelConfig cfg = nn::ModelConfig::bench_scale(200);
  nn::TransformerLM model(cfg, rng);
  std::vector<int> tokens(4 * 128, 5);
  for (auto _ : state) {
    auto logits = model.forward(tokens, 4, 128);
    auto loss = tensor::mean_all(logits);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * 4 * 128);
  set_num_threads(0);
}
BENCHMARK(BM_TransformerForwardBackward)
    ->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One pretraining step per iteration (forward, cross-entropy, backward,
// AdamW) at batch 8, cycling through a fixed seeded set of sequence
// lengths in the range of pretraining's padded batches (66-134 tokens on
// the benchmark corpus). Unlike the fixed shape above, buffer sizes change
// from step to step as they do in nn::pretrain; minflt_per_step counts
// the page faults that costs. items_per_second == tokens/sec. The
// argument is the pool width, as above.
void BM_TrainStepVaryingLength(benchmark::State& state) {
  set_num_threads(static_cast<std::size_t>(state.range(0)));
  constexpr int kBatch = 8;
  constexpr int kVocab = 200;
  Rng rng(4);
  nn::TransformerLM model(nn::ModelConfig::bench_scale(kVocab), rng);
  tensor::AdamW opt(model.parameters(), {});
  struct Batch {
    int len;
    std::vector<int> inputs, targets;
  };
  std::vector<Batch> cycle(16);
  for (auto& b : cycle) {
    b.len = rng.range(66, 134);
    const auto n = static_cast<std::size_t>(kBatch * b.len);
    for (std::size_t i = 0; i < n; ++i) {
      b.inputs.push_back(rng.range(0, kVocab - 1));
      b.targets.push_back(rng.range(0, kVocab - 1));
    }
  }
  std::int64_t tokens = 0;
  std::size_t next = 0;
  rusage before{}, after{};
  getrusage(RUSAGE_SELF, &before);
  for (auto _ : state) {
    const Batch& b = cycle[next++ % cycle.size()];
    opt.zero_grad();
    auto logits = model.forward(b.inputs, kBatch, b.len, true);
    auto loss = tensor::cross_entropy(logits, b.targets);
    loss.backward();
    opt.step();
    tokens += kBatch * b.len;
    benchmark::DoNotOptimize(loss.item());
  }
  getrusage(RUSAGE_SELF, &after);
  state.SetItemsProcessed(tokens);
  state.counters["minflt_per_step"] =
      static_cast<double>(after.ru_minflt - before.ru_minflt) /
      static_cast<double>(state.iterations());
  set_num_threads(0);
}
BENCHMARK(BM_TrainStepVaryingLength)
    ->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One width-1 decode step of the batched engine (no sampling): the
// per-token transformer cost of single-sequence decode.
void BM_KvCacheTokenThroughput(benchmark::State& state) {
  Rng rng(3);
  nn::ModelConfig cfg = nn::ModelConfig::bench_scale(200);
  nn::TransformerLM model(cfg, rng);
  std::vector<float> logits;
  auto cache = model.make_batched_cache(1);
  const std::vector<int> slot{0};
  const std::vector<int> token{5};
  int produced = 0;
  for (auto _ : state) {
    if (cache.len[0] >= cfg.max_seq) cache.reset_slot(0);
    model.infer_step_batched(cache, slot, token, logits);
    ++produced;
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_KvCacheTokenThroughput)->UseRealTime();

// End-to-end single-sequence generation: width-1 batched decode +
// legality masking + top-k sampling, one sequence per iteration.
// items_per_second == sampled tokens/sec.
void BM_SampleTokenThroughput(benchmark::State& state) {
  const nn::Tokenizer tok({4, 4, 2, 2, 2, 2, 2, 2});
  Rng rng(30);
  nn::ModelConfig cfg = nn::ModelConfig::bench_scale(tok.vocab_size());
  nn::TransformerLM model(cfg, rng);
  nn::SampleOptions opts;
  opts.temperature = 0.9f;
  opts.top_k = 12;
  opts.max_len = 96;
  nn::BatchedDecoder decoder(model, tok, 1, opts);
  Rng sample_rng(31);
  std::int64_t tokens = 0;
  for (auto _ : state) {
    const auto res = decoder.decode(sample_rng, 1);
    tokens += static_cast<std::int64_t>(res.front().ids.size());
    benchmark::DoNotOptimize(res.data());
  }
  state.SetItemsProcessed(tokens);
}
BENCHMARK(BM_SampleTokenThroughput)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The walk-legality bookkeeping of one masked decode step (closure_cost,
// mask, one illegal_transition and on_token), teacher-forced over every
// corpus tour of a seeded dataset, four tours per topology, with a fresh
// WalkLegality per tour as a decoded sequence gets.
// items_per_second == tokens/sec; its inverse is the cost per token.
void BM_WalkLegality(benchmark::State& state) {
  data::DatasetConfig dcfg;
  dcfg.per_type = 12;
  dcfg.seed = 24;
  const data::Dataset ds = data::Dataset::build(dcfg);
  const nn::Tokenizer tok = nn::Tokenizer::from_dataset(ds);
  Rng rng(24);
  std::vector<std::vector<int>> tours;
  for (const auto& e : ds.entries()) {
    for (int r = 0; r < 4; ++r) {
      tours.push_back(tok.encode_tour(circuit::encode_tour(e.netlist, rng)));
    }
  }
  const int vss = tok.start_token();
  const int vdd = tok.encode_io(circuit::IoPin::Vdd);
  std::vector<float> logits(static_cast<std::size_t>(tok.vocab_size()));
  std::int64_t tokens = 0;
  for (auto _ : state) {
    for (const auto& ids : tours) {
      nn::WalkLegality walk(tok);
      walk.on_token(ids.front());
      for (std::size_t i = 1; i + 1 < ids.size(); ++i) {  // up to EOS
        benchmark::DoNotOptimize(walk.closure_cost());
        walk.mask(logits, vss);
        benchmark::DoNotOptimize(walk.illegal_transition(ids[i], vss, vdd));
        walk.on_token(ids[i]);
      }
      tokens += static_cast<std::int64_t>(ids.size()) - 2;
    }
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(tokens);
}
BENCHMARK(BM_WalkLegality)->Unit(benchmark::kMillisecond)->UseRealTime();

// Batch generation on an identical 24-sequence workload through the
// continuous-batching BatchedDecoder at several widths.
// items_per_second == sampled tokens/sec, so the ratio between widths
// is the end-to-end speedup of batching. The first argument is the
// decode width, the second the pool width, as in the training rows: /1
// runs every parallel region inline, so a run pinned to one CPU times
// one thread; /0 is the hardware default.

nn::SampleOptions batch_bench_opts() {
  nn::SampleOptions opts;
  opts.temperature = 0.9f;
  opts.top_k = 12;
  opts.max_len = 80;
  return opts;
}
// Deployment-shaped model: large enough that the weight matrices
// overflow L2, so width-1 decode re-streams every weight once per token
// per sequence while wider cohorts stream them once per step for every
// sequence in flight. bench_scale weights fit in L1/L2, which would hide
// exactly the effect being measured.
nn::ModelConfig batch_bench_config(int vocab) {
  return {vocab, 192, 4, 4, 768, 96, 0.0f};
}
constexpr int kBatchBenchSeqs = 24;

void bm_sample_batch_decoder(benchmark::State& state, tensor::QuantKind quant) {
  set_num_threads(static_cast<std::size_t>(state.range(1)));
  const nn::Tokenizer tok({4, 4, 2, 2, 2, 2, 2, 2});
  Rng rng(30);
  nn::ModelConfig cfg = batch_bench_config(tok.vocab_size());
  nn::TransformerLM model(cfg, rng);
  model.set_inference_quant(quant);
  nn::BatchedDecoder decoder(model, tok, static_cast<int>(state.range(0)),
                            batch_bench_opts());
  Rng sample_rng(31);
  std::int64_t tokens = 0;
  for (auto _ : state) {
    const auto batch = decoder.decode(sample_rng, kBatchBenchSeqs);
    for (const auto& res : batch) {
      tokens += static_cast<std::int64_t>(res.ids.size());
    }
    benchmark::DoNotOptimize(batch.data());
  }
  state.SetItemsProcessed(tokens);
  state.SetLabel(tensor::quant_kind_name(quant));
  set_num_threads(0);
}
// The quantized decode trajectory: int8 weight-quantized by default
// here (EVA_QUANT overrides the tier). Serving itself defaults to f32;
// this family tracks what the opt-in quantized tier buys.
void BM_SampleBatchDecoder(benchmark::State& state) {
  bm_sample_batch_decoder(
      state, tensor::quant_kind_from_env(tensor::QuantKind::kInt8));
}
BENCHMARK(BM_SampleBatchDecoder)
    ->Args({1, 1})->Args({1, 0})
    ->Args({8, 1})->Args({8, 0})
    ->Args({16, 1})->Args({16, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
// The f32 trajectory, kept as its own family so the quantization win
// stays measurable against the same commit.
void BM_SampleBatchDecoderF32(benchmark::State& state) {
  bm_sample_batch_decoder(state, tensor::QuantKind::kF32);
}
BENCHMARK(BM_SampleBatchDecoderF32)
    ->Args({1, 1})->Args({1, 0})
    ->Args({8, 1})->Args({8, 0})
    ->Args({16, 1})->Args({16, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- circuit ----------------------------------------------------------------

circuit::Netlist bench_netlist() {
  Rng rng(4);
  return data::gen_opamp(rng);
}

void BM_EulerTourEncode(benchmark::State& state) {
  const auto nl = bench_netlist();
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::encode_tour(nl, rng).size());
  }
}
BENCHMARK(BM_EulerTourEncode);

void BM_TourDecode(benchmark::State& state) {
  const auto nl = bench_netlist();
  Rng rng(6);
  const auto tour = circuit::encode_tour(nl, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::decode_tour(tour).ok);
  }
}
BENCHMARK(BM_TourDecode);

void BM_CanonicalHash(benchmark::State& state) {
  const auto nl = bench_netlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::canonical_hash(nl));
  }
}
BENCHMARK(BM_CanonicalHash);

void BM_ValidityCheck(benchmark::State& state) {
  const auto nl = bench_netlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::structurally_valid(nl));
  }
}
BENCHMARK(BM_ValidityCheck);

// --- spice -------------------------------------------------------------------

void BM_DcOperatingPoint(benchmark::State& state) {
  const auto nl = bench_netlist();
  const auto sz = spice::default_sizing(nl);
  for (auto _ : state) {
    spice::Simulator sim(nl, sz);
    benchmark::DoNotOptimize(sim.solve_dc());
  }
}
BENCHMARK(BM_DcOperatingPoint)->Unit(benchmark::kMicrosecond);

void BM_AcSweep(benchmark::State& state) {
  const auto nl = bench_netlist();
  const auto sz = spice::default_sizing(nl);
  spice::Simulator sim(nl, sz);
  if (!sim.solve_dc()) state.SkipWithError("DC failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.ac_sweep().size());
  }
}
BENCHMARK(BM_AcSweep)->Unit(benchmark::kMicrosecond);

void BM_FomEvaluation(benchmark::State& state) {
  const auto nl = bench_netlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spice::evaluate_default(nl, circuit::CircuitType::OpAmp).fom);
  }
}
BENCHMARK(BM_FomEvaluation)->Unit(benchmark::kMicrosecond);

// One GA sizing of the bench netlist at the default GaConfig, at pool
// width 1: 245 evaluations of one prepared circuit, each generation's DC
// points solved kLanes to a group.
void BM_SizeTopology(benchmark::State& state) {
  const auto nl = bench_netlist();
  set_num_threads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt::size_topology(nl, circuit::CircuitType::OpAmp, {}).perf.fom);
  }
  set_num_threads(0);
}
BENCHMARK(BM_SizeTopology)->Unit(benchmark::kMillisecond);

void BM_DatasetGenerate(benchmark::State& state) {
  Rng rng(7);
  int i = 0;
  for (auto _ : state) {
    const auto type = static_cast<circuit::CircuitType>(i++ % 11);
    benchmark::DoNotOptimize(data::generate(type, rng).num_devices());
  }
}
BENCHMARK(BM_DatasetGenerate);

// --- serving -----------------------------------------------------------------

// Closed-loop serving throughput through the full GenerationService path:
// submit -> scheduler -> batched decode -> canonical-hash lookup ->
// (validity + FoM on miss) -> response. Arg 0 is the decoder width,
// arg 1 selects cold (0) vs warm (1) cache. Both variants replay the
// exact same seeded request, so the decode work is identical; cold
// clears the ResultCache before every request (every topology pays
// validity + SPICE FoM), warm keeps it (evaluations memoized by WL
// canonical hash). items_per_second == served topologies/sec on wall
// clock -- warm minus cold is the evaluation cost the cache removes.
//
// Measurement is PAIRED: the cache gap is a few percent of end-to-end
// request latency (decode dominates, DESIGN.md section 10), smaller than
// the multi-percent drift a shared machine shows between sequentially
// run benchmark variants -- an unpaired cold-then-warm run flips sign on
// a bad day. So for each width one window alternates
// cold,warm,cold,warm... requests and accumulates each variant's wall
// time separately; the cold and warm rows then report their half of that
// shared window via manual timing. Drift hits both variants of a pair
// equally, so the reported ordering is the within-window truth.
//
// The same window also drives a second service pinned to the f32 tier
// (BM_ServeThroughputF32): the quantized-vs-f32 serving comparison is
// cross-process otherwise, and process-to-process drift on this host is
// larger than the quantization win itself. Interleaving all four
// variants per round makes the int8/f32 ordering in one committed run
// trustworthy.
struct PairedServeWindow {
  double cold_s = 0.0;
  double warm_s = 0.0;
  double f32_cold_s = 0.0;
  double f32_warm_s = 0.0;
  std::int64_t items = 0;  // per variant
  bool failed = false;
};

const PairedServeWindow& paired_serve_window(int width) {
  static std::map<int, PairedServeWindow> windows;
  const auto it = windows.find(width);
  if (it != windows.end()) return it->second;
  PairedServeWindow w;

  const nn::Tokenizer tok({4, 4, 2, 2, 2, 2, 2, 2});
  // Weight seed 99 + request seed 1364 is a scanned pair whose 8-topology
  // batch holds 4 simulatable circuits under the int8 tier
  // (the deepest valid fraction found in a 4k-seed scan with the VNNI
  // kernels), so the validity + FoM evaluation the cache memoizes
  // actually runs: an arbitrary untrained-weight batch is almost
  // entirely rejected by the ~2us structural pre-check, which would
  // bench the cache on a workload where it has nothing to do.
  // bench_scale, not tiny: at d_model 32 a request is mostly scheduler +
  // canonicalization and the serve rows stop tracking the decode path
  // they exist to watch (quantization is invisible there). At d_model 64
  // decode dominates again, matching the decoder benches above.
  const nn::ModelConfig cfg = nn::ModelConfig::bench_scale(tok.vocab_size());
  // Two identically-seeded models: the services repack their model into
  // their tier at construction, so the tiers can't share one instance.
  Rng rng_i8(99), rng_f32(99);
  nn::TransformerLM model_i8(cfg, rng_i8);
  nn::TransformerLM model_f32(cfg, rng_f32);
  serve::ServiceConfig scfg;
  scfg.batch_width = width;
  scfg.queue_max = 256;
  scfg.sample.temperature = 0.9f;
  scfg.sample.top_k = 12;
  scfg.sample.max_len = 32;
  scfg.quant = tensor::QuantKind::kInt8;  // the opt-in quantized tier
  serve::GenerationService service_i8(model_i8, tok, scfg);
  scfg.quant = tensor::QuantKind::kF32;  // unquantized baseline
  serve::GenerationService service_f32(model_f32, tok, scfg);
  service_i8.start();
  service_f32.start();

  const auto timed_request = [&](serve::GenerationService& service, bool warm,
                                 double& acc) {
    if (!warm) service.cache().clear();
    serve::Request req;
    req.n = 8;
    req.seed = 1364;
    req.temperature = 0.9f;  // the per-request override the scan used
    const auto t0 = std::chrono::steady_clock::now();
    const auto resp = service.submit(req).response.get();
    const auto t1 = std::chrono::steady_clock::now();
    if (resp.status != serve::Status::kOk) {
      w.failed = true;
      return;
    }
    acc += std::chrono::duration<double>(t1 - t0).count();
    if (warm) w.items += static_cast<std::int64_t>(resp.items.size());
  };

  // Prime all paths once so no variant pays first-touch costs.
  timed_request(service_i8, false, w.cold_s);
  timed_request(service_i8, true, w.warm_s);
  timed_request(service_f32, false, w.f32_cold_s);
  timed_request(service_f32, true, w.f32_warm_s);
  w.cold_s = w.warm_s = w.f32_cold_s = w.f32_warm_s = 0.0;
  w.items = 0;
  constexpr int kRounds = 200;
  for (int i = 0; i < kRounds && !w.failed; ++i) {
    timed_request(service_i8, false, w.cold_s);
    timed_request(service_i8, true, w.warm_s);
    timed_request(service_f32, false, w.f32_cold_s);
    timed_request(service_f32, true, w.f32_warm_s);
  }
  // Both services serve n=8 per round; halve so `items` stays per-variant.
  w.items /= 2;
  service_i8.drain();
  service_f32.drain();
  return windows.emplace(width, w).first->second;
}

void BM_ServeThroughput(benchmark::State& state) {
  const PairedServeWindow& w = paired_serve_window(static_cast<int>(state.range(0)));
  const bool warm = state.range(1) != 0;
  if (w.failed) {
    state.SkipWithError("request not served");
    return;
  }
  for (auto _ : state) {
    state.SetIterationTime(warm ? w.warm_s : w.cold_s);
  }
  state.SetItemsProcessed(w.items);
  state.SetLabel(warm ? "int8 warm-cache" : "int8 cold-cache");
}
BENCHMARK(BM_ServeThroughput)
    ->Args({1, 0})->Args({1, 1})
    ->Args({8, 0})->Args({8, 1})
    ->Args({16, 0})->Args({16, 1})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The f32-tier half of the paired serving window above: same request
// stream, same rounds, interleaved in the same process, so this row is
// the drift-cancelled baseline the quantized rows are judged against.
void BM_ServeThroughputF32(benchmark::State& state) {
  const PairedServeWindow& w = paired_serve_window(static_cast<int>(state.range(0)));
  const bool warm = state.range(1) != 0;
  if (w.failed) {
    state.SkipWithError("request not served");
    return;
  }
  for (auto _ : state) {
    state.SetIterationTime(warm ? w.f32_warm_s : w.f32_cold_s);
  }
  state.SetItemsProcessed(w.items);
  state.SetLabel(warm ? "f32 warm-cache" : "f32 cold-cache");
}
BENCHMARK(BM_ServeThroughputF32)
    ->Args({1, 0})->Args({1, 1})
    ->Args({8, 0})->Args({8, 1})
    ->Args({16, 0})->Args({16, 1})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Library build type, stamped into the JSON context so a committed
  // BENCH_micro.json can always be audited for how it was produced.
#ifdef NDEBUG
  constexpr bool kReleaseBuild = true;
#else
  constexpr bool kReleaseBuild = false;
#endif
  benchmark::AddCustomContext("eva_build_type",
                              kReleaseBuild ? "release" : "debug");

  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_path = "BENCH_micro.json";
  bool explicit_out = has_out;
  if (const char* env = std::getenv("EVA_BENCH_OUT")) {
    out_path = env;
    explicit_out = true;
  }
  // Non-Release numbers must never silently land in the default report
  // file (the committed baseline is a Release artifact): a debug build
  // only writes JSON when the caller explicitly asked for a path, and
  // even then the eva_build_type context tags the result.
  if (!kReleaseBuild && !explicit_out) {
    std::fprintf(stderr,
                 "bench_micro: debug/unoptimized build -- refusing to write "
                 "%s; pass --benchmark_out or set EVA_BENCH_OUT to record "
                 "debug numbers anyway\n",
                 out_path.c_str());
  }
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out && (kReleaseBuild || explicit_out)) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
