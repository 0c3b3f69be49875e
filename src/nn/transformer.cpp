#include "nn/transformer.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.hpp"

namespace eva::nn {

using namespace eva::tensor;

namespace {
/// GPT-2-style init scales.
Tensor init_weight(Shape shape, Rng& rng, float scale = 0.02f) {
  return Tensor::randn(std::move(shape), rng, scale, true);
}
Tensor init_zeros(Shape shape) { return Tensor::zeros(std::move(shape), true); }
Tensor init_ones(Shape shape) {
  return Tensor::full(std::move(shape), 1.0f, true);
}
}  // namespace

TransformerLM::TransformerLM(ModelConfig cfg, Rng& rng) : cfg_(cfg) {
  EVA_REQUIRE(cfg_.vocab > 2, "vocab must include specials");
  EVA_REQUIRE(cfg_.d_model % cfg_.n_heads == 0,
              "d_model must be divisible by n_heads");
  const int C = cfg_.d_model;
  tok_emb_ = init_weight({cfg_.vocab, C}, rng);
  pos_emb_ = init_weight({cfg_.max_seq, C}, rng, 0.01f);
  const float resid_scale =
      0.02f / std::sqrt(2.0f * static_cast<float>(cfg_.n_layers));
  for (int l = 0; l < cfg_.n_layers; ++l) {
    Block b;
    b.ln1_g = init_ones({C});
    b.ln1_b = init_zeros({C});
    b.wq = init_weight({C, C}, rng);
    b.bq = init_zeros({C});
    b.wk = init_weight({C, C}, rng);
    b.bk = init_zeros({C});
    b.wv = init_weight({C, C}, rng);
    b.bv = init_zeros({C});
    b.wo = init_weight({C, C}, rng, resid_scale);
    b.bo = init_zeros({C});
    b.ln2_g = init_ones({C});
    b.ln2_b = init_zeros({C});
    b.w1 = init_weight({C, cfg_.d_ff}, rng);
    b.b1 = init_zeros({cfg_.d_ff});
    b.w2 = init_weight({cfg_.d_ff, C}, rng, resid_scale);
    b.b2 = init_zeros({C});
    blocks_.push_back(std::move(b));
  }
  lnf_g_ = init_ones({C});
  lnf_b_ = init_zeros({C});
  lm_head_ = init_weight({C, cfg_.vocab}, rng);
}

std::vector<Tensor> TransformerLM::parameters() const {
  std::vector<Tensor> ps{tok_emb_, pos_emb_};
  for (const auto& b : blocks_) {
    for (const auto& t :
         {b.ln1_g, b.ln1_b, b.wq, b.bq, b.wk, b.bk, b.wv, b.bv, b.wo, b.bo,
          b.ln2_g, b.ln2_b, b.w1, b.b1, b.w2, b.b2}) {
      ps.push_back(t);
    }
  }
  ps.push_back(lnf_g_);
  ps.push_back(lnf_b_);
  ps.push_back(lm_head_);
  return ps;
}

std::size_t TransformerLM::num_params() const {
  std::size_t n = 0;
  for (const auto& p : parameters()) n += p.numel();
  return n;
}

void TransformerLM::load_from(const TransformerLM& other) {
  auto src = other.parameters();
  auto dst = parameters();
  EVA_REQUIRE(src.size() == dst.size(), "load_from: model shape mismatch");
  for (std::size_t i = 0; i < src.size(); ++i) {
    EVA_REQUIRE(src[i].numel() == dst[i].numel(),
                "load_from: tensor shape mismatch");
    auto s = src[i].data();
    auto d = dst[i].data();
    std::copy(s.begin(), s.end(), d.begin());
  }
  // Packed inference weights are a snapshot of the tensors just
  // overwritten — rebuild them so quantized decoding tracks the load.
  if (qkind_ != QuantKind::kF32) set_inference_quant(qkind_);
}

void TransformerLM::set_inference_quant(QuantKind kind) {
  qkind_ = kind;
  qblocks_.clear();
  qlm_head_ = QuantMatrix{};
  if (kind == QuantKind::kF32) return;
  const auto C = static_cast<std::size_t>(cfg_.d_model);
  const auto F = static_cast<std::size_t>(cfg_.d_ff);
  qblocks_.reserve(blocks_.size());
  for (const auto& b : blocks_) {
    QuantBlock qb;
    qb.wq = QuantMatrix::quantize(kind, b.wq.data().data(), C, C);
    qb.wk = QuantMatrix::quantize(kind, b.wk.data().data(), C, C);
    qb.wv = QuantMatrix::quantize(kind, b.wv.data().data(), C, C);
    qb.wo = QuantMatrix::quantize(kind, b.wo.data().data(), C, C);
    qb.w1 = QuantMatrix::quantize(kind, b.w1.data().data(), C, F);
    qb.w2 = QuantMatrix::quantize(kind, b.w2.data().data(), F, C);
    qblocks_.push_back(std::move(qb));
  }
  qlm_head_ = QuantMatrix::quantize(kind, lm_head_.data().data(), C,
                                    static_cast<std::size_t>(cfg_.vocab));
}

Tensor TransformerLM::block_forward(const Tensor& x, const Block& blk,
                                    bool training, Rng* dropout_rng) const {
  // Attention sublayer.
  Tensor h = layernorm(x, blk.ln1_g, blk.ln1_b);
  Tensor q = linear(h, blk.wq, blk.bq);
  Tensor k = linear(h, blk.wk, blk.bk);
  Tensor v = linear(h, blk.wv, blk.bv);
  Tensor ctx = causal_attention(q, k, v, cfg_.n_heads);
  Tensor att = linear(ctx, blk.wo, blk.bo);
  if (training && dropout_rng != nullptr && cfg_.dropout > 0.0f) {
    att = dropout(att, cfg_.dropout, *dropout_rng, true);
  }
  Tensor x1 = add(x, att);

  // MLP sublayer.
  Tensor m = layernorm(x1, blk.ln2_g, blk.ln2_b);
  Tensor ff = linear(gelu(linear(m, blk.w1, blk.b1)), blk.w2, blk.b2);
  if (training && dropout_rng != nullptr && cfg_.dropout > 0.0f) {
    ff = dropout(ff, cfg_.dropout, *dropout_rng, true);
  }
  return add(x1, ff);
}

Tensor TransformerLM::forward_hidden(const std::vector<int>& tokens, int B,
                                     int T, bool training,
                                     Rng* dropout_rng) const {
  EVA_REQUIRE(T <= cfg_.max_seq, "sequence longer than max_seq");
  EVA_REQUIRE(tokens.size() == static_cast<std::size_t>(B) *
                                   static_cast<std::size_t>(T),
              "token count mismatch");
  Tensor x = embedding(tok_emb_, tokens, B, T);
  std::vector<int> pos(static_cast<std::size_t>(B) * static_cast<std::size_t>(T));
  for (int b = 0; b < B; ++b) {
    for (int t = 0; t < T; ++t) {
      pos[static_cast<std::size_t>(b) * static_cast<std::size_t>(T) +
          static_cast<std::size_t>(t)] = t;
    }
  }
  x = add(x, embedding(pos_emb_, pos, B, T));
  for (const auto& blk : blocks_) {
    x = block_forward(x, blk, training, dropout_rng);
  }
  return layernorm(x, lnf_g_, lnf_b_);
}

Tensor TransformerLM::lm_logits(const Tensor& hidden) const {
  const int B = hidden.dim(0);
  const int T = hidden.dim(1);
  Tensor logits = matmul(hidden, lm_head_);  // (B,T,V)
  return reshape(logits, {B * T, cfg_.vocab});
}

Tensor TransformerLM::forward(const std::vector<int>& tokens, int B, int T,
                              bool training, Rng* dropout_rng) const {
  return lm_logits(forward_hidden(tokens, B, T, training, dropout_rng));
}

// ---------------------------------------------------------------------------
// Inference path (slotted KV cache, no autograd)
// ---------------------------------------------------------------------------

namespace {

/// Layernorm of n rows of C floats from x into y (y may be x), through
/// the training op's row kernel.
void layernorm_rows(const float* x, std::span<const float> g,
                    std::span<const float> b, float* y, std::size_t n,
                    std::size_t C) {
  for (std::size_t i = 0; i < n; ++i) {
    tensor::layernorm_row(x + i * C, g.data(), b.data(), y + i * C,
                          y + i * C, C);
  }
}

/// x = tok_emb[token] + pos_emb[pos], one d_model row.
void embed_row(std::span<const float> te, std::span<const float> pe, int token,
               int pos, int C, float* x) {
  for (int i = 0; i < C; ++i) {
    x[i] = te[static_cast<std::size_t>(token) * static_cast<std::size_t>(C) +
              static_cast<std::size_t>(i)] +
           pe[static_cast<std::size_t>(pos) * static_cast<std::size_t>(C) +
              static_cast<std::size_t>(i)];
  }
}

/// Causal attention for one query row over T cached positions. `kbase` /
/// `vbase` point at position 0 of the slot's cache (positions are C
/// floats apart, head-major within a position).
///
/// Single pass: QK^T, softmax and the V reduction run fused over the
/// cached positions with an online max/normalizer (accumulator rescaled
/// by exp(m_old - m_new) whenever the running max moves), so no score
/// vector is ever materialized and each K/V position is touched exactly
/// once per head.
void attend_row(const float* q, const float* kbase, const float* vbase, int T,
                int C, int H, int hd, float* ctx) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  for (int head = 0; head < H; ++head) {
    const int off = head * hd;
    float m = -1e30f;
    float z = 0.0f;
    for (int i = 0; i < hd; ++i) ctx[off + i] = 0.0f;
    for (int t = 0; t < T; ++t) {
      const std::size_t tc =
          static_cast<std::size_t>(t) * static_cast<std::size_t>(C) +
          static_cast<std::size_t>(off);
      const float* kt = kbase + tc;
      float s = 0;
      for (int i = 0; i < hd; ++i) s += q[off + i] * kt[i];
      s *= scale;
      if (s > m) {
        const float corr = std::exp(m - s);
        z *= corr;
        for (int i = 0; i < hd; ++i) ctx[off + i] *= corr;
        m = s;
      }
      const float p = std::exp(s - m);
      z += p;
      const float* vt = vbase + tc;
      for (int i = 0; i < hd; ++i) ctx[off + i] += p * vt[i];
    }
    const float inv = 1.0f / z;
    for (int i = 0; i < hd; ++i) ctx[off + i] *= inv;
  }
}

/// Y(n,out) = X(n,in) @ W(in,out) + bias, the batched-decode linear,
/// through either weight tier. f32: rows are seeded with the bias and
/// one gemm_nn accumulates on top (plus an unfused GELU pass for
/// kBiasGelu). Quantized: one qgemm with the epilogue fused.
void linear_batched(const float* x, const QuantMatrix* qw,
                    std::span<const float> w, std::span<const float> b,
                    float* y, std::size_t n, int in, int out, Epilogue ep) {
  const auto outz = static_cast<std::size_t>(out);
  if (qw != nullptr && !qw->empty()) {
    tensor::qgemm(x, *qw, b.empty() ? nullptr : b.data(), y, n, ep);
    return;
  }
  if (b.empty()) {
    std::fill(y, y + n * outz, 0.0f);
  } else {
    for (std::size_t r = 0; r < n; ++r) {
      std::copy(b.begin(), b.end(), y + r * outz);
    }
  }
  tensor::gemm_nn(x, w.data(), y, n, static_cast<std::size_t>(in), outz);
  if (ep == Epilogue::kBiasGelu) tensor::gelu_approx_n(y, n * outz);
}

}  // namespace

TransformerLM::BatchedCache TransformerLM::make_batched_cache(
    int capacity) const {
  EVA_REQUIRE(capacity > 0, "make_batched_cache: capacity must be positive");
  BatchedCache c;
  c.capacity = capacity;
  c.slot_stride = cfg_.max_seq * cfg_.d_model;
  const auto slab = static_cast<std::size_t>(capacity) *
                    static_cast<std::size_t>(c.slot_stride);
  c.k.assign(static_cast<std::size_t>(cfg_.n_layers), AlignedVec<float>(slab));
  c.v.assign(static_cast<std::size_t>(cfg_.n_layers), AlignedVec<float>(slab));
  c.len.assign(static_cast<std::size_t>(capacity), 0);
  // Preallocate the step workspace at full width so decode steps are
  // allocation-free regardless of how many slots each step feeds.
  const auto cap = static_cast<std::size_t>(capacity);
  const auto Cz = static_cast<std::size_t>(cfg_.d_model);
  for (auto* buf : {&c.ws.x, &c.ws.h, &c.ws.q, &c.ws.kv, &c.ws.ctx, &c.ws.att}) {
    buf->reserve(cap * Cz);
  }
  c.ws.ff.reserve(cap * static_cast<std::size_t>(cfg_.d_ff));
  return c;
}

void TransformerLM::infer_step_batched(BatchedCache& cache,
                                       const std::vector<int>& slots,
                                       const std::vector<int>& tokens,
                                       std::vector<float>& logits) const {
  const std::size_t n = slots.size();
  EVA_REQUIRE(n > 0 && tokens.size() == n,
              "infer_step_batched: slots/tokens size mismatch");
  const int C = cfg_.d_model;
  const int H = cfg_.n_heads;
  const int hd = C / H;
  const auto Cz = static_cast<std::size_t>(C);

  for (std::size_t i = 0; i < n; ++i) {
    const int s = slots[i];
    EVA_REQUIRE(s >= 0 && s < cache.capacity, "infer_step_batched: bad slot");
    EVA_REQUIRE(cache.len[static_cast<std::size_t>(s)] < cfg_.max_seq,
                "infer_step_batched: slot cache full");
    EVA_REQUIRE(tokens[i] >= 0 && tokens[i] < cfg_.vocab,
                "infer_step_batched: bad token");
  }
  // The vectorized kernels assume cache slabs on cache-line boundaries
  // (make_batched_cache allocates them aligned; a moved-from or
  // hand-built cache could violate this silently).
  EVA_REQUIRE(!cache.k.empty() && is_kernel_aligned(cache.k[0].data()) &&
                  is_kernel_aligned(cache.v[0].data()),
              "infer_step_batched: cache slabs must be 64-byte aligned");

  auto& ws = cache.ws;
  ws.x.resize(n * Cz);
  ws.h.resize(n * Cz);
  ws.q.resize(n * Cz);
  ws.kv.resize(n * Cz);
  ws.ctx.resize(n * Cz);
  ws.att.resize(n * Cz);
  ws.ff.resize(n * static_cast<std::size_t>(cfg_.d_ff));

  // Embeddings: each row at its own slot's next position.
  for (std::size_t i = 0; i < n; ++i) {
    const int pos = cache.len[static_cast<std::size_t>(slots[i])];
    embed_row(tok_emb_.data(), pos_emb_.data(), tokens[i], pos, C,
              ws.x.data() + i * Cz);
  }

  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    const Block& blk = blocks_[l];
    const QuantBlock* qb = qblocks_.empty() ? nullptr : &qblocks_[l];
    // ln1 per row, then fused q/k/v projections for all rows at once.
    layernorm_rows(ws.x.data(), blk.ln1_g.data(), blk.ln1_b.data(),
                   ws.h.data(), n, Cz);
    linear_batched(ws.h.data(), qb ? &qb->wq : nullptr, blk.wq.data(),
                   blk.bq.data(), ws.q.data(), n, C, C, Epilogue::kBias);
    linear_batched(ws.h.data(), qb ? &qb->wk : nullptr, blk.wk.data(),
                   blk.bk.data(), ws.kv.data(), n, C, C, Epilogue::kBias);
    for (std::size_t i = 0; i < n; ++i) {
      const int s = slots[i];
      float* dst = cache.k[l].data() +
                   static_cast<std::size_t>(s) *
                       static_cast<std::size_t>(cache.slot_stride) +
                   static_cast<std::size_t>(cache.len[static_cast<std::size_t>(s)]) * Cz;
      std::copy_n(ws.kv.data() + i * Cz, Cz, dst);
    }
    linear_batched(ws.h.data(), qb ? &qb->wv : nullptr, blk.wv.data(),
                   blk.bv.data(), ws.kv.data(), n, C, C, Epilogue::kBias);
    for (std::size_t i = 0; i < n; ++i) {
      const int s = slots[i];
      float* dst = cache.v[l].data() +
                   static_cast<std::size_t>(s) *
                       static_cast<std::size_t>(cache.slot_stride) +
                   static_cast<std::size_t>(cache.len[static_cast<std::size_t>(s)]) * Cz;
      std::copy_n(ws.kv.data() + i * Cz, Cz, dst);
    }

    // Attention stays per slot: lengths differ under continuous batching.
    for (std::size_t i = 0; i < n; ++i) {
      const int s = slots[i];
      const std::size_t base = static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(cache.slot_stride);
      attend_row(ws.q.data() + i * Cz, cache.k[l].data() + base,
                 cache.v[l].data() + base,
                 cache.len[static_cast<std::size_t>(s)] + 1, C, H, hd,
                 ws.ctx.data() + i * Cz);
    }
    linear_batched(ws.ctx.data(), qb ? &qb->wo : nullptr, blk.wo.data(),
                   blk.bo.data(), ws.att.data(), n, C, C, Epilogue::kBias);
    for (std::size_t i = 0; i < n * Cz; ++i) ws.x[i] += ws.att[i];

    // MLP, fused across rows (GELU fused into the up-projection).
    layernorm_rows(ws.x.data(), blk.ln2_g.data(), blk.ln2_b.data(),
                   ws.h.data(), n, Cz);
    linear_batched(ws.h.data(), qb ? &qb->w1 : nullptr, blk.w1.data(),
                   blk.b1.data(), ws.ff.data(), n, C, cfg_.d_ff,
                   Epilogue::kBiasGelu);
    linear_batched(ws.ff.data(), qb ? &qb->w2 : nullptr, blk.w2.data(),
                   blk.b2.data(), ws.att.data(), n, cfg_.d_ff, C,
                   Epilogue::kBias);
    for (std::size_t i = 0; i < n * Cz; ++i) ws.x[i] += ws.att[i];
  }

  layernorm_rows(ws.x.data(), lnf_g_.data(), lnf_b_.data(), ws.x.data(), n,
                 Cz);
  logits.resize(n * static_cast<std::size_t>(cfg_.vocab));
  linear_batched(ws.x.data(), qlm_head_.empty() ? nullptr : &qlm_head_,
                 lm_head_.data(), {}, logits.data(), n, C, cfg_.vocab,
                 Epilogue::kNone);
  for (std::size_t i = 0; i < n; ++i) {
    ++cache.len[static_cast<std::size_t>(slots[i])];
  }
}

}  // namespace eva::nn
