#include "attention_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <utility>

namespace eva::tensor::reference {

namespace {

using detail::Node;

/// A zero-filled result of one parent, recorded on the tape when the
/// parent requires grad (the library's make_result).
std::shared_ptr<Node> result(Shape shape, const char* op,
                             std::shared_ptr<Node> parent) {
  auto n = std::make_shared<Node>();
  n->shape = std::move(shape);
  n->data.assign(shape_numel(n->shape), 0.0f);
  n->op = op;
  n->requires_grad = parent->requires_grad;
  if (n->requires_grad) n->parents = {std::move(parent)};
  return n;
}

// Index map between (B,T,H,D) packed as (B,T,H*D) and (B*H,T,D).
void heads_copy(const float* src, float* dst, std::size_t B, std::size_t T,
                std::size_t H, std::size_t D, bool splitting) {
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t h = 0; h < H; ++h) {
        const std::size_t merged = ((b * T + t) * H + h) * D;
        const std::size_t split = ((b * H + h) * T + t) * D;
        const float* s = src + (splitting ? merged : split);
        float* d = dst + (splitting ? split : merged);
        for (std::size_t k = 0; k < D; ++k) d[k] = s[k];
      }
    }
  }
}

void heads_accum(const float* src, float* dst, std::size_t B, std::size_t T,
                 std::size_t H, std::size_t D, bool splitting) {
  // Backward of heads_copy: accumulate through the inverse index map.
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t h = 0; h < H; ++h) {
        const std::size_t merged = ((b * T + t) * H + h) * D;
        const std::size_t split = ((b * H + h) * T + t) * D;
        const float* s = src + (splitting ? split : merged);
        float* d = dst + (splitting ? merged : split);
        for (std::size_t k = 0; k < D; ++k) d[k] += s[k];
      }
    }
  }
}

}  // namespace

Tensor split_heads(const Tensor& a, int heads) {
  auto an = a.node();
  const Shape& s = an->shape;
  EVA_REQUIRE(s.size() == 3, "split_heads needs (B,T,C)");
  EVA_REQUIRE(s[2] % heads == 0, "channels not divisible by heads");
  const auto B = static_cast<std::size_t>(s[0]);
  const auto T = static_cast<std::size_t>(s[1]);
  const auto H = static_cast<std::size_t>(heads);
  const auto D = static_cast<std::size_t>(s[2] / heads);
  auto out = result({s[0] * heads, s[1], s[2] / heads}, "split_heads", an);
  heads_copy(an->data.data(), out->data.data(), B, T, H, D, true);
  if (out->requires_grad) {
    out->backward = [an, B, T, H, D](Node& self) {
      heads_accum(self.grad.data(), an->grad.data(), B, T, H, D, true);
    };
  }
  return Tensor{out};
}

Tensor merge_heads(const Tensor& a, int heads) {
  auto an = a.node();
  const Shape& s = an->shape;
  EVA_REQUIRE(s.size() == 3, "merge_heads needs (B*H,T,D)");
  EVA_REQUIRE(s[0] % heads == 0, "batch not divisible by heads");
  const auto B = static_cast<std::size_t>(s[0] / heads);
  const auto T = static_cast<std::size_t>(s[1]);
  const auto H = static_cast<std::size_t>(heads);
  const auto D = static_cast<std::size_t>(s[2]);
  auto out = result({s[0] / heads, s[1], s[2] * heads}, "merge_heads", an);
  heads_copy(an->data.data(), out->data.data(), B, T, H, D, false);
  if (out->requires_grad) {
    out->backward = [an, B, T, H, D](Node& self) {
      heads_accum(self.grad.data(), an->grad.data(), B, T, H, D, false);
    };
  }
  return Tensor{out};
}

Tensor causal_softmax(const Tensor& scores, int seq_len) {
  auto an = scores.node();
  const Shape& s = an->shape;
  const auto cols = static_cast<std::size_t>(s.back());
  EVA_REQUIRE(cols == static_cast<std::size_t>(seq_len),
              "causal_softmax last dim must equal seq_len");
  const std::size_t rows = an->numel() / cols;
  EVA_REQUIRE(rows % cols == 0,
              "causal_softmax rows must be a multiple of seq_len");
  auto out = result(s, "causal_softmax", an);
  const float* x = an->data.data();
  float* y = out->data.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t v = r % cols + 1;
    const float* xr = x + r * cols;
    float* yr = y + r * cols;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < v; ++c) mx = std::max(mx, xr[c]);
    float z = 0.0f;
    for (std::size_t c = 0; c < v; ++c) {
      yr[c] = std::exp(xr[c] - mx);
      z += yr[c];
    }
    const float inv = 1.0f / z;
    for (std::size_t c = 0; c < v; ++c) yr[c] *= inv;
    for (std::size_t c = v; c < cols; ++c) yr[c] = 0.0f;
  }
  if (out->requires_grad) {
    out->backward = [an, rows, cols](Node& self) {
      const float* yv = self.data.data();
      const float* g = self.grad.data();
      float* gx = an->grad.data();
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t v = r % cols + 1;
        const float* yr = yv + r * cols;
        const float* gr = g + r * cols;
        float* gxr = gx + r * cols;
        float dot = 0.0f;
        for (std::size_t c = 0; c < v; ++c) dot += yr[c] * gr[c];
        for (std::size_t c = 0; c < v; ++c) gxr[c] += yr[c] * (gr[c] - dot);
      }
    };
  }
  return Tensor{out};
}

Tensor causal_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                        int heads) {
  const int C = q.dim(2);
  const int T = q.dim(1);
  const float scale = 1.0f / std::sqrt(static_cast<float>(C / heads));
  const Tensor qh = reference::split_heads(q, heads);
  const Tensor kh = reference::split_heads(k, heads);
  const Tensor vh = reference::split_heads(v, heads);
  const Tensor scores = mul_scalar(matmul(qh, transpose_last(kh)), scale);
  const Tensor probs = reference::causal_softmax(scores, T);
  return reference::merge_heads(matmul(probs, vh), heads);
}

}  // namespace eva::tensor::reference
