#include "tensor/tensor.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <sstream>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tanh.hpp"
#include "util/parallel.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace eva::tensor {

using detail::Node;
using detail::Storage;

// ---------------------------------------------------------------------------
// Shape helpers
// ---------------------------------------------------------------------------

std::size_t shape_numel(const Shape& s) {
  std::size_t n = 1;
  for (int d : s) {
    EVA_ASSERT(d > 0, "shape dims must be positive");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

std::string shape_str(const Shape& s) {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << ',';
    os << s[i];
  }
  os << ')';
  return os.str();
}

bool same_shape(const Shape& a, const Shape& b) { return a == b; }

bool is_suffix(const Shape& suffix, const Shape& full) {
  if (suffix.size() > full.size()) return false;
  return std::equal(suffix.rbegin(), suffix.rend(), full.rbegin());
}

// ---------------------------------------------------------------------------
// Storage cache (DESIGN.md §6 "Tensor storage")
// ---------------------------------------------------------------------------

namespace {

// Smaller blocks come from the heap, which keeps them in its own bins.
constexpr std::size_t kCachedMin = std::size_t{64} << 10;
// A mapping starts with its length; the data follows 64-byte aligned.
constexpr std::size_t kHeader = 64;

/// Mapped blocks of kCachedMin bytes and up, kept after their buffer dies.
/// A request takes the smallest cached block of at least its size and at
/// most twice it, or maps a fresh one; live plus cached bytes never exceed
/// the highest live total so far, and a fresh mapping unmaps the least
/// recently released cached blocks to stay under it. Cached blocks and
/// the unused tail of a live one are poisoned for ASan.
class StorageCache {
 public:
  void* acquire(std::size_t bytes) {
    std::lock_guard lock(mu_);
    char* base = nullptr;
    std::size_t len = 0;
    auto it = cached_.lower_bound(bytes);
    if (it != cached_.end() && it->first - bytes <= bytes) {
      base = it->second.base;
      len = it->first + kHeader;
      cached_.erase(it);
      stats_.cached_bytes -= len;
      stats_.live_bytes += len;
      reused_.add();
    } else {
      len = (bytes + kHeader + page_ - 1) / page_ * page_;
      void* m = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (m == MAP_FAILED) throw std::bad_alloc();
      base = static_cast<char*>(m);
      std::memcpy(base, &len, sizeof len);
      mapped_.add();
      stats_.live_bytes += len;
      stats_.peak_live_bytes =
          std::max(stats_.peak_live_bytes, stats_.live_bytes);
      while (stats_.live_bytes + stats_.cached_bytes >
             stats_.peak_live_bytes) {
        const auto victim = std::min_element(
            cached_.begin(), cached_.end(), [](const auto& a, const auto& b) {
              return a.second.released < b.second.released;
            });
        const std::size_t vlen = victim->first + kHeader;
        ASAN_UNPOISON_MEMORY_REGION(victim->second.base, vlen);
        ::munmap(victim->second.base, vlen);
        stats_.cached_bytes -= vlen;
        cached_.erase(victim);
        unmapped_.add();
      }
    }
    cached_mb_.set(static_cast<double>(stats_.cached_bytes) / (1 << 20));
    char* p = base + kHeader;
    ASAN_POISON_MEMORY_REGION(p, len - kHeader);
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
    return p;
  }

  void release(void* p) noexcept {
    char* base = static_cast<char*>(p) - kHeader;
    std::size_t len = 0;
    std::memcpy(&len, base, sizeof len);
    ASAN_POISON_MEMORY_REGION(p, len - kHeader);
    std::lock_guard lock(mu_);
    stats_.live_bytes -= len;
    stats_.cached_bytes += len;
    cached_.emplace(len - kHeader, Cached{base, ++releases_});
    cached_mb_.set(static_cast<double>(stats_.cached_bytes) / (1 << 20));
  }

  StorageStats stats() {
    std::lock_guard lock(mu_);
    return stats_;
  }

 private:
  const std::size_t page_ = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  struct Cached {
    char* base;              // the mapping
    std::uint64_t released;  // release order, for eviction
  };
  std::mutex mu_;
  std::multimap<std::size_t, Cached> cached_;  // keyed by data capacity
  std::uint64_t releases_ = 0;
  StorageStats stats_;
  obs::Counter& reused_ = obs::counter("tensor.storage.reused");
  obs::Counter& mapped_ = obs::counter("tensor.storage.mapped");
  obs::Counter& unmapped_ = obs::counter("tensor.storage.unmapped");
  obs::Gauge& cached_mb_ = obs::gauge("tensor.storage.cached_mb");
};

StorageCache& storage_cache() {
  // Leaked: tensors held by statics may die after static destructors run.
  static auto* cache = new StorageCache();
  return *cache;
}

}  // namespace

void* detail::storage_acquire(std::size_t bytes) {
  if (bytes < kCachedMin) return ::operator new(bytes);
  return storage_cache().acquire(bytes);
}

void detail::storage_release(void* p, std::size_t bytes) noexcept {
  if (bytes < kCachedMin) {
    ::operator delete(p);
  } else {
    storage_cache().release(p);
  }
}

StorageStats storage_stats() { return storage_cache().stats(); }

// ---------------------------------------------------------------------------
// Tensor basics
// ---------------------------------------------------------------------------

namespace {

std::shared_ptr<Node> make_leaf(Shape shape, Storage data,
                                bool requires_grad) {
  EVA_ASSERT(shape_numel(shape) == data.size(), "data size / shape mismatch");
  auto n = std::make_shared<Node>();
  n->shape = std::move(shape);
  n->data = std::move(data);
  n->requires_grad = requires_grad;
  return n;
}

std::shared_ptr<Node> make_result(Shape shape, const char* op,
                                  std::vector<std::shared_ptr<Node>> parents) {
  auto n = std::make_shared<Node>();
  n->shape = std::move(shape);
  n->data.assign(shape_numel(n->shape), 0.0f);
  n->op = op;
  bool rg = false;
  for (const auto& p : parents) rg = rg || p->requires_grad;
  n->requires_grad = rg;
  if (rg) n->parents = std::move(parents);
  return n;
}

}  // namespace

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  const std::size_t n = shape_numel(shape);
  return Tensor{make_leaf(std::move(shape), Storage(n, 0.0f), requires_grad)};
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  const std::size_t n = shape_numel(shape);
  return Tensor{make_leaf(std::move(shape), Storage(n, value), requires_grad)};
}

Tensor Tensor::from(Shape shape, std::vector<float> data, bool requires_grad) {
  return Tensor{make_leaf(std::move(shape), Storage(data.begin(), data.end()),
                          requires_grad)};
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev, bool requires_grad) {
  const std::size_t n = shape_numel(shape);
  Storage data(n);
  for (auto& v : data) v = static_cast<float>(rng.normal()) * stddev;
  return Tensor{make_leaf(std::move(shape), std::move(data), requires_grad)};
}

Tensor Tensor::scalar(float v, bool requires_grad) {
  return from({1}, {v}, requires_grad);
}

const Shape& Tensor::shape() const {
  EVA_ASSERT(node_, "undefined tensor");
  return node_->shape;
}

int Tensor::dim(int i) const {
  const auto& s = shape();
  if (i < 0) i += static_cast<int>(s.size());
  EVA_ASSERT(i >= 0 && i < static_cast<int>(s.size()), "dim index out of range");
  return s[static_cast<std::size_t>(i)];
}

std::size_t Tensor::numel() const {
  EVA_ASSERT(node_, "undefined tensor");
  return node_->numel();
}

bool Tensor::requires_grad() const {
  EVA_ASSERT(node_, "undefined tensor");
  return node_->requires_grad;
}

std::span<float> Tensor::data() {
  EVA_ASSERT(node_, "undefined tensor");
  return node_->data;
}

std::span<const float> Tensor::data() const {
  EVA_ASSERT(node_, "undefined tensor");
  return node_->data;
}

std::span<float> Tensor::grad() {
  EVA_ASSERT(node_, "undefined tensor");
  node_->ensure_grad();
  return node_->grad;
}

std::span<const float> Tensor::grad() const {
  EVA_ASSERT(node_, "undefined tensor");
  const_cast<Node*>(node_.get())->ensure_grad();
  return node_->grad;
}

float Tensor::item() const {
  EVA_ASSERT(numel() == 1, "item() requires a single-element tensor");
  return node_->data[0];
}

void Tensor::zero_grad() {
  EVA_ASSERT(node_, "undefined tensor");
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
}

Tensor Tensor::detach() const {
  EVA_ASSERT(node_, "undefined tensor");
  return Tensor{make_leaf(node_->shape, node_->data, false)};
}

void Tensor::backward() {
  EVA_ASSERT(node_, "undefined tensor");
  EVA_ASSERT(numel() == 1, "backward() must start from a scalar");
  EVA_ASSERT(node_->requires_grad, "backward() on non-grad tensor");

  // Iterative post-order DFS to get a topological order of the tape.
  std::vector<Node*> topo;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({node_.get(), 0});
  visited.insert(node_.get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      topo.push_back(f.node);
      stack.pop_back();
    }
  }

  node_->ensure_grad();
  node_->grad[0] = 1.0f;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node* n = *it;
    if (n->backward) {
      for (const auto& p : n->parents) {
        if (p->requires_grad) p->ensure_grad();
      }
      obs::Span span(n->op);
      n->backward(*n);
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise binary ops with suffix broadcast
// ---------------------------------------------------------------------------

namespace {

enum class BinKind { Add, Sub, Mul };

/// Calls f(i, j) for every output element i and the element j = i % bsz
/// of a suffix-broadcast operand of bsz elements, without dividing:
/// same-shape operands in element chunks, any other b over rows of bsz
/// elements, j running along each row.
template <typename F>
void for_each_pair(std::size_t n, std::size_t bsz, F f) {
  if (bsz == n) {
    parallel_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) f(i, i);
    });
    return;
  }
  parallel_chunks(
      0, n / bsz,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t row = lo * bsz; row < hi * bsz; row += bsz) {
          for (std::size_t j = 0; j < bsz; ++j) f(row + j, j);
        }
      },
      std::max<std::size_t>(1024 / bsz, 1));
}

Tensor binary_op(const Tensor& a, const Tensor& b, BinKind kind,
                 const char* name) {
  auto an = a.node();
  auto bn = b.node();
  EVA_ASSERT(an && bn, "undefined operand");
  const bool scalar_b = bn->numel() == 1;
  EVA_REQUIRE(same_shape(an->shape, bn->shape) || scalar_b ||
                  is_suffix(bn->shape, an->shape),
              std::string(name) + ": incompatible shapes " +
                  shape_str(an->shape) + " vs " + shape_str(bn->shape));

  auto out = make_result(an->shape, name, {an, bn});
  const std::size_t n = out->numel();
  const std::size_t bsz = bn->numel();
  const float* pa = an->data.data();
  const float* pb = bn->data.data();
  float* po = out->data.data();
  switch (kind) {
    case BinKind::Add:
      for_each_pair(n, bsz, [&](std::size_t i, std::size_t j) {
        po[i] = pa[i] + pb[j];
      });
      break;
    case BinKind::Sub:
      for_each_pair(n, bsz, [&](std::size_t i, std::size_t j) {
        po[i] = pa[i] - pb[j];
      });
      break;
    case BinKind::Mul:
      for_each_pair(n, bsz, [&](std::size_t i, std::size_t j) {
        po[i] = pa[i] * pb[j];
      });
      break;
  }

  if (out->requires_grad) {
    out->backward = [an, bn, kind, n, bsz](Node& self) {
      const float* g = self.grad.data();
      if (an->requires_grad) {
        float* ga = an->grad.data();
        const float* pb2 = bn->data.data();
        if (kind == BinKind::Mul) {
          for_each_pair(n, bsz, [&](std::size_t i, std::size_t j) {
            ga[i] += g[i] * pb2[j];
          });
        } else {
          parallel_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) ga[i] += g[i];
          });
        }
      }
      if (bn->requires_grad) {
        float* gb = bn->grad.data();
        const float* pa2 = an->data.data();
        // The broadcast operand reduces n -> bsz, so partition over the
        // *output* indices [0,bsz): each gb[j] is owned by one chunk and
        // accumulates its strided column in the same i-ascending order as
        // the serial loop (bitwise-identical result).
        parallel_chunks(0, bsz, [&](std::size_t jlo, std::size_t jhi) {
          for (std::size_t base = 0; base < n; base += bsz) {
            switch (kind) {
              case BinKind::Add:
                for (std::size_t j = jlo; j < jhi; ++j) gb[j] += g[base + j];
                break;
              case BinKind::Sub:
                for (std::size_t j = jlo; j < jhi; ++j) gb[j] -= g[base + j];
                break;
              case BinKind::Mul:
                for (std::size_t j = jlo; j < jhi; ++j) {
                  gb[j] += g[base + j] * pa2[base + j];
                }
                break;
            }
          }
        });
      }
    };
  }
  return Tensor{out};
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, BinKind::Add, "add");
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, BinKind::Sub, "sub");
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, BinKind::Mul, "mul");
}

Tensor add_scalar(const Tensor& a, float s) {
  auto an = a.node();
  auto out = make_result(an->shape, "add_scalar", {an});
  for (std::size_t i = 0; i < out->numel(); ++i) out->data[i] = an->data[i] + s;
  if (out->requires_grad) {
    out->backward = [an](Node& self) {
      for (std::size_t i = 0; i < self.numel(); ++i) {
        an->grad[i] += self.grad[i];
      }
    };
  }
  return Tensor{out};
}

Tensor mul_scalar(const Tensor& a, float s) {
  auto an = a.node();
  auto out = make_result(an->shape, "mul_scalar", {an});
  for (std::size_t i = 0; i < out->numel(); ++i) out->data[i] = an->data[i] * s;
  if (out->requires_grad) {
    out->backward = [an, s](Node& self) {
      for (std::size_t i = 0; i < self.numel(); ++i) {
        an->grad[i] += self.grad[i] * s;
      }
    };
  }
  return Tensor{out};
}

// ---------------------------------------------------------------------------
// Unary ops
// ---------------------------------------------------------------------------

namespace {

/// Generic unary op: fwd computes y from x; dfd computes dy/dx from (x, y).
template <typename F, typename G>
Tensor unary_op(const Tensor& a, const char* name, F fwd, G dfd) {
  auto an = a.node();
  EVA_ASSERT(an, "undefined operand");
  auto out = make_result(an->shape, name, {an});
  const std::size_t n = out->numel();
  const float* px = an->data.data();
  float* py = out->data.data();
  parallel_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) py[i] = fwd(px[i]);
  });
  if (out->requires_grad) {
    out->backward = [an, dfd, n](Node& self) {
      const float* x = an->data.data();
      const float* y = self.data.data();
      const float* g = self.grad.data();
      float* gx = an->grad.data();
      parallel_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) gx[i] += g[i] * dfd(x[i], y[i]);
      });
    };
  }
  return Tensor{out};
}

}  // namespace

Tensor neg(const Tensor& a) {
  return unary_op(
      a, "neg", [](float x) { return -x; },
      [](float, float) { return -1.0f; });
}

Tensor exp_t(const Tensor& a) {
  return unary_op(
      a, "exp", [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor log_t(const Tensor& a) {
  return unary_op(
      a, "log",
      [](float x) {
        EVA_ASSERT(x > 0.0f, "log of non-positive value");
        return std::log(x);
      },
      [](float x, float) { return 1.0f / x; });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, "sigmoid", [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

}  // namespace

void gelu_approx_n(const float* x, float* y, std::size_t n, float* t) {
  // u and y are computed here, with this file's (contracting) flags, a
  // stack chunk at a time; tanh(u) runs in lanes (tensor/tanh.hpp),
  // straight into `t` when given.
  constexpr std::size_t kChunk = 256;
  float u[kChunk];
  for (std::size_t c = 0; c < n; c += kChunk) {
    const std::size_t m = std::min(kChunk, n - c);
    const float* xc = x + c;
    for (std::size_t i = 0; i < m; ++i) {
      u[i] = kGeluC * (xc[i] + kGeluA * xc[i] * xc[i] * xc[i]);
    }
    float* tc = t ? t + c : u;
    tanh_n(u, tc, m);
    for (std::size_t i = 0; i < m; ++i) {
      y[c + i] = 0.5f * xc[i] * (1.0f + tc[i]);
    }
  }
}

Tensor gelu(const Tensor& a) {
  auto an = a.node();
  EVA_ASSERT(an, "undefined operand");
  auto out = make_result(an->shape, "gelu", {an});
  const std::size_t n = out->numel();
  // tanh(u) kept for the backward pass (as layernorm keeps xhat): tanh
  // is most of GELU's cost, so it runs once per element.
  auto kept = out->requires_grad ? std::make_shared<Storage>(n) : nullptr;
  const float* px = an->data.data();
  float* py = out->data.data();
  float* pt = kept ? kept->data() : nullptr;
  parallel_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
    gelu_approx_n(px + lo, py + lo, hi - lo, pt ? pt + lo : nullptr);
  });
  if (out->requires_grad) {
    out->backward = [an, kept, n](Node& self) {
      const float* px2 = an->data.data();
      const float* pt2 = kept->data();
      const float* g = self.grad.data();
      float* gx = an->grad.data();
      parallel_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const float x = px2[i];
          const float t = pt2[i];
          const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
          gx[i] += g[i] * (0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du);
        }
      });
    };
  }
  return Tensor{out};
}

Tensor square(const Tensor& a) {
  return unary_op(
      a, "square", [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor clamp_t(const Tensor& a, float lo, float hi) {
  EVA_REQUIRE(lo <= hi, "clamp_t: lo must be <= hi");
  return unary_op(
      a, "clamp",
      [lo, hi](float x) { return std::min(std::max(x, lo), hi); },
      [lo, hi](float x, float) {
        return (x >= lo && x <= hi) ? 1.0f : 0.0f;
      });
}

Tensor min_t(const Tensor& a, const Tensor& b) {
  auto an = a.node();
  auto bn = b.node();
  EVA_ASSERT(an && bn, "undefined operand");
  EVA_REQUIRE(same_shape(an->shape, bn->shape), "min_t: shape mismatch");
  auto out = make_result(an->shape, "min", {an, bn});
  const std::size_t n = out->numel();
  for (std::size_t i = 0; i < n; ++i) {
    out->data[i] = std::min(an->data[i], bn->data[i]);
  }
  if (out->requires_grad) {
    out->backward = [an, bn, n](Node& self) {
      for (std::size_t i = 0; i < n; ++i) {
        const bool a_small = an->data[i] <= bn->data[i];
        if (a_small && an->requires_grad) an->grad[i] += self.grad[i];
        if (!a_small && bn->requires_grad) bn->grad[i] += self.grad[i];
      }
    };
  }
  return Tensor{out};
}

// ---------------------------------------------------------------------------
// Matmul (blocked kernels in gemm.cpp; all variants parallel, including
// the weight-gradient gemm_tn which partitions over output columns)
// ---------------------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  auto an = a.node();
  auto bn = b.node();
  EVA_ASSERT(an && bn, "undefined operand");
  const Shape& sa = an->shape;
  const Shape& sb = bn->shape;

  if (sa.size() == 2 && sb.size() == 2) {
    EVA_REQUIRE(sa[1] == sb[0], "matmul inner dims mismatch");
    const auto M = static_cast<std::size_t>(sa[0]);
    const auto K = static_cast<std::size_t>(sa[1]);
    const auto N = static_cast<std::size_t>(sb[1]);
    auto out = make_result({sa[0], sb[1]}, "matmul", {an, bn});
    gemm_nn(an->data.data(), bn->data.data(), out->data.data(), M, K, N);
    if (out->requires_grad) {
      out->backward = [an, bn, M, K, N](Node& self) {
        if (an->requires_grad) {
          gemm_nt(self.grad.data(), bn->data.data(), an->grad.data(), M, N, K);
        }
        if (bn->requires_grad) {
          gemm_tn(an->data.data(), self.grad.data(), bn->grad.data(), M, K, N);
        }
      };
    }
    return Tensor{out};
  }

  if (sa.size() == 3 && sb.size() == 2) {
    // Fold (B,M,K) to (B*M,K): same math, one kernel call.
    EVA_REQUIRE(sa[2] == sb[0], "matmul inner dims mismatch");
    const auto B = static_cast<std::size_t>(sa[0]);
    const auto M = static_cast<std::size_t>(sa[1]);
    const auto K = static_cast<std::size_t>(sa[2]);
    const auto N = static_cast<std::size_t>(sb[1]);
    auto out = make_result({sa[0], sa[1], sb[1]}, "matmul", {an, bn});
    gemm_nn(an->data.data(), bn->data.data(), out->data.data(), B * M, K, N);
    if (out->requires_grad) {
      out->backward = [an, bn, B, M, K, N](Node& self) {
        if (an->requires_grad) {
          gemm_nt(self.grad.data(), bn->data.data(), an->grad.data(), B * M, N,
                  K);
        }
        if (bn->requires_grad) {
          gemm_tn(an->data.data(), self.grad.data(), bn->grad.data(), B * M, K,
                  N);
        }
      };
    }
    return Tensor{out};
  }

  if (sa.size() == 3 && sb.size() == 3) {
    EVA_REQUIRE(sa[0] == sb[0], "batched matmul batch mismatch");
    EVA_REQUIRE(sa[2] == sb[1], "matmul inner dims mismatch");
    const auto B = static_cast<std::size_t>(sa[0]);
    const auto M = static_cast<std::size_t>(sa[1]);
    const auto K = static_cast<std::size_t>(sa[2]);
    const auto N = static_cast<std::size_t>(sb[2]);
    auto out = make_result({sa[0], sa[1], sb[2]}, "bmm", {an, bn});
    const float* pa = an->data.data();
    const float* pb = bn->data.data();
    float* pc = out->data.data();
    // Parallelize over batches; the per-batch gemm runs inline (nested
    // parallel regions serialize), so there is no oversubscription.
    parallel_for(0, B, [&](std::size_t batch) {
      gemm_nn(pa + batch * M * K, pb + batch * K * N, pc + batch * M * N, M, K,
              N);
    });
    if (out->requires_grad) {
      out->backward = [an, bn, B, M, K, N](Node& self) {
        const float* g = self.grad.data();
        if (an->requires_grad) {
          float* ga = an->grad.data();
          const float* pb2 = bn->data.data();
          parallel_for(0, B, [&](std::size_t batch) {
            gemm_nt(g + batch * M * N, pb2 + batch * K * N, ga + batch * M * K,
                    M, N, K);
          });
        }
        if (bn->requires_grad) {
          float* gb = bn->grad.data();
          const float* pa2 = an->data.data();
          parallel_for(0, B, [&](std::size_t batch) {
            gemm_tn(pa2 + batch * M * K, g + batch * M * N, gb + batch * K * N,
                    M, K, N);
          });
        }
      };
    }
    return Tensor{out};
  }

  throw Error("matmul: unsupported ranks " + shape_str(sa) + " x " +
              shape_str(sb));
}

Tensor transpose_last(const Tensor& a) {
  auto an = a.node();
  EVA_ASSERT(an, "undefined operand");
  const Shape& s = an->shape;
  EVA_REQUIRE(s.size() >= 2, "transpose_last needs rank >= 2");
  Shape so = s;
  std::swap(so[so.size() - 1], so[so.size() - 2]);
  const auto R = static_cast<std::size_t>(s[s.size() - 2]);
  const auto C = static_cast<std::size_t>(s[s.size() - 1]);
  const std::size_t mats = an->numel() / (R * C);
  auto out = make_result(so, "transpose", {an});
  const float* px = an->data.data();
  float* py = out->data.data();
  for (std::size_t b = 0; b < mats; ++b) {
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < C; ++c) {
        py[b * R * C + c * R + r] = px[b * R * C + r * C + c];
      }
    }
  }
  if (out->requires_grad) {
    out->backward = [an, mats, R, C](Node& self) {
      const float* g = self.grad.data();
      float* gx = an->grad.data();
      for (std::size_t b = 0; b < mats; ++b) {
        for (std::size_t r = 0; r < R; ++r) {
          for (std::size_t c = 0; c < C; ++c) {
            gx[b * R * C + r * C + c] += g[b * R * C + c * R + r];
          }
        }
      }
    };
  }
  return Tensor{out};
}

Tensor reshape(const Tensor& a, Shape shape) {
  auto an = a.node();
  EVA_ASSERT(an, "undefined operand");
  EVA_REQUIRE(shape_numel(shape) == an->numel(), "reshape numel mismatch");
  auto out = make_result(std::move(shape), "reshape", {an});
  out->data = an->data;
  if (out->requires_grad) {
    out->backward = [an](Node& self) {
      for (std::size_t i = 0; i < self.numel(); ++i) {
        an->grad[i] += self.grad[i];
      }
    };
  }
  return Tensor{out};
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Tensor sum_all(const Tensor& a) {
  auto an = a.node();
  EVA_ASSERT(an, "undefined operand");
  auto out = make_result({1}, "sum", {an});
  double acc = 0.0;
  for (float v : an->data) acc += v;
  out->data[0] = static_cast<float>(acc);
  if (out->requires_grad) {
    out->backward = [an](Node& self) {
      const float g = self.grad[0];
      for (auto& gv : an->grad) gv += g;
    };
  }
  return Tensor{out};
}

Tensor mean_all(const Tensor& a) {
  auto an = a.node();
  EVA_ASSERT(an, "undefined operand");
  auto out = make_result({1}, "mean", {an});
  double acc = 0.0;
  for (float v : an->data) acc += v;
  const auto n = static_cast<float>(an->numel());
  out->data[0] = static_cast<float>(acc) / n;
  if (out->requires_grad) {
    out->backward = [an, n](Node& self) {
      const float g = self.grad[0] / n;
      for (auto& gv : an->grad) gv += g;
    };
  }
  return Tensor{out};
}

// ---------------------------------------------------------------------------
// Fused NN ops
// ---------------------------------------------------------------------------

namespace {

/// Softmax of the first v entries of a row of cols (x and y may be the
/// same row); the other cols - v entries get probability 0.
void softmax_row(const float* x, float* y, std::size_t v, std::size_t cols) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::size_t c = 0; c < v; ++c) mx = std::max(mx, x[c]);
  float z = 0.0f;
  for (std::size_t c = 0; c < v; ++c) {
    y[c] = std::exp(x[c] - mx);
    z += y[c];
  }
  const float inv = 1.0f / z;
  for (std::size_t c = 0; c < v; ++c) y[c] *= inv;
  for (std::size_t c = v; c < cols; ++c) y[c] = 0.0f;
}

}  // namespace

Tensor softmax_lastdim(const Tensor& a) {
  auto an = a.node();
  EVA_ASSERT(an, "undefined operand");
  const Shape& s = an->shape;
  const auto cols = static_cast<std::size_t>(s.back());
  const std::size_t rows = an->numel() / cols;
  auto out = make_result(s, "softmax", {an});
  const float* x = an->data.data();
  float* y = out->data.data();
  parallel_chunks(0, rows, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      softmax_row(x + r * cols, y + r * cols, cols, cols);
    }
  });
  if (out->requires_grad) {
    out->backward = [an, rows, cols](Node& self) {
      const float* yv = self.data.data();
      const float* g = self.grad.data();
      float* gx = an->grad.data();
      parallel_chunks(0, rows, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float* yr = yv + r * cols;
          const float* gr = g + r * cols;
          float* gxr = gx + r * cols;
          float dot = 0.0f;
          for (std::size_t c = 0; c < cols; ++c) dot += yr[c] * gr[c];
          for (std::size_t c = 0; c < cols; ++c) {
            gxr[c] += yr[c] * (gr[c] - dot);
          }
        }
      });
    };
  }
  return Tensor{out};
}

Tensor causal_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                        int heads) {
  auto qn = q.node();
  auto kn = k.node();
  auto vn = v.node();
  EVA_ASSERT(qn && kn && vn, "undefined operand");
  const Shape& s = qn->shape;
  EVA_REQUIRE(s.size() == 3 && same_shape(s, kn->shape) &&
                  same_shape(s, vn->shape),
              "causal_attention needs q, k and v of one (B,T,C) shape, got " +
                  shape_str(s) + ", " + shape_str(kn->shape) + ", " +
                  shape_str(vn->shape));
  EVA_REQUIRE(heads > 0 && s[2] % heads == 0,
              "causal_attention: " + std::to_string(heads) +
                  " heads do not divide " + std::to_string(s[2]) +
                  " channels");
  const auto T = static_cast<std::size_t>(s[1]);
  const auto C = static_cast<std::size_t>(s[2]);
  const auto H = static_cast<std::size_t>(heads);
  const std::size_t D = C / H;
  const std::size_t BH = static_cast<std::size_t>(s[0]) * H;
  const float scale = 1.0f / std::sqrt(static_cast<float>(D));
  auto out = make_result(s, "causal_attention", {qn, kn, vn});
  // P of every (batch, head), zero above the diagonal, kept for backward.
  auto probs = std::make_shared<Storage>(BH * T * T);
  // Head h of batch b starts at this offset of a (B,T,C) tensor.
  const auto head = [T, C, H, D](std::size_t bh) {
    return bh / H * T * C + bh % H * D;
  };
  parallel_for(0, BH, [&](std::size_t bh) {
    const std::size_t o = head(bh);
    float* p = probs->data() + bh * T * T;
    gemm_nt_causal(qn->data.data() + o, C, kn->data.data() + o, C, p, T, D);
    for (std::size_t i = 0; i < T; ++i) {
      float* row = p + i * T;
      for (std::size_t c = 0; c <= i; ++c) row[c] *= scale;
      softmax_row(row, row, i + 1, T);
    }
    gemm_nn_causal(p, vn->data.data() + o, C, out->data.data() + o, C, T, D);
  });
  if (out->requires_grad) {
    out->backward = [qn, kn, vn, probs, head, BH, T, C, D,
                     scale](Node& self) {
      const float* g = self.grad.data();
      parallel_for(0, BH, [&](std::size_t bh) {
        const std::size_t o = head(bh);
        const float* p = probs->data() + bh * T * T;
        if (vn->requires_grad) {
          gemm_tn_causal(p, g + o, C, vn->grad.data() + o, C, T, D);
        }
        if (!qn->requires_grad && !kn->requires_grad) return;
        // dP = G V^T on the lower band; then per row the softmax backward
        // and the score scale, in place, leave dS, zero above the diagonal.
        Storage ds(T * T);
        gemm_nt_causal(g + o, C, vn->data.data() + o, C, ds.data(), T, D);
        for (std::size_t i = 0; i < T; ++i) {
          const float* pr = p + i * T;
          float* dr = ds.data() + i * T;
          float dot = 0.0f;
          for (std::size_t c = 0; c <= i; ++c) dot += pr[c] * dr[c];
          for (std::size_t c = 0; c <= i; ++c) {
            dr[c] = pr[c] * (dr[c] - dot) * scale;
          }
          std::fill(dr + i + 1, dr + T, 0.0f);
        }
        if (qn->requires_grad) {
          gemm_nn_causal(ds.data(), kn->data.data() + o, C,
                         qn->grad.data() + o, C, T, D);
        }
        if (kn->requires_grad) {
          gemm_tn_causal(ds.data(), qn->data.data() + o, C,
                         kn->grad.data() + o, C, T, D);
        }
      });
    };
  }
  return Tensor{out};
}

Tensor log_softmax_lastdim(const Tensor& a) {
  auto an = a.node();
  EVA_ASSERT(an, "undefined operand");
  const Shape& s = an->shape;
  const auto cols = static_cast<std::size_t>(s.back());
  const std::size_t rows = an->numel() / cols;
  auto out = make_result(s, "log_softmax", {an});
  const float* x = an->data.data();
  float* y = out->data.data();
  parallel_chunks(0, rows, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const float* xr = x + r * cols;
      float* yr = y + r * cols;
      float mx = xr[0];
      for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, xr[c]);
      float z = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) z += std::exp(xr[c] - mx);
      const float lz = mx + std::log(z);
      for (std::size_t c = 0; c < cols; ++c) yr[c] = xr[c] - lz;
    }
  });
  if (out->requires_grad) {
    out->backward = [an, rows, cols](Node& self) {
      const float* yv = self.data.data();
      const float* g = self.grad.data();
      float* gx = an->grad.data();
      parallel_chunks(0, rows, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float* yr = yv + r * cols;
          const float* gr = g + r * cols;
          float* gxr = gx + r * cols;
          float gsum = 0.0f;
          for (std::size_t c = 0; c < cols; ++c) gsum += gr[c];
          for (std::size_t c = 0; c < cols; ++c) {
            gxr[c] += gr[c] - std::exp(yr[c]) * gsum;
          }
        }
      });
    };
  }
  return Tensor{out};
}

float layernorm_row(const float* x, const float* gamma, const float* beta,
                    float* xhat, float* y, std::size_t C, float eps) {
  float mu = 0.0f;
  for (std::size_t c = 0; c < C; ++c) mu += x[c];
  mu /= static_cast<float>(C);
  float var = 0.0f;
  for (std::size_t c = 0; c < C; ++c) {
    const float d = x[c] - mu;
    var += d * d;
  }
  var /= static_cast<float>(C);
  const float is = 1.0f / std::sqrt(var + eps);
  for (std::size_t c = 0; c < C; ++c) {
    xhat[c] = (x[c] - mu) * is;
    y[c] = xhat[c] * gamma[c] + beta[c];
  }
  return is;
}

Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  EVA_ASSERT(xn && gn && bn, "undefined operand");
  const auto C = static_cast<std::size_t>(xn->shape.back());
  EVA_REQUIRE(gn->numel() == C && bn->numel() == C,
              "layernorm gamma/beta must match last dim");
  const std::size_t rows = xn->numel() / C;
  auto out = make_result(xn->shape, "layernorm", {xn, gn, bn});

  // Cache normalized values and inverse stddevs for backward.
  auto xhat = std::make_shared<Storage>(xn->numel());
  auto istd = std::make_shared<Storage>(rows);
  const float* px = xn->data.data();
  const float* pg = gn->data.data();
  const float* pb = bn->data.data();
  float* py = out->data.data();
  parallel_chunks(0, rows, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      (*istd)[r] = layernorm_row(px + r * C, pg, pb, xhat->data() + r * C,
                                 py + r * C, C, eps);
    }
  });

  if (out->requires_grad) {
    out->backward = [xn, gn, bn, xhat, istd, rows, C](Node& self) {
      const float* g = self.grad.data();
      const float* pg2 = gn->data.data();
      if (gn->requires_grad || bn->requires_grad) {
        float* gg = gn->requires_grad ? gn->grad.data() : nullptr;
        float* gb = bn->requires_grad ? bn->grad.data() : nullptr;
        for (std::size_t r = 0; r < rows; ++r) {
          const float* hr = xhat->data() + r * C;
          const float* gr = g + r * C;
          for (std::size_t c = 0; c < C; ++c) {
            if (gg) gg[c] += gr[c] * hr[c];
            if (gb) gb[c] += gr[c];
          }
        }
      }
      if (xn->requires_grad) {
        float* gx = xn->grad.data();
        parallel_chunks(0, rows, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t r = lo; r < hi; ++r) {
            const float* hr = xhat->data() + r * C;
            const float* gr = g + r * C;
            float* gxr = gx + r * C;
            const float is = (*istd)[r];
            float m1 = 0.0f;  // mean of g*gamma
            float m2 = 0.0f;  // mean of g*gamma*xhat
            for (std::size_t c = 0; c < C; ++c) {
              const float gp = gr[c] * pg2[c];
              m1 += gp;
              m2 += gp * hr[c];
            }
            m1 /= static_cast<float>(C);
            m2 /= static_cast<float>(C);
            for (std::size_t c = 0; c < C; ++c) {
              const float gp = gr[c] * pg2[c];
              gxr[c] += is * (gp - m1 - hr[c] * m2);
            }
          }
        });
      }
    };
  }
  return Tensor{out};
}

Tensor embedding(const Tensor& table, const std::vector<int>& indices,
                 int batch, int seq_len) {
  auto tn = table.node();
  EVA_ASSERT(tn, "undefined operand");
  EVA_REQUIRE(tn->shape.size() == 2, "embedding table must be (V,C)");
  EVA_REQUIRE(indices.size() ==
                  static_cast<std::size_t>(batch) * static_cast<std::size_t>(seq_len),
              "embedding index count mismatch");
  const int V = tn->shape[0];
  const auto C = static_cast<std::size_t>(tn->shape[1]);
  for (int idx : indices) {
    EVA_REQUIRE(idx >= 0 && idx < V, "embedding index out of vocabulary");
  }
  auto out = make_result({batch, seq_len, tn->shape[1]}, "embedding", {tn});
  const float* pt = tn->data.data();
  float* py = out->data.data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const float* row = pt + static_cast<std::size_t>(indices[i]) * C;
    std::copy(row, row + C, py + i * C);
  }
  if (out->requires_grad) {
    out->backward = [tn, indices, C](Node& self) {
      const float* g = self.grad.data();
      float* gt = tn->grad.data();
      for (std::size_t i = 0; i < indices.size(); ++i) {
        float* row = gt + static_cast<std::size_t>(indices[i]) * C;
        const float* gr = g + i * C;
        for (std::size_t c = 0; c < C; ++c) row[c] += gr[c];
      }
    };
  }
  return Tensor{out};
}

Tensor cross_entropy(const Tensor& logits, const std::vector<int>& targets,
                     int ignore_index) {
  auto ln = logits.node();
  EVA_ASSERT(ln, "undefined operand");
  EVA_REQUIRE(ln->shape.size() == 2, "cross_entropy expects (N,V) logits");
  const auto N = static_cast<std::size_t>(ln->shape[0]);
  const auto V = static_cast<std::size_t>(ln->shape[1]);
  EVA_REQUIRE(targets.size() == N, "cross_entropy target count mismatch");

  auto probs = std::make_shared<Storage>(ln->numel());
  std::vector<double> losses(N, 0.0);
  std::size_t valid = 0;
  const float* x = ln->data.data();
  parallel_chunks(0, N, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      float* pr = probs->data() + r * V;
      softmax_row(x + r * V, pr, V, V);
      if (targets[r] != ignore_index) {
        EVA_ASSERT(targets[r] >= 0 && targets[r] < static_cast<int>(V),
                   "cross_entropy target out of range");
        losses[r] = -std::log(
            std::max(pr[static_cast<std::size_t>(targets[r])], 1e-12f));
      }
    }
  });
  for (std::size_t r = 0; r < N; ++r) {
    if (targets[r] != ignore_index) ++valid;
  }
  const float denom = valid > 0 ? static_cast<float>(valid) : 1.0f;
  double total = 0.0;
  for (double l : losses) total += l;

  auto out = make_result({1}, "cross_entropy", {ln});
  out->data[0] = static_cast<float>(total) / denom;
  if (out->requires_grad) {
    out->backward = [ln, probs, targets, ignore_index, N, V, denom](Node& self) {
      const float g = self.grad[0] / denom;
      float* gx = ln->grad.data();
      for (std::size_t r = 0; r < N; ++r) {
        if (targets[r] == ignore_index) continue;
        const float* pr = probs->data() + r * V;
        float* gr = gx + r * V;
        for (std::size_t c = 0; c < V; ++c) gr[c] += g * pr[c];
        gr[static_cast<std::size_t>(targets[r])] -= g;
      }
    };
  }
  return Tensor{out};
}

Tensor gather_lastdim(const Tensor& a, const std::vector<int>& indices) {
  auto an = a.node();
  EVA_ASSERT(an, "undefined operand");
  EVA_REQUIRE(an->shape.size() == 2, "gather_lastdim expects (N,V)");
  const auto N = static_cast<std::size_t>(an->shape[0]);
  const auto V = static_cast<std::size_t>(an->shape[1]);
  EVA_REQUIRE(indices.size() == N, "gather_lastdim index count mismatch");
  auto out = make_result({an->shape[0]}, "gather", {an});
  for (std::size_t r = 0; r < N; ++r) {
    EVA_REQUIRE(indices[r] >= 0 && indices[r] < static_cast<int>(V),
                "gather index out of range");
    out->data[r] = an->data[r * V + static_cast<std::size_t>(indices[r])];
  }
  if (out->requires_grad) {
    out->backward = [an, indices, V](Node& self) {
      for (std::size_t r = 0; r < indices.size(); ++r) {
        an->grad[r * V + static_cast<std::size_t>(indices[r])] += self.grad[r];
      }
    };
  }
  return Tensor{out};
}

Tensor dropout(const Tensor& a, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return a;
  EVA_REQUIRE(p < 1.0f, "dropout p must be < 1");
  auto an = a.node();
  EVA_ASSERT(an, "undefined operand");
  auto keep = std::make_shared<Storage>(an->numel());
  const float scale = 1.0f / (1.0f - p);
  for (auto& k : *keep) k = rng.chance(p) ? 0.0f : scale;
  auto out = make_result(an->shape, "dropout", {an});
  for (std::size_t i = 0; i < an->numel(); ++i) {
    out->data[i] = an->data[i] * (*keep)[i];
  }
  if (out->requires_grad) {
    out->backward = [an, keep](Node& self) {
      for (std::size_t i = 0; i < self.numel(); ++i) {
        an->grad[i] += self.grad[i] * (*keep)[i];
      }
    };
  }
  return Tensor{out};
}

}  // namespace eva::tensor
