// Minimal reverse-mode autodiff tensor engine.
//
// This is the numerical substrate for every neural component in EVA (the
// decoder-only generation transformer, the reward model, and the PPO/DPO
// fine-tuning losses). The paper trains with PyTorch on GPU; we implement
// the equivalent engine from scratch for CPU:
//
//  * float32 dense tensors of rank 1..3 (vector / matrix / batched matrix),
//  * a dynamic tape: each op records parents and a backward closure,
//  * fused domain ops (softmax / layernorm / cross-entropy / embedding /
//    causal attention) so the graph stays small and fast,
//  * multi-threaded matmul via eva::parallel_chunks.
//
// Conventions: a Tensor is a cheap shared handle (shared_ptr to a Node).
// Ops are free functions returning new Tensors. Gradients are accumulated
// (+=) so a value used twice receives both contributions. backward() is
// called on a scalar loss.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace eva::tensor {

/// Dimension sizes, outermost first. Rank 1..3 supported by all ops.
using Shape = std::vector<int>;

[[nodiscard]] std::size_t shape_numel(const Shape& s);
[[nodiscard]] std::string shape_str(const Shape& s);
[[nodiscard]] bool same_shape(const Shape& a, const Shape& b);
/// True when `suffix` equals the trailing dims of `full` (broadcast rule).
[[nodiscard]] bool is_suffix(const Shape& suffix, const Shape& full);

class Tensor;

namespace detail {

/// Tensor storage (DESIGN.md §6 "Tensor storage"): blocks of 64 KiB and
/// up come from a process-wide cache of mapped blocks that outlives the
/// tensors, so the next step reuses them instead of faulting fresh pages
/// in; smaller blocks come from the heap. Thread-safe.
[[nodiscard]] void* storage_acquire(std::size_t bytes);
void storage_release(void* p, std::size_t bytes) noexcept;

template <class T>
struct StorageAllocator {
  using value_type = T;
  StorageAllocator() = default;
  template <class U>
  StorageAllocator(const StorageAllocator<U>&) noexcept {}
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(storage_acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    storage_release(p, n * sizeof(T));
  }
  friend bool operator==(const StorageAllocator&,
                         const StorageAllocator&) noexcept {
    return true;
  }
};

using Storage = std::vector<float, StorageAllocator<float>>;

/// Graph node: storage + tape entry. Not part of the public API.
struct Node {
  Storage data;
  Storage grad;  // lazily allocated on first access
  Shape shape;
  bool requires_grad = false;
  const char* op = "leaf";  // a string literal; names its backward span
  std::vector<std::shared_ptr<Node>> parents;
  // Pushes this node's grad into parents' grads. Null for leaves.
  std::function<void(Node&)> backward;

  [[nodiscard]] std::size_t numel() const { return data.size(); }
  void ensure_grad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

}  // namespace detail

/// Shared handle to a tensor graph node. Copy = alias (PyTorch-like).
class Tensor {
 public:
  /// Default-constructed Tensor is "undefined"; check with defined().
  Tensor() = default;

  // --- Factories -------------------------------------------------------
  [[nodiscard]] static Tensor zeros(Shape shape, bool requires_grad = false);
  [[nodiscard]] static Tensor full(Shape shape, float value,
                                   bool requires_grad = false);
  [[nodiscard]] static Tensor from(Shape shape, std::vector<float> data,
                                   bool requires_grad = false);
  /// Gaussian init with the given stddev (for parameters).
  [[nodiscard]] static Tensor randn(Shape shape, Rng& rng, float stddev,
                                    bool requires_grad = true);
  [[nodiscard]] static Tensor scalar(float v, bool requires_grad = false);

  // --- Introspection ---------------------------------------------------
  [[nodiscard]] bool defined() const { return node_ != nullptr; }
  [[nodiscard]] const Shape& shape() const;
  [[nodiscard]] int rank() const { return static_cast<int>(shape().size()); }
  [[nodiscard]] int dim(int i) const;
  [[nodiscard]] std::size_t numel() const;
  [[nodiscard]] bool requires_grad() const;

  [[nodiscard]] std::span<float> data();
  [[nodiscard]] std::span<const float> data() const;
  /// Gradient buffer (allocated zero-filled on first call).
  [[nodiscard]] std::span<float> grad();
  [[nodiscard]] std::span<const float> grad() const;

  /// Value of a single-element tensor.
  [[nodiscard]] float item() const;

  // --- Autograd --------------------------------------------------------
  /// Backprop from this scalar: seeds grad = 1 and walks the tape in
  /// reverse topological order. Requires numel()==1 and requires_grad().
  void backward();
  void zero_grad();
  /// Deep copy with no graph history (requires_grad = false).
  [[nodiscard]] Tensor detach() const;

  // Internal: used by op implementations.
  [[nodiscard]] std::shared_ptr<detail::Node> node() const { return node_; }
  explicit Tensor(std::shared_ptr<detail::Node> n) : node_(std::move(n)) {}

 private:
  std::shared_ptr<detail::Node> node_;
};

// --- Elementwise binary (shapes equal, or rhs scalar, or rhs a suffix of
// lhs; suffix operands broadcast over leading dims) -----------------------
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);

// --- Scalar ops ----------------------------------------------------------
[[nodiscard]] Tensor add_scalar(const Tensor& a, float s);
[[nodiscard]] Tensor mul_scalar(const Tensor& a, float s);

// --- Unary ---------------------------------------------------------------
[[nodiscard]] Tensor neg(const Tensor& a);
[[nodiscard]] Tensor exp_t(const Tensor& a);
[[nodiscard]] Tensor log_t(const Tensor& a);  // requires strictly positive
[[nodiscard]] Tensor sigmoid(const Tensor& a);
/// GELU, tanh approximation (as used by GPT-style transformers).
[[nodiscard]] Tensor gelu(const Tensor& a);
[[nodiscard]] Tensor square(const Tensor& a);
/// Clamp to [lo, hi]; gradient is 1 inside the interval, 0 outside.
[[nodiscard]] Tensor clamp_t(const Tensor& a, float lo, float hi);
/// Elementwise minimum (same shapes); subgradient routes to the smaller
/// operand (ties go to a). Used by the PPO clipped surrogate.
[[nodiscard]] Tensor min_t(const Tensor& a, const Tensor& b);

// --- Matmul / layout -----------------------------------------------------
/// (M,K)x(K,N); (B,M,K)x(K,N); (B,M,K)x(B,K,N). Multi-threaded.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
/// x W + b for x (M,K) or (B,T,K), W (K,N) and b (N): one node, whose
/// output and x, W and b gradients are bit for bit add(matmul(x, W), b)'s
/// (DESIGN.md §6 "Linear layers"). Throws eva::Error on other shapes.
[[nodiscard]] Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b);
/// Swap the last two dims.
[[nodiscard]] Tensor transpose_last(const Tensor& a);
/// Same data, new shape (copies; numel must match).
[[nodiscard]] Tensor reshape(const Tensor& a, Shape shape);

// --- Reductions ----------------------------------------------------------
[[nodiscard]] Tensor sum_all(const Tensor& a);
[[nodiscard]] Tensor mean_all(const Tensor& a);

// --- Fused NN ops ---------------------------------------------------------
/// Softmax over the last dim.
[[nodiscard]] Tensor softmax_lastdim(const Tensor& a);
/// Multi-head causal self-attention of (B,T,C) projections q, k, v with
/// `heads` heads of C/heads channels each (channel block h is head h):
/// per head softmax(q k^T / sqrt(C/heads)) v, where position t attends to
/// positions 0..t, merged back to (B,T,C). One node: it computes only the
/// causal (lower) triangle and keeps the probabilities for the backward
/// pass; on finite input every output and gradient is bitwise that of
/// the head split, batched-matmul and causal-softmax chain it replaces
/// (DESIGN.md §6 "Causal attention"). Throws eva::Error unless q, k and
/// v share one rank-3 shape whose C is a multiple of heads.
[[nodiscard]] Tensor causal_attention(const Tensor& q, const Tensor& k,
                                      const Tensor& v, int heads);
[[nodiscard]] Tensor log_softmax_lastdim(const Tensor& a);
/// LayerNorm over the last dim with learnable gamma/beta (shape = lastdim).
[[nodiscard]] Tensor layernorm(const Tensor& x, const Tensor& gamma,
                               const Tensor& beta, float eps = 1e-5f);
/// Row-gather from an embedding table (V,C) by flat indices -> (B,T,C).
[[nodiscard]] Tensor embedding(const Tensor& table,
                               const std::vector<int>& indices, int batch,
                               int seq_len);
/// Mean cross-entropy of logits (N,V) against integer targets; targets
/// equal to ignore_index contribute nothing.
[[nodiscard]] Tensor cross_entropy(const Tensor& logits,
                                   const std::vector<int>& targets,
                                   int ignore_index = -1);
/// Pick one element per row of a (N,V) tensor -> (N,). Used to extract
/// per-token log-probabilities for PPO/DPO.
[[nodiscard]] Tensor gather_lastdim(const Tensor& a,
                                    const std::vector<int>& indices);
/// Inverted-dropout (scales kept activations by 1/(1-p)); identity when
/// `training` is false or p == 0.
[[nodiscard]] Tensor dropout(const Tensor& a, float p, Rng& rng,
                             bool training);

// --- Row kernels (no autograd) ---------------------------------------------
// The forward arithmetic of gelu and layernorm. The decode step
// (nn::TransformerLM::infer_step_batched) and the quantized epilogue call
// them too, so training and decoding compute both bit for bit alike.

/// The tanh-approximation GELU over n floats: y = 0.5 x (1 + t) with
/// t = tanh(sqrt(2/pi) (x + 0.044715 x^3)), the tanh in lanes
/// (tensor/tanh.hpp). `t`, when given, receives the tanh values (gelu
/// keeps them for its backward pass). y may be x.
void gelu_approx_n(const float* x, float* y, std::size_t n,
                   float* t = nullptr);
/// In place: y = GELU(y).
inline void gelu_approx_n(float* y, std::size_t n) { gelu_approx_n(y, y, n); }

/// One layernorm row of C floats: xhat = (x - mean) / sqrt(var + eps) and
/// y = xhat * gamma + beta. Returns 1 / sqrt(var + eps). xhat may be y,
/// and y may be x.
float layernorm_row(const float* x, const float* gamma, const float* beta,
                    float* xhat, float* y, std::size_t C, float eps = 1e-5f);

// --- Storage cache ---------------------------------------------------------
/// Bytes of the cached storage blocks (DESIGN.md §6 "Tensor storage"):
/// held by live buffers, held by the cache, and the highest live total so
/// far, which bounds the other two's sum. Block counts are the
/// `tensor.storage.*` metrics.
struct StorageStats {
  std::size_t live_bytes = 0;
  std::size_t cached_bytes = 0;
  std::size_t peak_live_bytes = 0;
};
[[nodiscard]] StorageStats storage_stats();

}  // namespace eva::tensor
