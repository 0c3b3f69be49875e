// Backend registry + the dispatch wrappers behind tensor/gemm.hpp.
#include "tensor/gemm_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_cpu.hpp"

namespace eva::tensor {

namespace {

/// One registered backend: its kernel table plus the cached dispatch
/// counter (tensor.gemm_backend_dispatch.<name>), looked up once at
/// registration so the per-call cost is a single relaxed add.
struct Entry {
  GemmBackendOps ops;
  obs::Counter* dispatches = nullptr;
};

struct Registry {
  std::mutex mu;
  // Deque-like stability: entries are pointers so `active` stays valid
  // across later registrations.
  std::vector<Entry*> entries;
  std::atomic<Entry*> active{nullptr};

  Entry* find_locked(std::string_view name) {
    for (Entry* e : entries) {
      if (e->ops.name == name) return e;
    }
    return nullptr;
  }
};

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry();
    GemmBackendOps cpu;
    cpu.name = "cpu";
    cpu.nn = &cpu::gemm_nn;
    cpu.nt = &cpu::gemm_nt;
    cpu.tn = &cpu::gemm_tn;
    cpu.qgemm = &cpu::qgemm;
    auto* e = new Entry{std::move(cpu),
                        &obs::counter("tensor.gemm_backend_dispatch.cpu")};
    reg->entries.push_back(e);

    Entry* active = e;
    if (const char* want = std::getenv("EVA_GEMM_BACKEND");
        want != nullptr && *want != '\0' && e->ops.name != want) {
      // Backends registered later can still be selected with
      // set_gemm_backend(); at static-init time only "cpu" exists, so an
      // env naming anything else warns and falls back rather than abort.
      std::fprintf(stderr,
                   "[eva] EVA_GEMM_BACKEND=%s is not registered; "
                   "falling back to cpu\n",
                   want);
    }
    reg->active.store(active, std::memory_order_release);
    return reg;
  }();
  return *r;
}

Entry& active() {
  Registry& reg = registry();
  return *reg.active.load(std::memory_order_acquire);
}

}  // namespace

bool register_gemm_backend(GemmBackendOps ops) {
  if (ops.name.empty() || ops.nn == nullptr || ops.nt == nullptr ||
      ops.tn == nullptr) {
    return false;
  }
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (reg.find_locked(ops.name) != nullptr) return false;
  obs::Counter* c =
      &obs::counter("tensor.gemm_backend_dispatch." + ops.name);
  reg.entries.push_back(new Entry{std::move(ops), c});
  // If the env asked for this backend before it existed, activate it now.
  Entry* added = reg.entries.back();
  if (const char* want = std::getenv("EVA_GEMM_BACKEND");
      want != nullptr && added->ops.name == want) {
    reg.active.store(added, std::memory_order_release);
  }
  return true;
}

bool set_gemm_backend(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  Entry* e = reg.find_locked(name);
  if (e == nullptr) return false;
  reg.active.store(e, std::memory_order_release);
  return true;
}

std::string_view gemm_backend_name() { return active().ops.name; }

std::vector<std::string> gemm_backend_names() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::string> names;
  names.reserve(reg.entries.size());
  for (const Entry* e : reg.entries) names.push_back(e->ops.name);
  return names;
}

// ---------------------------------------------------------------------------
// Dispatch wrappers (the tensor/gemm.hpp entry points)
// ---------------------------------------------------------------------------

void gemm_nn(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N) {
  Entry& e = active();
  e.dispatches->add(1);
  e.ops.nn(A, B, C, M, K, N);
}

void gemm_nt(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N) {
  Entry& e = active();
  e.dispatches->add(1);
  e.ops.nt(A, B, C, M, K, N);
}

void gemm_tn(const float* A, const float* B, float* C, std::size_t K,
             std::size_t M, std::size_t N) {
  Entry& e = active();
  e.dispatches->add(1);
  e.ops.tn(A, B, C, K, M, N);
}

void qgemm(const float* X, const QuantMatrix& W, const float* bias, float* Y,
           std::size_t n, Epilogue ep) {
  Entry& e = active();
  e.dispatches->add(1);
  if (e.ops.qgemm != nullptr) {
    e.ops.qgemm(X, W, bias, Y, n, ep);
    return;
  }
  // Dequant fallback: a backend without quantized kernels still serves
  // quantized models through its own f32 GEMM. Slow path (materializes
  // the full f32 weight matrix) — the counter above still attributes the
  // work to this backend.
  static thread_local std::vector<float> wf;
  wf.resize(W.rows * W.cols);
  W.dequantize(wf.data());
  const std::size_t N = W.cols;
  for (std::size_t r = 0; r < n; ++r) {
    float* yrow = Y + r * N;
    if (ep == Epilogue::kNone || bias == nullptr) {
      std::fill_n(yrow, N, 0.0f);
    } else {
      std::copy_n(bias, N, yrow);
    }
  }
  e.ops.nn(X, wf.data(), Y, n, W.rows, N);
  if (ep == Epilogue::kBiasGelu) {
    for (std::size_t i = 0; i < n * N; ++i) Y[i] = gelu_approx(Y[i]);
  }
}

}  // namespace eva::tensor
