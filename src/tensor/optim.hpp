// AdamW over a parameter list, plus global-norm gradient clipping. Used
// by LM pretraining, reward-model training, PPO and DPO fine-tuning.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace eva::tensor {

/// Zero the gradient buffers of every parameter.
void zero_grads(std::vector<Tensor>& params);

/// Clip gradients so the global L2 norm is at most max_norm.
/// Returns the pre-clip norm.
double clip_grad_norm(std::vector<Tensor>& params, double max_norm);

/// AdamW (decoupled weight decay), the paper-standard transformer optimizer.
class AdamW {
 public:
  struct Config {
    float lr = 3e-4f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.0f;
  };

  AdamW(std::vector<Tensor> params, Config cfg);

  void step();
  void zero_grad() { zero_grads(params_); }
  void set_lr(float lr) { cfg_.lr = lr; }
  [[nodiscard]] float lr() const { return cfg_.lr; }

  /// Full optimizer state (step count + first/second moments), in the
  /// parameter order given at construction. Checkpointing an AdamW run
  /// without this would silently reset the moment estimates on resume.
  struct State {
    long t = 0;
    std::vector<std::vector<float>> m;
    std::vector<std::vector<float>> v;
  };
  [[nodiscard]] State export_state() const;
  /// Restore state from export_state(). Throws eva::Error when the
  /// moment buffer layout does not match this optimizer's parameters.
  void import_state(const State& st);

 private:
  std::vector<Tensor> params_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  Config cfg_;
  long t_ = 0;
};

}  // namespace eva::tensor
