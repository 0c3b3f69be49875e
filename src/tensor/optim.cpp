#include "tensor/optim.hpp"

#include <cmath>

namespace eva::tensor {

void zero_grads(std::vector<Tensor>& params) {
  for (auto& p : params) p.zero_grad();
}

double clip_grad_norm(std::vector<Tensor>& params, double max_norm) {
  EVA_ASSERT(max_norm > 0.0, "clip_grad_norm needs positive max_norm");
  double sq = 0.0;
  for (auto& p : params) {
    for (float g : p.grad()) sq += static_cast<double>(g) * g;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm) {
    const auto scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (auto& p : params) {
      for (float& g : p.grad()) g *= scale;
    }
  }
  return norm;
}

AdamW::AdamW(std::vector<Tensor> params, Config cfg)
    : params_(std::move(params)), cfg_(cfg) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].numel(), 0.0f);
    v_[i].assign(params_[i].numel(), 0.0f);
  }
}

AdamW::State AdamW::export_state() const { return State{t_, m_, v_}; }

void AdamW::import_state(const State& st) {
  EVA_REQUIRE(st.m.size() == params_.size() && st.v.size() == params_.size(),
              "AdamW state tensor count mismatch");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    EVA_REQUIRE(st.m[i].size() == params_[i].numel() &&
                    st.v[i].size() == params_[i].numel(),
                "AdamW state moment size mismatch");
  }
  EVA_REQUIRE(st.t >= 0, "AdamW state has negative step count");
  t_ = st.t;
  m_ = st.m;
  v_ = st.v;
}

void AdamW::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(cfg_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(cfg_.beta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto data = params_[i].data();
    auto grad = params_[i].grad();
    auto& m = m_[i];
    auto& v = v_[i];
    for (std::size_t j = 0; j < data.size(); ++j) {
      m[j] = cfg_.beta1 * m[j] + (1.0f - cfg_.beta1) * grad[j];
      v[j] = cfg_.beta2 * v[j] + (1.0f - cfg_.beta2) * grad[j] * grad[j];
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      data[j] -= cfg_.lr * (mhat / (std::sqrt(vhat) + cfg_.eps) +
                            cfg_.weight_decay * data[j]);
    }
  }
}

}  // namespace eva::tensor
