// PPO RLHF fine-tuning (paper §III-C1, Algorithm 1, Eqs. 2-4).
//
// The agent is the pretrained policy πθ with an added value head (a linear
// layer mapping hidden states to one scalar per token). The environment is
// the reward model. Each epoch the policy generates a batch of D sequences
// (rollouts); rewards combine the reward model's sequence score with a
// per-token KL penalty against the frozen reference model (Eq. 2); GAE
// computes advantages; then N_ppo minibatch passes optimize the clipped
// surrogate (Eq. 3) plus the value loss (Eq. 4):
//     L_PPO = -L_policy + vc * L_value.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "nn/sampler.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "rl/reward_model.hpp"
#include "train/run.hpp"
#include "train/sentinel.hpp"

namespace eva::rl {

struct PpoConfig {
  int epochs = 20;           // N_epochs
  int rollouts = 16;         // D (batch of generated sequences per epoch)
  int ppo_epochs = 2;        // N_ppo
  int minibatch = 4;         // B
  float clip_eps = 0.2f;     // epsilon in Eq. 3
  float gamma = 1.0f;        // episodic task: undiscounted
  float lam = 0.95f;         // GAE lambda
  float vc = 0.5f;           // value loss coefficient
  float kl_beta = 0.05f;     // beta in Eq. 2
  float lr = 5e-4f;
  float clip_grad = 1.0f;
  int max_len = 0;           // rollout length cap (0 = model max)
  float temperature = 1.0f;
  /// Slot count of the rollout BatchedDecoder (throughput only; rollout
  /// contents are width-invariant, see DESIGN.md "Batched KV-cache
  /// decoding").
  int batch_width = 8;
  std::uint64_t seed = 99;

  // Fault tolerance (train/run.hpp): snapshots cover policy + value head
  // + optimizer + RNG + the frozen reference model, at epoch granularity
  // (a run step is an epoch).
  train::RunConfig run{.checkpoint_every = 5};
  // L_PPO is signed and near zero, so a loss above EMA x factor says
  // nothing about divergence: only the non-finite guard stays on.
  train::SentinelConfig sentinel{
      .spike_factor = std::numeric_limits<double>::infinity()};
};

struct PpoStats {
  std::vector<double> mean_reward;   // per-epoch mean sequence reward
  std::vector<double> policy_loss;   // per-update L_policy
  std::vector<double> value_loss;    // per-update L_value
  std::vector<double> total_loss;    // per-update L_PPO
  int start_epoch = 0;               // > 0 when resumed from a checkpoint
  bool interrupted = false;          // stopped early via SIGINT/SIGTERM
};

class PpoTrainer {
 public:
  /// `policy` is fine-tuned in place; a frozen copy taken at construction
  /// serves as the reference model pi_theta_ref.
  PpoTrainer(nn::TransformerLM& policy, const nn::Tokenizer& tok,
             const RewardModel& reward_model, PpoConfig cfg, Rng& rng);

  /// Run the full Algorithm 1 loop. `on_epoch(epoch, mean_reward)` is an
  /// optional progress hook.
  PpoStats train(const std::function<void(int, double)>& on_epoch = nullptr);

  /// Mean reward of a freshly generated batch (evaluation only).
  [[nodiscard]] double evaluate_mean_reward(int n);

 private:
  struct Rollout {
    std::vector<int> tokens;       // VSS + sampled actions (incl. EOS)
    int n_actions = 0;
    double seq_reward = 0.0;
    std::vector<float> old_logp;   // per action, at rollout time
    std::vector<float> ref_logp;   // per action, reference model
    std::vector<float> values;     // V(x_t) per action position
    std::vector<float> advantages;
    std::vector<float> returns;    // G_t
  };

  void collect_rollouts(std::vector<Rollout>& out);
  void compute_gae(Rollout& r) const;

  nn::TransformerLM* policy_;
  nn::TransformerLM ref_;
  const nn::Tokenizer* tok_;
  const RewardModel* rm_;
  tensor::Tensor value_w_;  // (C,1)
  tensor::Tensor value_b_;  // (1)
  PpoConfig cfg_;
  Rng rng_;
  nn::BatchedDecoder decoder_;  // rollout engine; KV slab reused per epoch
};

}  // namespace eva::rl
