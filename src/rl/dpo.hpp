// DPO fine-tuning (paper §III-C2, Eq. 5).
//
// Offline preference optimization: no reward model, no rollouts. Expert-
// labeled topologies ranked by the Table I classes are transformed into
// win/lose pairs ("for any four data points where each belongs to a unique
// class, EVA transforms these into six unique win-lose pairs") and the
// policy maximizes the Bradley-Terry log-likelihood margin over the frozen
// reference model:
//   L = -E log sigmoid( beta * [ (log pi_w - log ref_w)
//                              - (log pi_l - log ref_l) ] ).
#pragma once

#include <functional>
#include <vector>

#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "rl/reward_model.hpp"
#include "train/run.hpp"
#include "train/sentinel.hpp"

namespace eva::rl {

struct DpoConfig {
  int steps = 60;
  int pairs_per_step = 4;
  float beta = 0.1f;
  float lr = 1e-4f;   // DPO degenerates at high LR (paper §IV-C)
  float clip_grad = 1.0f;
  std::uint64_t seed = 123;
  /// When > 0, evaluate mean log pi over a FIXED probe of this many
  /// win/lose sequences at every step (the Fig. 4 degeneration curves).
  /// 0 disables the (costly) probe.
  int logprob_probe = 0;

  // Fault tolerance (train/run.hpp): snapshots cover policy + reference
  // + optimizer + RNG at step granularity.
  train::RunConfig run{.checkpoint_every = 20};
  train::SentinelConfig sentinel;
};

struct DpoStats {
  std::vector<double> loss;         // per-step L_DPO
  std::vector<double> reward_acc;   // per-step implicit-reward accuracy
  std::vector<double> logp_win;     // probe mean log pi(y_w) (Fig. 4)
  std::vector<double> logp_lose;    // probe mean log pi(y_l) (Fig. 4)
  int start_step = 0;               // > 0 when resumed from a checkpoint
  bool interrupted = false;         // stopped early via SIGINT/SIGTERM
};

/// A preference pair of token sequences (without EOS).
struct PreferencePair {
  std::vector<int> win;
  std::vector<int> lose;
};

/// Build all win/lose pairs implied by the rank classes: every example of
/// a strictly better class beats every example of a worse class. To keep
/// the pair set balanced, `per_combo` pairs are sampled for each of the 6
/// class combinations (High>Low, High>Irr, High>Inv, Low>Irr, Low>Inv,
/// Irr>Inv).
[[nodiscard]] std::vector<PreferencePair> build_preference_pairs(
    const std::vector<RankedExample>& examples, int per_combo, Rng& rng);

class DpoTrainer {
 public:
  /// `policy` is fine-tuned in place; a frozen copy is the reference.
  DpoTrainer(nn::TransformerLM& policy, const nn::Tokenizer& tok,
             DpoConfig cfg);

  DpoStats train(const std::vector<PreferencePair>& pairs,
                 const std::function<void(int, double)>& on_step = nullptr);

  /// Implicit-reward accuracy on a pair set: fraction where the policy's
  /// margin over the reference prefers the winner.
  [[nodiscard]] double reward_accuracy(
      const std::vector<PreferencePair>& pairs) const;

  /// Mean sequence log-probability under the current policy.
  [[nodiscard]] double mean_logprob(
      const std::vector<const std::vector<int>*>& seqs) const;

 private:
  /// Sequence log-prob as an autograd scalar (policy) or constant (ref).
  [[nodiscard]] tensor::Tensor seq_logprob(const nn::TransformerLM& model,
                                           const std::vector<int>& ids) const;

  nn::TransformerLM* policy_;
  Rng init_rng_{0};    // consumed by ref_'s construction (weights are then
                       // overwritten by the policy snapshot)
  nn::TransformerLM ref_;
  const nn::Tokenizer* tok_;
  DpoConfig cfg_;
};

}  // namespace eva::rl
