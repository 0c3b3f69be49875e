#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/optim.hpp"

namespace eva::rl {

using namespace eva::tensor;

namespace {

nn::SampleOptions rollout_options(const PpoConfig& cfg) {
  nn::SampleOptions opts;
  opts.temperature = cfg.temperature;
  opts.max_len = cfg.max_len;
  return opts;
}

}  // namespace

PpoTrainer::PpoTrainer(nn::TransformerLM& policy, const nn::Tokenizer& tok,
                       const RewardModel& reward_model, PpoConfig cfg,
                       Rng& rng)
    : policy_(&policy),
      ref_(policy.config(), rng),
      tok_(&tok),
      rm_(&reward_model),
      cfg_(cfg),
      rng_(cfg.seed),
      decoder_(policy, tok, std::max(1, cfg.batch_width),
               rollout_options(cfg)) {
  ref_.load_from(policy);  // frozen snapshot: pi_theta_ref
  value_w_ = Tensor::randn({policy.config().d_model, 1}, rng, 0.02f, true);
  value_b_ = Tensor::zeros({1}, true);
}

void PpoTrainer::collect_rollouts(std::vector<Rollout>& out) {
  static obs::Counter& rollouts_c = obs::counter("ppo.rollouts");
  static obs::Counter& rollouts_valid_c = obs::counter("ppo.rollouts_valid");
  obs::Span span("ppo.collect_rollouts");

  out.clear();
  // One batched forward per decode step across all D rollouts (the
  // continuous-batching engine); the decoder's KV slab is reused across
  // epochs.
  const auto samples = decoder_.decode(rng_, cfg_.rollouts);

  // Validity here = "decodes to a netlist at all"; the reward model grades
  // everything beyond that.
  int valid = 0;
  for (const auto& s : samples) {
    if (nn::ids_to_netlist(*tok_, s.ids).has_value()) ++valid;
  }
  rollouts_c.add(static_cast<std::int64_t>(samples.size()));
  rollouts_valid_c.add(valid);
  if (!samples.empty()) {
    obs::gauge("ppo.rollout_validity_rate")
        .set(static_cast<double>(valid) / static_cast<double>(samples.size()));
  }

  for (const auto& s : samples) {
    Rollout r;
    r.tokens = s.ids;
    if (s.hit_eos) r.tokens.push_back(nn::Tokenizer::kEos);
    r.n_actions = static_cast<int>(r.tokens.size()) - 1;
    if (r.n_actions < 1) continue;
    r.seq_reward = rm_->reward(s.ids);

    // NOTE: s.logprobs (one entry per action, EOS included — the
    // SampleResult invariant) are probabilities under the *sampling*
    // distribution (temperature / top-k / legality mask), so they cannot
    // serve as pi_old in the PPO ratio. The teacher-forced passes below
    // recompute the unmasked model log-probs for the same action
    // sequence; s.logprobs only pins down which actions were taken.
    // Teacher-forced passes for old log-probs, reference log-probs and
    // value estimates. (Values come from the policy's value head.)
    const int K = r.n_actions;
    const std::vector<int> inputs(r.tokens.begin(), r.tokens.end() - 1);
    const std::vector<int> actions(r.tokens.begin() + 1, r.tokens.end());

    Tensor hidden = policy_->forward_hidden(inputs, 1, K, false);
    Tensor logits = policy_->lm_logits(hidden);
    Tensor lsm = log_softmax_lastdim(logits);
    Tensor logp = gather_lastdim(lsm, actions);
    Tensor values = reshape(linear(hidden, value_w_, value_b_), {K});

    Tensor ref_logits = ref_.forward(inputs, 1, K, false);
    Tensor ref_lsm = log_softmax_lastdim(ref_logits);
    Tensor ref_logp = gather_lastdim(ref_lsm, actions);

    r.old_logp.assign(logp.data().begin(), logp.data().end());
    r.ref_logp.assign(ref_logp.data().begin(), ref_logp.data().end());
    r.values.assign(values.data().begin(), values.data().end());
    compute_gae(r);
    out.push_back(std::move(r));
  }
}

void PpoTrainer::compute_gae(Rollout& r) const {
  const int K = r.n_actions;
  // Per-token reward (Eq. 2): KL penalty everywhere, sequence reward from
  // the reward model on the final action.
  std::vector<float> rew(static_cast<std::size_t>(K));
  for (int t = 0; t < K; ++t) {
    rew[static_cast<std::size_t>(t)] =
        -cfg_.kl_beta * (r.old_logp[static_cast<std::size_t>(t)] -
                         r.ref_logp[static_cast<std::size_t>(t)]);
  }
  rew[static_cast<std::size_t>(K - 1)] += static_cast<float>(r.seq_reward);

  r.advantages.assign(static_cast<std::size_t>(K), 0.0f);
  r.returns.assign(static_cast<std::size_t>(K), 0.0f);
  float next_adv = 0.0f;
  for (int t = K - 1; t >= 0; --t) {
    const float v_next =
        (t + 1 < K) ? r.values[static_cast<std::size_t>(t + 1)] : 0.0f;
    const float delta = rew[static_cast<std::size_t>(t)] +
                        cfg_.gamma * v_next -
                        r.values[static_cast<std::size_t>(t)];
    next_adv = delta + cfg_.gamma * cfg_.lam * next_adv;
    r.advantages[static_cast<std::size_t>(t)] = next_adv;
    r.returns[static_cast<std::size_t>(t)] =
        next_adv + r.values[static_cast<std::size_t>(t)];
  }
}

PpoStats PpoTrainer::train(const std::function<void(int, double)>& on_epoch) {
  auto params = policy_->parameters();
  params.push_back(value_w_);
  params.push_back(value_b_);
  AdamW opt(params, {.lr = cfg_.lr});

  // Snapshots also carry the frozen reference model: on resume the policy
  // has already moved, so pi_theta_ref cannot be re-derived from it.
  std::vector<Tensor> snapshot = params;
  for (const auto& p : ref_.parameters()) snapshot.push_back(p);
  const auto& mc = policy_->config();
  train::Fingerprint fp;
  fp.mix(mc.vocab).mix(mc.d_model).mix(mc.n_layers).mix(mc.n_heads)
      .mix(mc.d_ff).mix(mc.max_seq);
  fp.mix(cfg_.epochs).mix(cfg_.rollouts).mix(cfg_.ppo_epochs)
      .mix(cfg_.minibatch).mix(cfg_.clip_eps).mix(cfg_.gamma).mix(cfg_.lam)
      .mix(cfg_.vc).mix(cfg_.kl_beta).mix(cfg_.lr).mix(cfg_.seed);
  train::Run run("ppo", {snapshot, &opt, &rng_}, cfg_.epochs, cfg_.run,
                 cfg_.sentinel, fp.value());

  PpoStats stats;
  stats.start_epoch = run.step();
  std::vector<Rollout> rollouts;
  for (int epoch = stats.start_epoch; epoch < cfg_.epochs; ++epoch) {
    obs::Span epoch_span("ppo.epoch");
    collect_rollouts(rollouts);
    // An epoch without rollouts learns nothing, but still ends below.
    if (!rollouts.empty()) {
      double mean_r = 0;
      for (const auto& r : rollouts) mean_r += r.seq_reward;
      mean_r /= static_cast<double>(rollouts.size());
      stats.mean_reward.push_back(mean_r);
      obs::gauge("ppo.mean_reward").set(mean_r);
      if (on_epoch) {
        on_epoch(epoch, mean_r);
      } else {
        obs::log_info(
            "ppo.epoch",
            {{"epoch", epoch},
             {"mean_reward", mean_r},
             {"rollouts", static_cast<std::int64_t>(rollouts.size())},
             {"validity_rate",
              obs::gauge("ppo.rollout_validity_rate").value()}});
      }

      // Advantage normalization across the whole rollout batch.
      double s = 0, s2 = 0;
      std::size_t n = 0;
      for (const auto& r : rollouts) {
        for (float a : r.advantages) {
          s += a;
          s2 += static_cast<double>(a) * a;
          ++n;
        }
      }
      const double mu = s / static_cast<double>(n);
      const double sd =
          std::sqrt(std::max(s2 / static_cast<double>(n) - mu * mu, 1e-8));
      for (auto& r : rollouts) {
        for (auto& a : r.advantages) {
          a = static_cast<float>((a - mu) / sd);
        }
      }
    }

    auto verdict = train::Verdict::kStep;
    bool halted = false;  // a rewind or an abort ends the epoch early
    for (int pe = 0; pe < cfg_.ppo_epochs && !halted; ++pe) {
      // Shuffle rollout order, then walk minibatches.
      std::vector<std::size_t> order(rollouts.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng_.shuffle(order);

      for (std::size_t start = 0; start < order.size();
           start += static_cast<std::size_t>(cfg_.minibatch)) {
        const std::size_t end = std::min(
            order.size(), start + static_cast<std::size_t>(cfg_.minibatch));
        opt.zero_grad();
        Tensor pol_sum, val_sum;
        int n_tok = 0;
        for (std::size_t oi = start; oi < end; ++oi) {
          const Rollout& r = rollouts[order[oi]];
          const int K = r.n_actions;
          const std::vector<int> inputs(r.tokens.begin(), r.tokens.end() - 1);
          const std::vector<int> actions(r.tokens.begin() + 1,
                                         r.tokens.end());
          Tensor hidden = policy_->forward_hidden(inputs, 1, K, true);
          Tensor lsm = log_softmax_lastdim(policy_->lm_logits(hidden));
          Tensor new_logp = gather_lastdim(lsm, actions);
          Tensor old_logp = Tensor::from({K}, std::vector<float>(
                                                  r.old_logp.begin(),
                                                  r.old_logp.end()));
          Tensor ratio = exp_t(sub(new_logp, old_logp));
          Tensor adv = Tensor::from({K}, std::vector<float>(
                                             r.advantages.begin(),
                                             r.advantages.end()));
          Tensor unclipped = mul(ratio, adv);
          Tensor clipped =
              mul(clamp_t(ratio, 1.0f - cfg_.clip_eps, 1.0f + cfg_.clip_eps),
                  adv);
          Tensor pol = sum_all(min_t(unclipped, clipped));
          pol_sum = pol_sum.defined() ? add(pol_sum, pol) : pol;

          Tensor v_new = reshape(linear(hidden, value_w_, value_b_), {K});
          Tensor ret = Tensor::from({K}, std::vector<float>(
                                             r.returns.begin(),
                                             r.returns.end()));
          Tensor vl = sum_all(square(sub(v_new, ret)));
          val_sum = val_sum.defined() ? add(val_sum, vl) : vl;
          n_tok += K;
        }
        if (!pol_sum.defined() || n_tok == 0) continue;
        const float inv = 1.0f / static_cast<float>(n_tok);
        Tensor l_policy = mul_scalar(pol_sum, inv);
        Tensor l_value = mul_scalar(val_sum, 0.5f * inv);
        // L_PPO = -L_policy + vc * L_value (Algorithm 1, line 8).
        Tensor loss = add(neg(l_policy), mul_scalar(l_value, cfg_.vc));
        loss.backward();
        const double grad_norm = run.clip(params, cfg_.clip_grad);

        verdict = run.judge(loss.item(), grad_norm);
        halted = verdict == train::Verdict::kRewind ||
                 verdict == train::Verdict::kAbort;
        if (halted) break;
        if (verdict == train::Verdict::kSkip) continue;
        opt.set_lr(cfg_.lr * run.lr_scale());
        opt.step();

        stats.policy_loss.push_back(l_policy.item());
        stats.value_loss.push_back(l_value.item());
        stats.total_loss.push_back(loss.item());
        obs::histogram("ppo.policy_loss").record(l_policy.item());
        obs::histogram("ppo.value_loss").record(l_value.item());
      }
    }
    if (verdict == train::Verdict::kRewind) {
      stats.mean_reward.resize(run.progress(0));
      stats.policy_loss.resize(run.progress(1));
      stats.value_loss.resize(run.progress(1));
      stats.total_loss.resize(run.progress(1));
      epoch = run.step() - 1;  // ++ resumes at the restored epoch
      continue;
    }
    if (verdict == train::Verdict::kAbort ||
        run.finish(epoch + 1,
                   {stats.mean_reward.size(), stats.total_loss.size()})) {
      stats.interrupted = true;
      break;
    }
  }
  obs::export_now();
  return stats;
}

double PpoTrainer::evaluate_mean_reward(int n) {
  const auto samples = decoder_.decode(rng_, n);
  double total = 0;
  for (const auto& s : samples) total += rm_->reward(s.ids);
  return samples.empty() ? 0.0 : total / static_cast<double>(samples.size());
}

}  // namespace eva::rl
