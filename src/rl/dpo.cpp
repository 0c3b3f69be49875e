#include "rl/dpo.hpp"

#include <algorithm>
#include <cmath>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/optim.hpp"

namespace eva::rl {

using namespace eva::tensor;

std::vector<PreferencePair> build_preference_pairs(
    const std::vector<RankedExample>& examples, int per_combo, Rng& rng) {
  std::vector<std::vector<const RankedExample*>> by_class(4);
  for (const auto& e : examples) {
    by_class[static_cast<std::size_t>(e.rank)].push_back(&e);
  }
  std::vector<PreferencePair> pairs;
  for (int w = 0; w < 4; ++w) {
    for (int l = w + 1; l < 4; ++l) {
      const auto& winners = by_class[static_cast<std::size_t>(w)];
      const auto& losers = by_class[static_cast<std::size_t>(l)];
      if (winners.empty() || losers.empty()) continue;
      for (int i = 0; i < per_combo; ++i) {
        pairs.push_back(PreferencePair{
            winners[rng.index(winners.size())]->ids,
            losers[rng.index(losers.size())]->ids});
      }
    }
  }
  EVA_REQUIRE(!pairs.empty(), "no preference pairs could be built");
  rng.shuffle(pairs);
  return pairs;
}

DpoTrainer::DpoTrainer(nn::TransformerLM& policy, const nn::Tokenizer& tok,
                       DpoConfig cfg)
    : policy_(&policy),
      ref_(policy.config(), init_rng_),
      tok_(&tok),
      cfg_(cfg) {
  ref_.load_from(policy);
}

Tensor DpoTrainer::seq_logprob(const nn::TransformerLM& model,
                               const std::vector<int>& ids) const {
  EVA_REQUIRE(ids.size() >= 2, "sequence too short for log-prob");
  const int max_t = model.config().max_seq;
  // Teacher forcing: predict ids[1..] (plus EOS) from ids[..n-1].
  std::vector<int> full = ids;
  full.push_back(nn::Tokenizer::kEos);
  if (static_cast<int>(full.size()) > max_t + 1) {
    full.resize(static_cast<std::size_t>(max_t) + 1);
  }
  const int K = static_cast<int>(full.size()) - 1;
  const std::vector<int> inputs(full.begin(), full.end() - 1);
  const std::vector<int> targets(full.begin() + 1, full.end());
  Tensor logits = model.forward(inputs, 1, K, false);
  Tensor lsm = log_softmax_lastdim(logits);
  return sum_all(gather_lastdim(lsm, targets));
}

DpoStats DpoTrainer::train(const std::vector<PreferencePair>& pairs,
                           const std::function<void(int, double)>& on_step) {
  EVA_REQUIRE(!pairs.empty(), "DPO needs preference pairs");
  Rng rng(cfg_.seed);
  auto params = policy_->parameters();
  AdamW opt(params, {.lr = cfg_.lr});

  // Fixed probe sequences for the Fig. 4 degeneration curves.
  std::vector<const std::vector<int>*> probe_win, probe_lose;
  for (int i = 0; i < cfg_.logprob_probe &&
                  i < static_cast<int>(pairs.size());
       ++i) {
    probe_win.push_back(&pairs[static_cast<std::size_t>(i)].win);
    probe_lose.push_back(&pairs[static_cast<std::size_t>(i)].lose);
  }

  static obs::Counter& steps_c = obs::counter("dpo.steps");
  static obs::Histogram& loss_h = obs::histogram("dpo.loss");

  // Snapshots also carry the frozen reference model: on resume the policy
  // has already moved, so the reference cannot be re-derived from it.
  std::vector<Tensor> snapshot = params;
  for (const auto& p : ref_.parameters()) snapshot.push_back(p);
  const auto& mc = policy_->config();
  train::Fingerprint fp;
  fp.mix(mc.vocab).mix(mc.d_model).mix(mc.n_layers).mix(mc.n_heads)
      .mix(mc.d_ff).mix(mc.max_seq);
  fp.mix(cfg_.steps).mix(cfg_.pairs_per_step).mix(cfg_.beta).mix(cfg_.lr)
      .mix(cfg_.clip_grad).mix(cfg_.seed);
  train::Run run("dpo", {snapshot, &opt, &rng}, cfg_.steps, cfg_.run,
                 cfg_.sentinel, fp.value());

  DpoStats stats;
  stats.start_step = run.step();
  for (int step = stats.start_step; step < cfg_.steps; ++step) {
    obs::Span step_span("dpo.step");
    opt.zero_grad();
    Tensor loss_sum;
    double acc = 0;
    for (int p = 0; p < cfg_.pairs_per_step; ++p) {
      const auto& pair = pairs[rng.index(pairs.size())];
      Tensor lw = seq_logprob(*policy_, pair.win);
      Tensor ll = seq_logprob(*policy_, pair.lose);
      const float lw_ref = seq_logprob(ref_, pair.win).item();
      const float ll_ref = seq_logprob(ref_, pair.lose).item();

      // margin = (lw - lw_ref) - (ll - ll_ref)
      Tensor margin = add_scalar(sub(lw, ll), -(lw_ref - ll_ref));
      Tensor loss = neg(log_t(sigmoid(mul_scalar(margin, cfg_.beta))));
      loss_sum = loss_sum.defined() ? add(loss_sum, loss) : loss;

      acc += margin.item() > 0.0f ? 1.0 : 0.0;
    }
    Tensor loss =
        mul_scalar(loss_sum, 1.0f / static_cast<float>(cfg_.pairs_per_step));
    loss.backward();
    const double grad_norm = run.clip(params, cfg_.clip_grad);

    const auto verdict = run.judge(loss.item(), grad_norm);
    if (verdict == train::Verdict::kRewind) {
      const std::size_t keep = run.progress(0);
      stats.loss.resize(keep);
      stats.reward_acc.resize(keep);
      if (!probe_win.empty()) {
        stats.logp_win.resize(keep);
        stats.logp_lose.resize(keep);
      }
      step = run.step() - 1;  // ++ resumes at the restored step
      continue;
    }
    if (verdict == train::Verdict::kAbort) {
      stats.interrupted = true;
      break;
    }
    if (verdict == train::Verdict::kStep) {
      opt.set_lr(cfg_.lr * run.lr_scale());
      opt.step();

      stats.loss.push_back(loss.item());
      stats.reward_acc.push_back(acc / cfg_.pairs_per_step);
      steps_c.add();
      loss_h.record(loss.item());
      obs::gauge("dpo.loss").set(loss.item());
      obs::gauge("dpo.reward_acc").set(stats.reward_acc.back());
      if (!probe_win.empty()) {
        stats.logp_win.push_back(mean_logprob(probe_win));
        stats.logp_lose.push_back(mean_logprob(probe_lose));
      }
      if (on_step) {
        on_step(step, stats.loss.back());
      } else if (step % 10 == 0 || step + 1 == cfg_.steps) {
        obs::log_info("dpo.step", {{"step", step},
                                   {"loss", stats.loss.back()},
                                   {"reward_acc", stats.reward_acc.back()}});
      }
    }
    if (run.finish(step + 1, {stats.loss.size()})) {
      stats.interrupted = true;
      break;
    }
  }
  obs::export_now();
  return stats;
}

double DpoTrainer::reward_accuracy(
    const std::vector<PreferencePair>& pairs) const {
  if (pairs.empty()) return 0.0;
  double acc = 0;
  for (const auto& pair : pairs) {
    const float lw = seq_logprob(*policy_, pair.win).item();
    const float ll = seq_logprob(*policy_, pair.lose).item();
    const float lw_ref = seq_logprob(ref_, pair.win).item();
    const float ll_ref = seq_logprob(ref_, pair.lose).item();
    acc += ((lw - lw_ref) - (ll - ll_ref)) > 0.0f ? 1.0 : 0.0;
  }
  return acc / static_cast<double>(pairs.size());
}

double DpoTrainer::mean_logprob(
    const std::vector<const std::vector<int>*>& seqs) const {
  if (seqs.empty()) return 0.0;
  double total = 0;
  for (const auto* s : seqs) total += seq_logprob(*policy_, *s).item();
  return total / static_cast<double>(seqs.size());
}

}  // namespace eva::rl
