// Reproduces Fig. 3: "PPO score and DPO validation reward accuracy
// comparison between Pretrain + Finetune, Pretrain only, and Finetune
// only while targeting Op-Amp design."
//
// Left panel: PPO mean sequence reward (Table I scale, -1..1) per epoch
// for the three arms. Right panel: DPO validation reward accuracy per
// training step for the three arms. Curves print as ASCII and are saved
// to CSV next to the binary.
#include <iostream>

#include "bench/common.hpp"
#include "rl/dpo.hpp"
#include "rl/ppo.hpp"

namespace {

using namespace eva;
using circuit::CircuitType;

rl::PpoConfig fig_ppo() {
  rl::PpoConfig ppo;
  ppo.epochs = 8;
  ppo.rollouts = 10;
  ppo.ppo_epochs = 2;
  ppo.minibatch = 4;
  ppo.max_len = 192;
  ppo.lr = 3e-4f;
  return ppo;
}

rl::DpoConfig fig_dpo() {
  rl::DpoConfig dpo;
  dpo.steps = 40;
  dpo.pairs_per_step = 3;
  dpo.lr = 1e-4f;
  return dpo;
}

}  // namespace

int main() {
  using namespace eva;
  bench::BenchScale scale;
  scale.per_type = env_int("EVA_BENCH_PER_TYPE", 20);
  scale.pretrain_steps = env_int("EVA_BENCH_STEPS", 1500);

  std::cout << "=== Fig. 3: necessity of pretraining AND fine-tuning "
               "(Op-Amp target) ===\n";
  core::Eva engine = bench::make_pretrained(scale);
  const std::string ckpt = "/tmp/eva_fig3_pretrained.bin";
  engine.save_model(ckpt);
  const auto labels = engine.label_for(CircuitType::OpAmp);

  // Shared reward model, trained once on the labeled set.
  Rng rng(scale.seed + 50);
  rl::RewardModel reward(engine.model(), engine.tokenizer(), rng);
  rl::RewardModelConfig rmc;
  rmc.steps = 100;
  reward.train(labels.examples, rmc);

  // --- PPO panel -------------------------------------------------------------
  std::vector<double> ppo_pf, ppo_p, ppo_f;

  std::cout << "[fig3] arm 1/3: Pretrain + PPO finetune...\n";
  {
    engine.load_model(ckpt);
    rl::PpoTrainer t(engine.model(), engine.tokenizer(), reward, fig_ppo(),
                     rng);
    ppo_pf = t.train().mean_reward;
  }
  std::cout << "[fig3] arm 2/3: Pretrain only (no updates)...\n";
  {
    engine.load_model(ckpt);
    rl::PpoConfig frozen = fig_ppo();
    rl::PpoTrainer t(engine.model(), engine.tokenizer(), reward, frozen, rng);
    for (int e = 0; e < frozen.epochs; ++e) {
      ppo_p.push_back(t.evaluate_mean_reward(frozen.rollouts));
    }
  }
  std::cout << "[fig3] arm 3/3: PPO finetune only (random init)...\n";
  {
    core::Eva scratch(bench::bench_config(scale));
    scratch.prepare();
    rl::PpoTrainer t(scratch.model(), scratch.tokenizer(), reward, fig_ppo(),
                     rng);
    ppo_f = t.train().mean_reward;
  }

  std::cout << "\n" << ascii_curve(ppo_pf, "PPO score - Pretrain+Finetune");
  std::cout << "\n" << ascii_curve(ppo_p, "PPO score - Pretrain only");
  std::cout << "\n" << ascii_curve(ppo_f, "PPO score - Finetune only");

  // --- DPO panel -------------------------------------------------------------
  Rng prng(scale.seed + 60);
  const auto pairs = rl::build_preference_pairs(labels.examples, 30, prng);
  std::vector<double> dpo_pf, dpo_p, dpo_f;

  std::cout << "\n[fig3] DPO arms...\n";
  {
    engine.load_model(ckpt);
    rl::DpoTrainer t(engine.model(), engine.tokenizer(), fig_dpo());
    dpo_pf = t.train(pairs).reward_acc;
  }
  {
    engine.load_model(ckpt);  // pretrain-only: policy == reference
    rl::DpoTrainer t(engine.model(), engine.tokenizer(), fig_dpo());
    for (std::size_t i = 0; i < dpo_pf.size(); ++i) {
      dpo_p.push_back(t.reward_accuracy(pairs));
    }
  }
  {
    core::Eva scratch(bench::bench_config(scale));
    scratch.prepare();
    rl::DpoTrainer t(scratch.model(), scratch.tokenizer(), fig_dpo());
    dpo_f = t.train(pairs).reward_acc;
  }

  std::cout << "\n" << ascii_curve(dpo_pf, "DPO reward acc - Pretrain+Finetune");
  std::cout << "\n" << ascii_curve(dpo_p, "DPO reward acc - Pretrain only");
  std::cout << "\n" << ascii_curve(dpo_f, "DPO reward acc - Finetune only");

  // CSV dump.
  CsvWriter csv({"epoch", "ppo_pretrain_finetune", "ppo_pretrain_only",
                 "ppo_finetune_only"});
  for (std::size_t i = 0; i < ppo_pf.size(); ++i) {
    csv.add_row(std::vector<double>{static_cast<double>(i), ppo_pf[i],
                                    i < ppo_p.size() ? ppo_p[i] : 0.0,
                                    i < ppo_f.size() ? ppo_f[i] : 0.0});
  }
  csv.save("fig3_ppo_score.csv");
  CsvWriter csv2({"step", "dpo_pretrain_finetune", "dpo_pretrain_only",
                  "dpo_finetune_only"});
  for (std::size_t i = 0; i < dpo_pf.size(); ++i) {
    csv2.add_row(std::vector<double>{static_cast<double>(i), dpo_pf[i],
                                     i < dpo_p.size() ? dpo_p[i] : 0.0,
                                     i < dpo_f.size() ? dpo_f[i] : 0.0});
  }
  csv2.save("fig3_dpo_acc.csv");
  std::cout << "\nsaved fig3_ppo_score.csv / fig3_dpo_acc.csv\n";

  // Headline shape check, mirroring the paper's conclusion.
  const double pf_final = ppo_pf.empty() ? 0 : ppo_pf.back();
  const double f_final = ppo_f.empty() ? 0 : ppo_f.back();
  std::cout << "\nshape: PPO final score pretrain+finetune="
            << fmt(pf_final, 3) << "  finetune-only=" << fmt(f_final, 3)
            << "  (paper: only pretrain+finetune reaches high scores)\n";
  return 0;
}
