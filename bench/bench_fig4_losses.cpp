// Reproduces Fig. 4: "EVA's PPO loss and DPO loss after pretraining while
// targeting Op-Amp design."
//
// Left: the PPO losses over updates (L_policy, L_value, L_PPO). Right:
// the DPO loss over steps, plus the win/lose sequence log-likelihoods
// whose joint decline (losing faster) is the degeneration the paper
// discusses in §IV-C.
#include <iostream>

#include "bench/common.hpp"
#include "rl/dpo.hpp"
#include "rl/ppo.hpp"
#include "util/stats.hpp"

int main() {
  using namespace eva;
  using circuit::CircuitType;

  bench::BenchScale scale;
  scale.per_type = env_int("EVA_BENCH_PER_TYPE", 20);
  scale.pretrain_steps = env_int("EVA_BENCH_STEPS", 1500);

  std::cout << "=== Fig. 4: PPO and DPO training losses after pretraining "
               "(Op-Amp target) ===\n";
  core::Eva engine = bench::make_pretrained(scale);
  const std::string ckpt = "/tmp/eva_fig4_pretrained.bin";
  engine.save_model(ckpt);
  const auto labels = engine.label_for(CircuitType::OpAmp);

  Rng rng(scale.seed + 70);
  rl::RewardModel reward(engine.model(), engine.tokenizer(), rng);
  rl::RewardModelConfig rmc;
  rmc.steps = 100;
  reward.train(labels.examples, rmc);

  // --- PPO losses -----------------------------------------------------------
  std::cout << "[fig4] PPO fine-tuning...\n";
  rl::PpoConfig ppo;
  ppo.epochs = 8;
  ppo.rollouts = 10;
  ppo.ppo_epochs = 2;
  ppo.minibatch = 4;
  ppo.max_len = 192;
  ppo.lr = 3e-4f;
  rl::PpoTrainer ptrainer(engine.model(), engine.tokenizer(), reward, ppo,
                          rng);
  const auto pstats = ptrainer.train();

  std::cout << "\n" << ascii_curve(ema(pstats.total_loss, 0.3),
                                   "PPO loss L_PPO (EMA)");
  std::cout << "\n" << ascii_curve(ema(pstats.policy_loss, 0.3),
                                   "PPO policy objective L_policy (EMA)");
  std::cout << "\n" << ascii_curve(ema(pstats.value_loss, 0.3),
                                   "PPO value loss L_value (EMA)");

  // --- DPO losses -----------------------------------------------------------
  std::cout << "\n[fig4] DPO fine-tuning (low learning rate)...\n";
  engine.load_model(ckpt);
  Rng prng(scale.seed + 80);
  const auto pairs = rl::build_preference_pairs(labels.examples, 30, prng);
  rl::DpoConfig dpo;
  dpo.steps = 50;
  dpo.pairs_per_step = 3;
  dpo.lr = 1e-4f;
  dpo.logprob_probe = 8;
  rl::DpoTrainer dtrainer(engine.model(), engine.tokenizer(), dpo);
  const auto dstats = dtrainer.train(pairs);

  std::cout << "\n" << ascii_curve(ema(dstats.loss, 0.3), "DPO loss (EMA)");
  std::cout << "\n" << ascii_curve(dstats.logp_win,
                                   "log pi(y_w) - winning topologies");
  std::cout << "\n" << ascii_curve(dstats.logp_lose,
                                   "log pi(y_l) - losing topologies");

  // CSV dumps.
  CsvWriter pcsv({"update", "l_ppo", "l_policy", "l_value"});
  for (std::size_t i = 0; i < pstats.total_loss.size(); ++i) {
    pcsv.add_row(std::vector<double>{static_cast<double>(i),
                                     pstats.total_loss[i],
                                     pstats.policy_loss[i],
                                     pstats.value_loss[i]});
  }
  pcsv.save("fig4_ppo_loss.csv");
  CsvWriter dcsv({"step", "dpo_loss", "logp_win", "logp_lose", "reward_acc"});
  for (std::size_t i = 0; i < dstats.loss.size(); ++i) {
    dcsv.add_row(std::vector<double>{
        static_cast<double>(i), dstats.loss[i],
        i < dstats.logp_win.size() ? dstats.logp_win[i] : 0.0,
        i < dstats.logp_lose.size() ? dstats.logp_lose[i] : 0.0,
        dstats.reward_acc[i]});
  }
  dcsv.save("fig4_dpo_loss.csv");
  std::cout << "\nsaved fig4_ppo_loss.csv / fig4_dpo_loss.csv\n";

  // Degeneration check (paper §IV-C): both log-probs decline, the losing
  // one faster, so the margin still grows.
  if (dstats.logp_win.size() >= 5) {
    const double dw = dstats.logp_win.back() - dstats.logp_win.front();
    const double dl = dstats.logp_lose.back() - dstats.logp_lose.front();
    std::cout << "\nshape: d(log pi(y_w)) = " << fmt(dw, 2)
              << ", d(log pi(y_l)) = " << fmt(dl, 2)
              << "  (paper: both decline at low LR, losing faster => "
              << (dl < dw ? "REPRODUCED" : "not observed at this scale")
              << ")\n";
  }
  return 0;
}
