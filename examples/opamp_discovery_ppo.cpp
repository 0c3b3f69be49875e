// Targeted discovery of high-performance Op-Amps with PPO fine-tuning
// (the paper's flagship workflow, §III-C1):
//
//   pretrain -> label dataset for Op-Amps (Otsu FoM split) -> train the
//   reward model -> PPO (Algorithm 1) -> FoM@10 with GA sizing.
//
// Run: ./build/examples/opamp_discovery_ppo
#include <iostream>

#include "core/eva.hpp"
#include "obs/log.hpp"
#include "util/io.hpp"

int main() {
  using namespace eva;
  using circuit::CircuitType;

  core::EvaConfig cfg;
  cfg.dataset.per_type = 15;
  cfg.pretrain.steps = 400;

  std::cout << "=== Targeted Op-Amp discovery with PPO ===\n";
  core::Eva engine(cfg);
  engine.prepare();
  obs::log_info(
      "example.pretraining",
      {{"train_seqs", static_cast<std::int64_t>(engine.corpus().train.size())},
       {"steps", cfg.pretrain.steps}});
  engine.pretrain();

  const auto labels = engine.label_for(CircuitType::OpAmp);
  std::cout << "labeled topologies: " << labels.labeled_count
            << " (Otsu FoM threshold " << eva::fmt(labels.fom_threshold, 2)
            << ")\n";

  // PPO epoch progress comes from the trainer's default obs hook
  // (event "ppo.epoch"); the summary table below stays on stdout.
  obs::log_info("example.ppo_finetune", {{"target", "OpAmp"}});
  rl::PpoConfig ppo;
  ppo.epochs = 4;
  ppo.rollouts = 8;
  ppo.max_len = 160;
  rl::RewardModelConfig rm;
  rm.steps = 60;
  const auto stats = engine.finetune_ppo(CircuitType::OpAmp, ppo, rm);
  for (std::size_t e = 0; e < stats.mean_reward.size(); ++e) {
    std::cout << "  epoch " << e << ": mean reward "
              << eva::fmt(stats.mean_reward[e], 3) << "\n";
  }

  obs::log_info("example.discovery", {{"attempts", 10}});
  opt::GaConfig ga;
  ga.population = 12;
  ga.generations = 5;
  const auto result = engine.discover(CircuitType::OpAmp, 10, ga);
  std::cout << "valid topologies: " << result.valid << "/10, relevant: "
            << result.relevant << ", best FoM@10: "
            << eva::fmt(result.best_fom, 2) << "\n";
  return 0;
}
