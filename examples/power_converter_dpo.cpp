// Targeted discovery of power converters with DPO fine-tuning (§III-C2):
// expert-ranked topologies become win/lose pairs, and the policy is
// aligned offline with the Bradley-Terry objective (Eq. 5) — no reward
// model, no rollouts.
//
// Run: ./build/examples/power_converter_dpo
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

  std::cout << "=== Targeted power-converter discovery with DPO ===\n";
  core::Eva engine(cfg);
  engine.prepare();
  obs::log_info("example.pretraining", {{"steps", cfg.pretrain.steps}});
  engine.pretrain();

  // DPO step progress comes from the trainer's default obs hook
  // (event "dpo.step"); stdout keeps the before/after summary.
  obs::log_info("example.dpo_finetune", {{"target", "PowerConverter"}});
  rl::DpoConfig dpo;
  dpo.steps = 25;
  dpo.pairs_per_step = 3;
  dpo.lr = 1e-4f;
  const auto stats = engine.finetune_dpo(CircuitType::PowerConverter, dpo, 20);
  std::cout << "DPO loss " << eva::fmt(stats.loss.front(), 3) << " -> "
            << eva::fmt(stats.loss.back(), 3) << ", final reward accuracy "
            << eva::fmt(stats.reward_acc.back(), 2) << "\n";

  obs::log_info("example.discovery", {{"attempts", 10}});
  opt::GaConfig ga;
  ga.population = 12;
  ga.generations = 5;
  const auto result =
      engine.discover(CircuitType::PowerConverter, 10, ga);
  std::cout << "valid topologies: " << result.valid
            << "/10, best converter FoM@10: "
            << eva::fmt(result.best_fom, 2)
            << " (|Vout/Vdd| x efficiency x 4)\n";
  return 0;
}
