// Validates Table I: "Rank score definitions for PPO finetuning."
//
// Checks that (a) the rule-based checker + trained reward model assign
// the Table I reward levels to held-out examples of each rank class, and
// (b) the Plackett-Luce-trained scores preserve the Table I ordering
// High > Low > Irrelevant > Invalid.
#include <iostream>

#include "bench/common.hpp"
#include "rl/reward_model.hpp"

int main() {
  using namespace eva;
  using circuit::CircuitType;
  using rl::RankClass;

  bench::BenchScale scale;
  scale.per_type = env_int("EVA_BENCH_PER_TYPE", 18);
  scale.pretrain_steps = env_int("EVA_BENCH_STEPS", 800);

  std::cout << "=== Table I: rank-score definitions, reward model check "
               "(Op-Amp target) ===\n";
  core::Eva engine = bench::make_pretrained(scale);
  const auto labels = engine.label_for(CircuitType::OpAmp);

  // Split labeled examples into train/held-out per class, guaranteeing at
  // least one held-out example of every class that has two or more.
  std::vector<rl::RankedExample> train, held;
  int count_per_class[4] = {0, 0, 0, 0};
  int total_per_class[4] = {0, 0, 0, 0};
  for (const auto& e : labels.examples) {
    ++total_per_class[static_cast<int>(e.rank)];
  }
  for (const auto& e : labels.examples) {
    const int cls = static_cast<int>(e.rank);
    const int i = count_per_class[cls]++;
    const bool to_held =
        total_per_class[cls] >= 2 && (i == 0 || i % 5 == 4);
    (to_held ? held : train).push_back(e);
  }

  Rng rng(scale.seed + 90);
  rl::RewardModel reward(engine.model(), engine.tokenizer(), rng);
  rl::RewardModelConfig rmc;
  rmc.steps = 120;
  reward.train(train, rmc);

  const char* class_names[4] = {"High-perf relevant valid",
                                "Low-perf relevant valid",
                                "Irrelevant valid", "Invalid circuit"};
  const double defined[4] = {1.0, 0.5, -0.5, -1.0};

  double mean_reward[4] = {0, 0, 0, 0};
  int n[4] = {0, 0, 0, 0};
  for (const auto& e : held) {
    const int c = static_cast<int>(e.rank);
    mean_reward[c] += reward.reward(e.ids);
    ++n[c];
  }

  ConsoleTable table("Table I: reward assignments on held-out topologies",
                     {"Rank class", "Defined reward", "Model mean reward",
                      "Held-out n"});
  for (int c = 0; c < 4; ++c) {
    const double mean = n[c] > 0 ? mean_reward[c] / n[c] : 0.0;
    table.add_row({class_names[c], fmt(defined[c], 1), fmt(mean, 3),
                   std::to_string(n[c])});
    mean_reward[c] = mean;
  }
  table.print(std::cout);

  std::cout << "held-out classification accuracy: "
            << fmt(100.0 * reward.accuracy(held), 1) << "%\n";

  const bool ordered = mean_reward[0] > mean_reward[1] &&
                       mean_reward[1] > mean_reward[2] &&
                       mean_reward[2] > mean_reward[3];
  std::cout << "shape: Table I ordering High > Low > Irrelevant > Invalid "
            << (ordered ? "REPRODUCED" : "NOT fully ordered at this scale")
            << "\n";
  std::cout << "Otsu FoM threshold used for the high/low split: "
            << fmt(labels.fom_threshold, 3) << "\n";
  return 0;
}
