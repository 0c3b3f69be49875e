// EVA engine facade — the library's primary public API.
//
// Wires the full pipeline of the paper together:
//   dataset -> tokenizer -> pretraining (§III-B)
//           -> labeling -> reward model -> PPO (§III-C1)
//                        -> preference pairs -> DPO (§III-C2)
//           -> generation + metrics (§IV).
//
// Typical use (see examples/quickstart.cpp):
//   eva::core::Eva engine(eva::core::EvaConfig{});
//   engine.prepare();                      // dataset + tokenizer
//   engine.pretrain();                     // foundation model
//   engine.finetune_ppo(CircuitType::OpAmp);
//   auto circuits = engine.generate(10);
#pragma once

#include <memory>
#include <optional>

#include "data/dataset.hpp"
#include "eval/metrics.hpp"
#include "nn/lm_trainer.hpp"
#include "nn/sampler.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "rl/dpo.hpp"
#include "rl/ppo.hpp"
#include "rl/reward_model.hpp"

namespace eva::core {

struct EvaConfig {
  data::DatasetConfig dataset;           // corpus scale
  int tours_per_topology = 4;            // sequence augmentation factor
  nn::ModelConfig model;                 // vocab filled automatically
  nn::PretrainConfig pretrain;
  float sample_temperature = 1.0f;
  std::uint64_t seed = 7;

  EvaConfig() {
    model = nn::ModelConfig::bench_scale(0);
  }
};

class Eva {
 public:
  explicit Eva(EvaConfig cfg);

  /// Stage 1: build the dataset, tokenizer and (untrained) model.
  void prepare();

  /// Stage 2: pretrain on the unlabeled corpus (Eq. 1). Requires prepare().
  nn::PretrainResult pretrain();

  /// Label the dataset for a target type (Otsu FoM split, Table I ranks).
  [[nodiscard]] rl::LabelingResult label_for(
      circuit::CircuitType target) const;

  /// Stage 3a: PPO fine-tuning toward a target type. Trains a reward
  /// model on the labels, then runs Algorithm 1. Requires pretrain()
  /// (or an explicitly loaded checkpoint).
  rl::PpoStats finetune_ppo(circuit::CircuitType target,
                            rl::PpoConfig ppo = {},
                            rl::RewardModelConfig rm = {});

  /// Stage 3b: DPO fine-tuning toward a target type (Eq. 5).
  rl::DpoStats finetune_dpo(circuit::CircuitType target,
                            rl::DpoConfig dpo = {}, int pairs_per_combo = 40);

  /// Generate n topologies (decoded; nullopt for undecodable emissions).
  [[nodiscard]] std::vector<eval::Attempt> generate(int n);

  /// Paper metrics over n fresh generations.
  [[nodiscard]] eval::GenerationEval evaluate_generation(int n);

  /// Discovery efficiency: FoM@k with GA sizing for the target type.
  [[nodiscard]] eval::FomAtKResult discover(circuit::CircuitType target,
                                            int k, const opt::GaConfig& ga);

  /// Snapshot / restore model weights (e.g. pretrained checkpoint reuse
  /// across fine-tuning arms) as one params-only EVA2 snapshot
  /// (train/checkpoint.hpp). Throws eva::ConfigError on I/O failure or
  /// a file that does not match the model.
  void save_model(const std::string& path) const;
  void load_model(const std::string& path);

  [[nodiscard]] const data::Dataset& dataset() const;
  [[nodiscard]] const nn::Tokenizer& tokenizer() const;
  [[nodiscard]] nn::TransformerLM& model();
  [[nodiscard]] const nn::SequenceCorpus& corpus() const;
  [[nodiscard]] const EvaConfig& config() const { return cfg_; }
  [[nodiscard]] bool prepared() const { return dataset_ != nullptr; }

 private:
  EvaConfig cfg_;
  Rng rng_;
  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<nn::Tokenizer> tokenizer_;
  std::unique_ptr<nn::TransformerLM> model_;
  std::unique_ptr<nn::SequenceCorpus> corpus_;
};

}  // namespace eva::core
