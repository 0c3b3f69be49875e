// Reward model for PPO fine-tuning (paper §III-C1, Table I).
//
// The reward model combines
//  * a rule-based checker: is the generated sequence a decodable,
//    structurally valid, simulatable topology? (reward -1.0 otherwise), and
//  * a multiclass classifier: pretrained transformer trunk + a three-output
//    linear head distinguishing {high-performance relevant, low-performance
//    relevant, irrelevant} circuits (rewards 1.0 / 0.5 / -0.5).
//
// Performance labels come from the FoM of each relevant topology with
// Otsu's method choosing the high/low threshold. Training maximizes a
// Plackett–Luce ranking likelihood over groups of differently-ranked
// sequences (plus an auxiliary cross-entropy term).
#pragma once

#include <functional>
#include <vector>

#include "circuit/classify.hpp"
#include "data/dataset.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"

namespace eva::rl {

/// Table I rank classes.
enum class RankClass : std::uint8_t {
  HighRelevant = 0,   // reward 1.0
  LowRelevant = 1,    // reward 0.5
  IrrelevantValid = 2,  // reward -0.5
  Invalid = 3,        // reward -1.0 (assigned by the rule-based checker)
};

/// Table I reward values.
[[nodiscard]] double rank_reward(RankClass c);

/// One performance-labeled training sequence.
struct RankedExample {
  std::vector<int> ids;  // token ids, VSS-first, no EOS
  RankClass rank = RankClass::IrrelevantValid;
};

struct LabelingResult {
  std::vector<RankedExample> examples;
  double fom_threshold = 0.0;  // Otsu threshold over relevant FoMs
  int labeled_count = 0;       // paper metric: "# of labeled topology"
};

struct LabelingConfig {
  circuit::CircuitType target = circuit::CircuitType::OpAmp;
  double invalid_fraction = 0.15;  // synthesized invalid examples
  std::uint64_t seed = 77;
};

/// Label the dataset for a target circuit type: relevance from the type
/// tag, performance from mini-SPICE FoM + Otsu split, plus synthesized
/// invalid sequences (corrupted tours) for the Invalid rank.
[[nodiscard]] LabelingResult label_dataset(const data::Dataset& ds,
                                           const nn::Tokenizer& tok,
                                           const LabelingConfig& cfg);

struct RewardModelConfig {
  int steps = 150;
  int group = 3;        // Plackett–Luce group size (one per valid class)
  float lr = 1e-3f;
  float ce_weight = 1.0f;  // auxiliary cross-entropy weight
  float clip = 1.0f;
  std::uint64_t seed = 55;
};

/// Transformer classifier + rule-based checker.
class RewardModel {
 public:
  /// Initializes the trunk from the pretrained model (weight copy).
  RewardModel(const nn::TransformerLM& pretrained, const nn::Tokenizer& tok,
              Rng& rng);

  /// Train on the valid-ranked examples (Invalid examples are ignored —
  /// the rule-based checker covers them). Returns per-step losses.
  std::vector<double> train(const std::vector<RankedExample>& examples,
                            const RewardModelConfig& cfg);

  /// Class probabilities {high, low, irrelevant} for a sequence.
  [[nodiscard]] std::vector<float> classify(const std::vector<int>& ids) const;

  /// Expected rank score of a sequence under the classifier (in
  /// [-0.5, 1.0]); does NOT apply the validity rule.
  [[nodiscard]] double score(const std::vector<int>& ids) const;

  /// Full Table I reward: rule-based validity check first (-1.0 when the
  /// sequence does not decode to a simulatable topology), classifier
  /// expected score otherwise.
  [[nodiscard]] double reward(const std::vector<int>& ids) const;

  /// Classification accuracy over a labeled set (validation metric).
  [[nodiscard]] double accuracy(
      const std::vector<RankedExample>& examples) const;

 private:
  [[nodiscard]] tensor::Tensor class_logits(const std::vector<int>& ids) const;

  const nn::Tokenizer* tok_;
  nn::TransformerLM trunk_;
  tensor::Tensor head_w_;  // (C, 3)
  tensor::Tensor head_b_;  // (3)
};

}  // namespace eva::rl
