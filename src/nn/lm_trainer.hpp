// Language-model pretraining (paper §III-B, Eq. 1).
//
// Builds the sequence corpus from the topology dataset (several randomized
// Euler tours per topology — the paper's DFS-permutation augmentation that
// expands 3470 topologies into 234k sequences) and maximizes the standard
// next-token objective. Unlike generic text pretraining, every training
// sequence is exactly one complete circuit topology.
#pragma once

#include <functional>
#include <vector>

#include "data/dataset.hpp"
#include "nn/sampler.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "tensor/optim.hpp"
#include "train/run.hpp"
#include "train/sentinel.hpp"

namespace eva::nn {

/// Tokenized sequences, each one complete topology: [VSS ... VSS, EOS].
struct SequenceCorpus {
  std::vector<std::vector<int>> train;
  std::vector<std::vector<int>> val;
};

/// Build the corpus: `tours_per_topology` randomized Euler tours for each
/// training topology (sequence augmentation), one tour per validation
/// topology. Sequences longer than max_seq are dropped (counted).
[[nodiscard]] SequenceCorpus build_corpus(const data::Dataset& ds,
                                          const Tokenizer& tok,
                                          int tours_per_topology, int max_seq,
                                          Rng& rng);

struct PretrainConfig {
  int steps = 300;
  int batch = 8;
  float lr = 3e-3f;
  float lr_min_frac = 0.1f;   // cosine decay floor
  int warmup = 20;
  float clip = 1.0f;
  float weight_decay = 0.01f;
  std::uint64_t seed = 1234;
  int log_every = 25;

  // Fault tolerance (train/run.hpp): snapshots cover params, optimizer
  // and RNG; a resumed run re-aligns the LR schedule from the step.
  train::RunConfig run;
  train::SentinelConfig sentinel;
};

struct PretrainResult {
  std::vector<double> losses;      // per-step training loss (this run only;
                                   // steps the sentinel skipped have none)
  double final_val_loss = 0.0;
  int start_step = 0;              // > 0 when resumed from a checkpoint
  int end_step = 0;                // completed steps when the run returned
  bool interrupted = false;        // stopped early via SIGINT/SIGTERM
};

/// Mean next-token cross-entropy of the model on a sequence set.
[[nodiscard]] double eval_lm_loss(const TransformerLM& model,
                                  const std::vector<std::vector<int>>& seqs,
                                  int batch = 8);

/// Run pretraining. `on_step(step, loss)` is an optional progress hook.
PretrainResult pretrain(
    TransformerLM& model, const SequenceCorpus& corpus,
    const PretrainConfig& cfg,
    const std::function<void(int, double)>& on_step = nullptr);

/// Assemble one padded next-token batch: inputs (B,T), targets with pad
/// positions set to ignore_index -1. Exposed for the RL fine-tuners.
struct TokenBatch {
  std::vector<int> inputs;
  std::vector<int> targets;
  int batch = 0;
  int seq_len = 0;
};
[[nodiscard]] TokenBatch make_batch(
    const std::vector<const std::vector<int>*>& seqs, int max_seq);

}  // namespace eva::nn
