#include "core/eva.hpp"

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "train/checkpoint.hpp"

namespace eva::core {

using circuit::CircuitType;

Eva::Eva(EvaConfig cfg) : cfg_(std::move(cfg)), rng_(cfg_.seed) {}

void Eva::prepare() {
  obs::Span span("eva.prepare");
  dataset_ = std::make_unique<data::Dataset>(
      data::Dataset::build(cfg_.dataset));
  tokenizer_ = std::make_unique<nn::Tokenizer>(
      nn::Tokenizer::from_dataset(*dataset_));
  cfg_.model.vocab = tokenizer_->vocab_size();
  model_ = std::make_unique<nn::TransformerLM>(cfg_.model, rng_);
  corpus_ = std::make_unique<nn::SequenceCorpus>(
      nn::build_corpus(*dataset_, *tokenizer_, cfg_.tours_per_topology,
                       cfg_.model.max_seq, rng_));
  obs::log_info(
      "eva.prepared",
      {{"topologies", static_cast<std::int64_t>(dataset_->entries().size())},
       {"vocab", tokenizer_->vocab_size()},
       {"train_seqs", static_cast<std::int64_t>(corpus_->train.size())},
       {"val_seqs", static_cast<std::int64_t>(corpus_->val.size())}});
}

nn::PretrainResult Eva::pretrain() {
  EVA_REQUIRE(prepared(), "call prepare() before pretrain()");
  return nn::pretrain(*model_, *corpus_, cfg_.pretrain);
}

rl::LabelingResult Eva::label_for(CircuitType target) const {
  EVA_REQUIRE(prepared(), "call prepare() first");
  rl::LabelingConfig lcfg;
  lcfg.target = target;
  lcfg.seed = cfg_.seed + 13;
  return rl::label_dataset(*dataset_, *tokenizer_, lcfg);
}

rl::PpoStats Eva::finetune_ppo(CircuitType target, rl::PpoConfig ppo,
                               rl::RewardModelConfig rm) {
  EVA_REQUIRE(prepared(), "call prepare() first");
  const auto labels = label_for(target);
  rl::RewardModel reward(*model_, *tokenizer_, rng_);
  reward.train(labels.examples, rm);
  rl::PpoTrainer trainer(*model_, *tokenizer_, reward, ppo, rng_);
  return trainer.train();
}

rl::DpoStats Eva::finetune_dpo(CircuitType target, rl::DpoConfig dpo,
                               int pairs_per_combo) {
  EVA_REQUIRE(prepared(), "call prepare() first");
  const auto labels = label_for(target);
  Rng pair_rng(cfg_.seed + 29);
  const auto pairs =
      rl::build_preference_pairs(labels.examples, pairs_per_combo, pair_rng);
  rl::DpoTrainer trainer(*model_, *tokenizer_, dpo);
  return trainer.train(pairs);
}

std::vector<eval::Attempt> Eva::generate(int n) {
  EVA_REQUIRE(prepared(), "call prepare() first");
  obs::Span span("eva.generate");
  nn::SampleOptions opts;
  opts.temperature = cfg_.sample_temperature;
  const auto samples = nn::sample_batch(*model_, *tokenizer_, rng_, n, opts);
  std::vector<eval::Attempt> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    out.push_back(nn::ids_to_netlist(*tokenizer_, s.ids));
  }
  return out;
}

eval::GenerationEval Eva::evaluate_generation(int n) {
  return eval::evaluate_generation(generate(n), *dataset_);
}

eval::FomAtKResult Eva::discover(CircuitType target, int k,
                                 const opt::GaConfig& ga) {
  // Decode all k attempts in one batched pass, then size them in order.
  const auto attempts = generate(k);
  std::size_t next = 0;
  auto gen = [&]() -> eval::Attempt { return attempts[next++]; };
  return eval::fom_at_k(gen, k, target, ga);
}

void Eva::save_model(const std::string& path) const {
  EVA_REQUIRE(prepared(), "call prepare() first");
  train::write_snapshot(path, {model_->parameters()}, /*fingerprint=*/0);
}

void Eva::load_model(const std::string& path) {
  EVA_REQUIRE(prepared(), "call prepare() first");
  train::TrainState state{model_->parameters()};
  train::read_snapshot(path, state, /*fingerprint=*/0);
}

const data::Dataset& Eva::dataset() const {
  EVA_REQUIRE(prepared(), "not prepared");
  return *dataset_;
}
const nn::Tokenizer& Eva::tokenizer() const {
  EVA_REQUIRE(prepared(), "not prepared");
  return *tokenizer_;
}
nn::TransformerLM& Eva::model() {
  EVA_REQUIRE(prepared(), "not prepared");
  return *model_;
}
const nn::SequenceCorpus& Eva::corpus() const {
  EVA_REQUIRE(prepared(), "not prepared");
  return *corpus_;
}

}  // namespace eva::core
