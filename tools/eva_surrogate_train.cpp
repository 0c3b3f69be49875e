// eva_surrogate_train: fit the learned FoM surrogate head (DESIGN.md
// §15) and leave a checkpoint a serving process can load.
//
// Pipeline: synthesize a dataset -> label it through the reward-model
// pipeline (rule-based validity + Mini-SPICE FoM + Otsu split) -> train
// the pooled-embedding MLP on the valid rank classes -> report accuracy
// metrics as one JSON line on stdout (tools/surrogate_gate.sh parses
// it).
//
// Usage: eva_surrogate_train [--out DIR] [--steps N] [--per-type N]
//                            [--seed N] [--resume]
//   --out DIR     checkpoint directory (default $EVA_SURROGATE_CKPT,
//                 else "surrogate_ckpt"); empty string disables
//                 checkpointing
//   --steps N     training steps (default 300)
//   --per-type N  synthesized topologies per circuit type (default 24)
//   --seed N      dataset/model seed (default 17)
//   --resume      resume from the newest checkpoint in --out
//
// A malformed or out-of-range --steps or --per-type (below 1) falls back
// to its default (util/env.hpp).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "data/dataset.hpp"
#include "nn/config.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "rl/reward_model.hpp"
#include "surrogate/surrogate.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace eva;

  std::string out_dir;
  if (const char* v = std::getenv("EVA_SURROGATE_CKPT"); v && *v) out_dir = v;
  if (out_dir.empty()) out_dir = "surrogate_ckpt";
  int steps = 300;
  int per_type = 24;
  std::uint64_t seed = 17;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_val = i + 1 < argc;
    if (arg == "--out" && has_val) {
      out_dir = argv[++i];
    } else if (arg == "--steps" && has_val) {
      steps = parse_int(argv[++i], steps, 1);
    } else if (arg == "--per-type" && has_val) {
      per_type = parse_int(argv[++i], per_type, 1);
    } else if (arg == "--seed" && has_val) {
      seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--resume") {
      resume = true;
    } else {
      std::fprintf(stderr, "eva_surrogate_train: unknown arg %s\n",
                   arg.c_str());
      return 2;
    }
  }

  try {
    data::DatasetConfig dcfg;
    dcfg.per_type = per_type;
    dcfg.seed = seed;
    dcfg.require_simulatable = false;
    const auto ds = data::Dataset::build(dcfg);
    // The serving vocabulary, not a data-driven one: the checkpoint's
    // fingerprint (vocab, d_embed, d_hidden) must match the head
    // eva_serve_main builds, or EVA_SURROGATE_CKPT refuses to load.
    // Keep the limits in sync with eva_serve_main.
    const nn::Tokenizer tok({4, 4, 2, 2, 2, 2, 2, 2});

    rl::LabelingConfig lcfg;
    lcfg.seed = seed + 1;
    lcfg.skip_unencodable = true;  // entries past the fixed limits
    const auto labels = rl::label_dataset(ds, tok, lcfg);
    const auto examples = surrogate::make_labeled(labels.examples);
    if (examples.empty()) {
      std::fprintf(stderr, "eva_surrogate_train: no valid-rank examples\n");
      return 1;
    }

    // The embedding seed comes from a fresh LM at the serving scale; a
    // pretrained checkpoint would slot in here once train_lm emits one.
    // bench_scale to match the d_embed of the head eva_serve_main builds.
    Rng rng(seed + 2);
    const nn::ModelConfig mcfg = nn::ModelConfig::bench_scale(tok.vocab_size());
    const nn::TransformerLM lm(mcfg, rng);
    surrogate::SurrogateModel model =
        surrogate::SurrogateModel::from_lm(lm, 32, rng);

    surrogate::SurrogateTrainConfig tcfg;
    tcfg.steps = steps;
    tcfg.seed = seed + 3;
    tcfg.run.checkpoint_dir = out_dir;
    tcfg.run.resume = resume;
    const auto res = model.train(examples, tcfg);

    std::printf("{\"steps\": %zu, \"start_step\": %d, \"examples\": %zu, "
                "\"labeled\": %d, \"skipped_unencodable\": %d, "
                "\"final_loss\": %.6g, "
                "\"class_accuracy\": %.6g, \"ranking_accuracy\": %.6g, "
                "\"checkpoint_dir\": \"%s\"}\n",
                res.losses.size() + static_cast<std::size_t>(res.start_step),
                res.start_step, examples.size(), labels.labeled_count,
                labels.skipped_unencodable,
                res.losses.empty() ? 0.0 : res.losses.back(),
                res.class_accuracy, res.ranking_accuracy, out_dir.c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "eva_surrogate_train: %s\n", e.what());
    return 1;
  }
}
