// Shared setup for the reproduction benchmarks: one standard pipeline
// configuration (dataset scale, model scale, pretraining budget) so every
// table/figure bench runs the same EVA.
//
// Scale knobs come from environment variables so the same binaries can run
// quick (CI) or closer to paper scale:
//   EVA_BENCH_PER_TYPE   topologies per circuit type   (default 30)
//   EVA_BENCH_STEPS      pretraining steps             (default 600)
//   EVA_BENCH_GEN_N      generation batch for metrics  (default 300)
//   EVA_BENCH_SEED       master seed                   (default 7)
#pragma once

#include <chrono>
#include <string>

#include "core/eva.hpp"
#include "obs/log.hpp"
#include "util/env.hpp"
#include "util/io.hpp"

namespace eva::bench {

struct BenchScale {
  int per_type = env_int("EVA_BENCH_PER_TYPE", 30);
  int pretrain_steps = env_int("EVA_BENCH_STEPS", 600);
  int gen_n = env_int("EVA_BENCH_GEN_N", 300);
  std::uint64_t seed = static_cast<std::uint64_t>(env_int("EVA_BENCH_SEED", 7));
};

/// The standard bench configuration of the EVA engine.
inline core::EvaConfig bench_config(const BenchScale& s) {
  core::EvaConfig cfg;
  cfg.seed = s.seed;
  cfg.dataset.per_type = s.per_type;
  cfg.dataset.seed = s.seed + 100;
  cfg.dataset.require_simulatable = true;
  cfg.tours_per_topology = 4;
  cfg.model = nn::ModelConfig::bench_scale(0);
  cfg.pretrain.steps = s.pretrain_steps;
  cfg.pretrain.batch = 8;
  cfg.pretrain.lr = 3e-3f;
  // Mild sharpening: at CPU scale the model's top-1 structure is far more
  // reliable than its tail, and the paper's metrics sample generations.
  cfg.sample_temperature = 0.75f;
  return cfg;
}

/// Build + pretrain the standard pipeline. Progress goes through the
/// structured logger (stderr + EVA_LOG_FILE), keeping stdout clean for
/// the paper-style tables the bench binaries print.
inline core::Eva make_pretrained(const BenchScale& s) {
  const auto t0 = std::chrono::steady_clock::now();
  core::Eva engine(bench_config(s));
  obs::log_info("bench.setup",
                {{"per_type", s.per_type}, {"pretrain_steps", s.pretrain_steps}});
  engine.prepare();
  obs::log_info(
      "bench.prepared",
      {{"topologies",
        static_cast<std::int64_t>(engine.dataset().entries().size())},
       {"vocab", engine.tokenizer().vocab_size()},
       {"train_seqs", static_cast<std::int64_t>(engine.corpus().train.size())},
       {"model_params", static_cast<std::int64_t>(engine.model().num_params())}});
  const auto result = engine.pretrain();
  const auto dt = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  obs::log_info("bench.pretrained", {{"first_loss", result.losses.front()},
                                     {"last_loss", result.losses.back()},
                                     {"val_loss", result.final_val_loss},
                                     {"setup_s", dt}});
  return engine;
}

/// Format helpers for paper-style table cells.
inline std::string pct(double v) { return eva::fmt(v, 1); }
inline std::string na() { return "N/A"; }

}  // namespace eva::bench
