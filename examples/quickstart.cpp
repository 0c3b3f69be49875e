// Quickstart: the EVA pipeline end to end in ~a minute.
//
//   1. Build the topology dataset (11 analog circuit types).
//   2. Pretrain the decoder-only transformer on Euler-tour sequences.
//   3. Generate new topologies from scratch (starting at VSS).
//   4. Check validity and print one generated netlist as SPICE.
//
// Build:  cmake --build build --target quickstart
// Run:    ./build/examples/quickstart
//
// Crash safety: set EVA_CHECKPOINT_DIR to snapshot pretraining at
// EVA_CHECKPOINT_EVERY steps; Ctrl-C then finishes the current step,
// writes a final snapshot, and exits cleanly. Re-running with
// EVA_RESUME=1 continues bit-for-bit from the newest valid snapshot.
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/eva.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "spice/engine.hpp"
#include "train/signal.hpp"
#include "util/env.hpp"
#include "util/io.hpp"

int main() {
  using namespace eva;

  core::EvaConfig cfg;
  cfg.dataset.per_type = 15;           // small corpus for a fast demo
  cfg.pretrain.steps = 250;
  cfg.model = nn::ModelConfig::bench_scale(0);

  if (const char* dir = std::getenv("EVA_CHECKPOINT_DIR")) {
    auto& run = cfg.pretrain.run;
    run.checkpoint_dir = dir;
    run.checkpoint_every =
        env_int("EVA_CHECKPOINT_EVERY", run.checkpoint_every, 1);
    const char* resume = std::getenv("EVA_RESUME");
    run.resume = resume && std::string(resume) != "0";
    train::install_signal_handlers();  // SIGINT/SIGTERM -> clean stop
  }

  std::cout << "=== EVA quickstart ===\n";
  core::Eva engine(cfg);
  engine.prepare();
  std::cout << "dataset: " << engine.dataset().entries().size()
            << " unique topologies | vocab: "
            << engine.tokenizer().vocab_size()
            << " tokens | model: " << engine.model().num_params()
            << " parameters\n";

  // Progress goes through the structured logger (stderr + EVA_LOG_FILE);
  // stdout keeps the headline numbers the docs quote.
  obs::log_info("quickstart.pretraining", {{"steps", cfg.pretrain.steps}});
  const auto result = engine.pretrain();
  if (result.start_step > 0) {
    std::cout << "resumed from checkpoint at step " << result.start_step
              << "\n";
  }
  if (result.interrupted) {
    std::cout << "interrupted at step " << result.end_step
              << "; checkpoint written, rerun with EVA_RESUME=1\n";
    obs::export_now();
    return 0;
  }
  if (!result.losses.empty()) {
    std::cout << "loss " << eva::fmt(result.losses.front(), 3) << " -> "
              << eva::fmt(result.losses.back(), 3) << " (val "
              << eva::fmt(result.final_val_loss, 3) << ")\n";
  }

  obs::log_info("quickstart.generating", {{"n", 20}});
  const auto attempts = engine.generate(20);
  int valid = 0;
  const circuit::Netlist* first_valid = nullptr;
  for (const auto& a : attempts) {
    if (a && spice::simulatable(*a)) {
      ++valid;
      if (!first_valid) first_valid = &*a;
    }
  }
  std::cout << valid << "/20 generated topologies are simulatable\n";
  if (first_valid) {
    std::cout << "\nfirst valid generated circuit ("
              << circuit::type_name(circuit::classify(*first_valid))
              << "):\n"
              << first_valid->to_spice();
  }
  // Write EVA_METRICS_FILE / EVA_TRACE_FILE now (also runs at exit).
  obs::export_now();
  return 0;
}
