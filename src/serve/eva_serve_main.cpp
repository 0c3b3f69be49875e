// eva_serve_main: stand-alone circuit-generation server (DESIGN.md §10).
//
// Boots a bench-scale model + persistent batched decoder behind a
// GenerationService, binds the JSON-lines TCP front end, and runs until
// SIGTERM/SIGINT, draining admitted requests before exit.
//
// Environment:
//   EVA_SERVE_PORT          listen port (default 7077; 0 = ephemeral)
//   EVA_SERVE_QUEUE_MAX     admission queue bound (default 64; min 1)
//   EVA_SERVE_IDLE_MS       per-connection idle read timeout
//   EVA_SERVE_SLOW_MS       latency budget for the slow-request WARN log
//   EVA_QUANT               inference weight tier: f32 (default) | int8
//   EVA_METRICS_FILE        metrics export target, written at exit
//   EVA_TRACE_FILE          Chrome trace target, written at exit
//   EVA_FAULT               fault injection spec (serve_accept, ...)
//
// Malformed or out-of-range values, and values below the minimum, fall
// back to the defaults (util/env.hpp).
#include <cstdio>
#include <string>

#include "nn/config.hpp"
#include "nn/tokenizer.hpp"
#include "nn/transformer.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "train/signal.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace eva;

  train::install_signal_handlers();

  serve::ServerConfig scfg;
  scfg.port = env_int("EVA_SERVE_PORT", 7077);
  scfg.idle_ms = env_double("EVA_SERVE_IDLE_MS", 0.0, 0.0);
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") scfg.port = parse_int(argv[i + 1], scfg.port);
  }

  serve::ServiceConfig cfg;
  cfg.queue_max =
      static_cast<std::size_t>(env_int("EVA_SERVE_QUEUE_MAX", 64, 1));
  cfg.slow_warn_ms = env_double("EVA_SERVE_SLOW_MS", cfg.slow_warn_ms, 0.0);
  cfg.quant = tensor::quant_kind_from_env(cfg.quant);

  // Bench-scale model with fresh weights: the serving layer's contract is
  // about scheduling/caching, not sample quality. A trained checkpoint
  // can be swapped in once train_lm emits one.
  const nn::Tokenizer tok({4, 4, 2, 2, 2, 2, 2, 2});
  Rng rng(1234);
  const nn::ModelConfig mcfg = nn::ModelConfig::bench_scale(tok.vocab_size());
  // Non-const: GenerationService repacks the inference weights when the
  // quantized tier is selected (EVA_QUANT=int8; default f32 leaves
  // served output bit-identical to the unquantized path).
  nn::TransformerLM model(mcfg, rng);

  try {
    serve::GenerationService service(model, tok, cfg);
    serve::JsonLineServer server(service, scfg);
    const int port = server.listen_and_start();
    // CI readiness probe scrapes this exact line.
    std::printf("eva_serve listening on port %d\n", port);
    std::fflush(stdout);
    server.run();
  } catch (const Error& e) {
    std::fprintf(stderr, "eva_serve: %s\n", e.what());
    return 1;
  }
  std::printf("eva_serve drained, exiting\n");
  return 0;
}
