// eva_cache_main: shared-cache sidecar process (DESIGN.md §13).
//
// Serves the fleet's second cache tier over the JSON-lines protocol
// (cache_get / cache_put / stats) until SIGTERM/SIGINT.
//
// Environment:
//   EVA_CACHE_PORT      listen port (default 7190; 0 = ephemeral)
//   EVA_CACHE_ENTRIES   LRU entry bound (default 4096; min 1)
//   EVA_SERVE_IDLE_MS   per-connection idle read timeout
//
// Malformed or out-of-range values, and values below the minimum, fall
// back to the defaults (util/env.hpp).
#include <cstdio>
#include <string>

#include "serve/sidecar.hpp"
#include "train/signal.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  using namespace eva;

  train::install_signal_handlers();

  serve::SidecarConfig cfg;
  cfg.port = env_int("EVA_CACHE_PORT", 7190);
  cfg.max_entries =
      static_cast<std::size_t>(env_int("EVA_CACHE_ENTRIES", 4096, 1));
  cfg.idle_ms = env_double("EVA_SERVE_IDLE_MS", 0.0, 0.0);
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") cfg.port = parse_int(argv[i + 1], cfg.port);
  }

  try {
    serve::CacheSidecar cache(cfg);
    const int port = cache.listen_and_start();
    // CI readiness probe scrapes this exact line.
    std::printf("eva_cache listening on port %d\n", port);
    std::fflush(stdout);
    cache.run();
  } catch (const Error& e) {
    std::fprintf(stderr, "eva_cache: %s\n", e.what());
    return 1;
  }
  std::printf("eva_cache exiting\n");
  return 0;
}
