// eva_router_main: fleet front end (DESIGN.md §13).
//
// Binds the router's TCP listener, consistent-hashes generation requests
// across the configured replica backends with health-checked failover,
// retry/backoff, load shedding, and an optional shared cache sidecar,
// and runs until SIGTERM/SIGINT.
//
// Environment:
//   EVA_ROUTER_PORT          listen port (default 7070; 0 = ephemeral)
//   EVA_ROUTER_BACKENDS      comma-separated replica host:port list
//                            (required unless --backends is given)
//   EVA_ROUTER_CACHE         cache sidecar host:port ("" = no shared cache)
//   EVA_ROUTER_HEALTH_MS     health-probe interval (default 250; min 1)
//   EVA_ROUTER_TIMEOUT_MS    per-attempt replica budget (default 5000;
//                            min 1)
//   EVA_ROUTER_MAX_ATTEMPTS  dispatch attempts per request (default 4;
//                            min 1)
//   EVA_ROUTER_MAX_INFLIGHT  shed above this many in-flight requests
//                            (default 256; min 1)
//   EVA_SERVE_IDLE_MS        per-connection idle read timeout
//   EVA_METRICS_FILE         metrics export target (obs layer)
//
// Malformed or out-of-range values, and values below the minimum, fall
// back to the defaults (util/env.hpp).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "serve/router.hpp"
#include "train/signal.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace {

std::string env_str(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v && *v ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eva;

  train::install_signal_handlers();

  serve::RouterConfig cfg;
  cfg.port = env_int("EVA_ROUTER_PORT", 7070);
  std::string backends = env_str("EVA_ROUTER_BACKENDS", "");
  cfg.cache_addr = env_str("EVA_ROUTER_CACHE", "");
  cfg.health_interval_ms = env_double("EVA_ROUTER_HEALTH_MS", 250.0, 1.0);
  cfg.replica_timeout_ms = env_double("EVA_ROUTER_TIMEOUT_MS", 5000.0, 1.0);
  cfg.max_attempts = env_int("EVA_ROUTER_MAX_ATTEMPTS", 4, 1);
  cfg.max_inflight =
      static_cast<std::size_t>(env_int("EVA_ROUTER_MAX_INFLIGHT", 256, 1));
  cfg.idle_ms = env_double("EVA_SERVE_IDLE_MS", 0.0, 0.0);
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") cfg.port = parse_int(argv[i + 1], cfg.port);
    if (arg == "--backends") backends = argv[i + 1];
    if (arg == "--cache") cfg.cache_addr = argv[i + 1];
  }
  cfg.backends = serve::parse_backend_list(backends);

  try {
    serve::Router router(cfg);
    const int port = router.listen_and_start();
    // CI readiness probe scrapes this exact line.
    std::printf("eva_router listening on port %d\n", port);
    std::fflush(stdout);
    router.run();
  } catch (const Error& e) {
    std::fprintf(stderr, "eva_router: %s\n", e.what());
    return 1;
  }
  std::printf("eva_router drained, exiting\n");
  return 0;
}
