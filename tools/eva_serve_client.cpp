// eva_serve_client: tiny JSON-lines client for eva_serve_main.
//
// Usage:
//   eva_serve_client [--host H] [--port P] [--repeat K] [--burst]
//                    [--retry N] [--retry-base-ms B]
//                    ['{"type":"OpAmp","n":2}' ...]
//
// Each positional argument is sent as one request line; with no
// positionals a single default request ("{}") is sent. --repeat K sends
// the whole set K times. Normally the client writes a request, then
// reads lines until the {"done":...} terminator; --burst writes ALL
// request lines up front and only then starts reading — with a small
// server queue this overflows admission and exercises the backpressure
// path (the CI smoke job relies on this).
//
// --retry N resends a request whose terminator came back "rejected" or
// "unavailable" up to N more times, waiting the larger of the server's
// retry_after_ms hint and an exponential-backoff delay with jitter
// (serve/backoff.hpp — the same policy the router applies internally).
// Transport failures mid-response reconnect and retry too. Retries are
// sequential-mode only (--burst pipelines blind, so it cannot retry).
//
// Exit code 0 when every expected terminator line arrived, 1 otherwise.
// Connection attempts retry for ~5 s so the client can be launched
// concurrently with the server. Responses are read with no deadline
// (serve/protocol.hpp, read_response); a torn line ends one like a
// dropped connection.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/backoff.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "util/env.hpp"

namespace {

namespace net = eva::serve::net;
using eva::serve::ResponseEnd;

constexpr double kConnectWindowMs = 5000.0;
constexpr auto kNoDeadline = net::Clock::time_point::max();

void print_line(const std::string& line) { std::printf("%s\n", line.c_str()); }

}  // namespace

int main(int argc, char** argv) {
  const char* host = "127.0.0.1";
  int port = 7077;
  int repeat = 1;
  int max_retries = 0;
  bool burst = false;
  eva::serve::BackoffPolicy backoff{/*base_ms=*/25.0, /*max_ms=*/1000.0};
  std::vector<std::string> requests;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = eva::parse_int(argv[++i], port);
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = eva::parse_int(argv[++i], repeat, 1);
    } else if (arg == "--retry" && i + 1 < argc) {
      max_retries = eva::parse_int(argv[++i], max_retries, 0);
    } else if (arg == "--retry-base-ms" && i + 1 < argc) {
      backoff.base_ms = eva::parse_double(argv[++i], backoff.base_ms);
    } else if (arg == "--burst") {
      burst = true;
    } else {
      requests.push_back(arg);
    }
  }
  if (requests.empty()) requests.emplace_back("{}");

  net::ignore_sigpipe();
  int fd = net::connect_retrying(host, port, kConnectWindowMs);
  if (fd < 0) {
    std::fprintf(stderr, "eva_serve_client: cannot connect to %s:%d\n", host,
                 port);
    return 1;
  }
  net::LineReader reader(fd);

  const int total = repeat * static_cast<int>(requests.size());
  int done_seen = 0;
  int retries = 0;
  bool write_ok = true;
  if (burst) {
    for (int k = 0; write_ok && k < repeat; ++k) {
      for (const auto& r : requests) {
        if (!net::send_line(fd, r)) {
          write_ok = false;
          break;
        }
      }
    }
    while (done_seen < total &&
           eva::serve::read_response(reader, kNoDeadline, print_line) ==
               ResponseEnd::kDone) {
      ++done_seen;
    }
  } else {
    std::uint64_t attempt_seq = 0;
    for (int k = 0; write_ok && k < repeat; ++k) {
      for (const auto& r : requests) {
        bool answered = false;
        for (int attempt = 0; attempt <= max_retries; ++attempt) {
          if (attempt > 0) ++retries;
          if (fd < 0) {
            fd = net::connect_retrying(host, port, kConnectWindowMs);
            reader = net::LineReader(fd);
          }
          if (fd < 0) break;
          eva::serve::Terminator done;
          if (!net::send_line(fd, r) ||
              eva::serve::read_response(reader, kNoDeadline, print_line,
                                        &done) != ResponseEnd::kDone) {
            // Stale connection (server restarted): reconnect and retry.
            ::close(fd);
            fd = -1;
            continue;
          }
          if (!done.backpressure() || attempt == max_retries) {
            answered = true;
            break;
          }
          const double wait_ms =
              std::max(done.retry_after_ms.value_or(0.0),
                       backoff.delay_ms(attempt + 1, 0x5eed ^ ++attempt_seq));
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(wait_ms));
        }
        if (answered) {
          ++done_seen;
        } else if (fd < 0) {
          write_ok = false;
          break;
        }
      }
    }
  }
  if (fd >= 0) ::close(fd);

  std::fprintf(stderr,
               "eva_serve_client: %d/%d responses complete (%d retries)\n",
               done_seen, total, retries);
  return (write_ok && done_seen == total) ? 0 : 1;
}
