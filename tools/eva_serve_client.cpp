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
// concurrently with the server.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/backoff.hpp"
#include "util/env.hpp"

namespace {

int connect_with_retry(const char* host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1) return -1;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < give_up) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return -1;
}

bool send_line(int fd, const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::send(fd, out.data() + off, out.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read lines until `want_done` terminator lines have been seen (or EOF).
/// Returns the number of terminators observed; when `last_done` is
/// non-null it receives the final terminator line (for retry decisions).
int read_until_done(int fd, std::string& buf, int want_done,
                    std::string* last_done = nullptr) {
  int done_seen = 0;
  char chunk[4096];
  while (done_seen < want_done) {
    std::size_t nl;
    while (done_seen < want_done &&
           (nl = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      std::printf("%s\n", line.c_str());
      if (line.find("\"done\"") != std::string::npos) {
        ++done_seen;
        if (last_done) *last_done = line;
      }
    }
    if (done_seen >= want_done) break;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  return done_seen;
}

/// Should this terminator be retried, and after how long? The server's
/// retry_after_ms hint is honored when it exceeds the backoff delay.
bool wants_retry(const std::string& done_line, double* hint_ms) {
  const bool backpressure =
      done_line.find("\"status\": \"rejected\"") != std::string::npos ||
      done_line.find("\"status\": \"unavailable\"") != std::string::npos;
  if (!backpressure) return false;
  const std::size_t at = done_line.find("\"retry_after_ms\": ");
  if (at != std::string::npos) {
    *hint_ms = std::strtod(done_line.c_str() + at + 18, nullptr);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* host = "127.0.0.1";
  int port = 7077;
  int repeat = 1;
  bool burst = false;
  eva::serve::BackoffPolicy backoff{/*max_retries=*/0, /*base_ms=*/25.0,
                                    /*max_ms=*/1000.0};
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
      backoff.max_retries = eva::parse_int(argv[++i], backoff.max_retries, 0);
    } else if (arg == "--retry-base-ms" && i + 1 < argc) {
      backoff.base_ms = eva::parse_double(argv[++i], backoff.base_ms);
    } else if (arg == "--burst") {
      burst = true;
    } else {
      requests.push_back(arg);
    }
  }
  if (requests.empty()) requests.emplace_back("{}");

  int fd = connect_with_retry(host, port);
  if (fd < 0) {
    std::fprintf(stderr, "eva_serve_client: cannot connect to %s:%d\n", host,
                 port);
    return 1;
  }

  const int total = repeat * static_cast<int>(requests.size());
  int done_seen = 0;
  int retries = 0;
  std::string buf;
  bool write_ok = true;
  if (burst) {
    for (int k = 0; write_ok && k < repeat; ++k) {
      for (const auto& r : requests) {
        if (!send_line(fd, r)) {
          write_ok = false;
          break;
        }
      }
    }
    done_seen = read_until_done(fd, buf, total);
  } else {
    std::uint64_t attempt_seq = 0;
    for (int k = 0; write_ok && k < repeat; ++k) {
      for (const auto& r : requests) {
        bool answered = false;
        for (int attempt = 0; attempt <= backoff.max_retries; ++attempt) {
          if (attempt > 0) ++retries;
          if (fd < 0) fd = connect_with_retry(host, port);
          if (fd < 0) break;
          if (!send_line(fd, r)) {
            // Stale connection (server restarted): reconnect and retry.
            ::close(fd);
            fd = -1;
            buf.clear();
            continue;
          }
          std::string done_line;
          if (read_until_done(fd, buf, 1, &done_line) != 1) {
            ::close(fd);
            fd = -1;
            buf.clear();
            continue;
          }
          double hint_ms = 0.0;
          if (!wants_retry(done_line, &hint_ms) ||
              attempt == backoff.max_retries) {
            answered = true;
            break;
          }
          const double wait_ms = std::max(
              hint_ms, backoff.delay_ms(attempt + 1, 0x5eed ^ ++attempt_seq));
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
