#include "serve/sidecar.hpp"

#include <functional>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace eva::serve {

namespace {

// Responses echo the key so clients (the router) can parse them with the
// same parse_line grammar used for requests.
std::string hit_json(const std::string& key, const std::string& value) {
  std::string out =
      "{\"done\": true, \"status\": \"ok\", \"cmd\": \"cache_get\", "
      "\"hit\": true, \"key\": ";
  obs::json_string_into(out, key);
  out += ", \"value\": ";
  obs::json_string_into(out, value);
  out += "}";
  return out;
}

std::string miss_json(const std::string& key) {
  std::string out =
      "{\"done\": true, \"status\": \"ok\", \"cmd\": \"cache_get\", "
      "\"hit\": false, \"key\": ";
  obs::json_string_into(out, key);
  out += "}";
  return out;
}

std::string put_json(bool stored) {
  std::string out =
      "{\"done\": true, \"status\": \"ok\", \"cmd\": \"cache_put\", "
      "\"stored\": ";
  out += stored ? "true" : "false";
  out += "}";
  return out;
}

}  // namespace

CacheSidecar::CacheSidecar(SidecarConfig cfg)
    : cfg_(std::move(cfg)),
      cache_(cfg_.max_entries, "cache."),
      lines_("cache", cfg_.bind_addr, cfg_.port, cfg_.idle_ms) {}

CacheSidecar::~CacheSidecar() { stop(); }

int CacheSidecar::listen_and_start() {
  return lines_.start([this](int fd) -> LineServer::LineHandler {
    return std::bind_front(&CacheSidecar::answer, this, fd);
  });
}

void CacheSidecar::run() { lines_.run(); }

void CacheSidecar::stop() { lines_.stop(); }

bool CacheSidecar::answer(int fd, const std::string&, ParsedLine& parsed) {
  static obs::Counter& hits = obs::counter("cache.hits");
  static obs::Counter& misses = obs::counter("cache.misses");
  static obs::Counter& puts = obs::counter("cache.puts");
  static obs::Counter& refused = obs::counter("cache.put_refused");
  switch (parsed.kind) {
    case ParsedLine::Kind::kCacheGet: {
      const auto value = cache_.get(parsed.key);
      return net::send_line(fd, value ? hit_json(parsed.key, *value)
                                      : miss_json(parsed.key));
    }
    case ParsedLine::Kind::kCachePut: {
      const bool ok = parsed.value.size() <= cfg_.max_value_bytes;
      if (ok) {
        puts.add();
        cache_.put(parsed.key, std::move(parsed.value));
      } else {
        refused.add();
      }
      return net::send_line(fd, put_json(ok));
    }
    case ParsedLine::Kind::kStats: {
      std::string out =
          "{\"done\": true, \"status\": \"ok\", \"cmd\": \"stats\", "
          "\"cache_sidecar\": {\"size\": " +
          std::to_string(size());
      out += ", \"capacity\": " + std::to_string(cfg_.max_entries);
      out += ", \"hits\": " + std::to_string(hits.value());
      out += ", \"misses\": " + std::to_string(misses.value());
      out += ", \"puts\": " + std::to_string(puts.value());
      out += ", \"put_refused\": " + std::to_string(refused.value());
      out += "}}";
      return net::send_line(fd, out);
    }
    case ParsedLine::Kind::kGenerate:
      break;
  }
  return net::send_line(
      fd, bad_request_json("generation requests are answered by replicas"));
}

std::size_t CacheSidecar::size() const { return cache_.size(); }

}  // namespace eva::serve
