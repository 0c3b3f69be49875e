#include "util/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace eva::fault {

namespace {

struct SiteRule {
  std::vector<std::uint64_t> occurrences;  // 1-based trigger points
  bool every = false;                      // `site:*`
};

struct FaultState {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  std::map<std::string, SiteRule, std::less<>> rules;
  std::map<std::string, std::uint64_t, std::less<>> counts;
};

void parse_spec_locked(FaultState& st, std::string_view spec);

FaultState& state() {
  static FaultState* s = [] {
    auto* st = new FaultState();  // leaked: sites may run during atexit
    const char* spec = std::getenv("EVA_FAULT");
    if (spec && *spec) parse_spec_locked(*st, spec);
    return st;
  }();
  return *s;
}

void parse_spec_locked(FaultState& st, std::string_view spec) {
  st.rules.clear();
  st.counts.clear();
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos || colon == 0) continue;
    const std::string site(entry.substr(0, colon));
    const std::string_view when = entry.substr(colon + 1);
    SiteRule& rule = st.rules[site];
    if (when == "*") {
      rule.every = true;
    } else {
      std::uint64_t n = 0;
      for (char c : when) {
        if (c < '0' || c > '9') {
          n = 0;
          break;
        }
        n = n * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (n > 0) rule.occurrences.push_back(n);
    }
  }
  st.enabled.store(!st.rules.empty(), std::memory_order_relaxed);
}

}  // namespace

bool enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

bool should_fire(std::string_view site) {
  FaultState& st = state();
  if (!st.enabled.load(std::memory_order_relaxed)) return false;
  std::uint64_t occurrence = 0;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    const auto it = st.rules.find(site);
    if (it == st.rules.end()) return false;
    occurrence = ++st.counts[std::string(site)];
    fire = it->second.every;
    for (std::uint64_t o : it->second.occurrences) fire |= o == occurrence;
  }
  if (fire) {
    obs::counter("fault.injected").add();
    obs::log_warn("fault.injected",
                  {{"site", site},
                   {"occurrence", static_cast<std::int64_t>(occurrence)}});
  }
  return fire;
}

void set_spec(std::string_view spec) {
  FaultState& st = state();
  std::lock_guard<std::mutex> lk(st.mu);
  parse_spec_locked(st, spec);
}

std::uint64_t occurrences(std::string_view site) {
  FaultState& st = state();
  std::lock_guard<std::mutex> lk(st.mu);
  const auto it = st.counts.find(site);
  return it == st.counts.end() ? 0 : it->second;
}

}  // namespace eva::fault
