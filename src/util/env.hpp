// Configuration parsing for the daemons, tools and benches: environment
// variables and numeric command-line flags.
//
// One rule everywhere: a value is used only when the whole string parses
// as a number of the requested type, lies inside that type's range (a
// double must be finite) and is at least `min`. Anything else (unset,
// empty, malformed, trailing junk, out of range, below `min`) yields
// `fallback`. Configuration is read in each binary's main, never in a
// default member initializer, so a default-built config struct does not
// depend on the environment.
#pragma once

#include <climits>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace eva {

/// `text` as a decimal int, or `fallback` under the rule above.
[[nodiscard]] inline int parse_int(const char* text, int fallback,
                                   int min = INT_MIN) {
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  // long long holds every int, and strtoll saturates past its own range,
  // so one range check covers both overflows.
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < min || v > INT_MAX) return fallback;
  return static_cast<int>(v);
}

/// `text` as a finite double, or `fallback` under the rule above.
[[nodiscard]] inline double parse_double(
    const char* text, double fallback,
    double min = std::numeric_limits<double>::lowest()) {
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < min) {
    return fallback;
  }
  return v;
}

/// Environment variable `name` through parse_int.
[[nodiscard]] inline int env_int(const char* name, int fallback,
                                 int min = INT_MIN) {
  return parse_int(std::getenv(name), fallback, min);
}

/// Environment variable `name` through parse_double.
[[nodiscard]] inline double env_double(
    const char* name, double fallback,
    double min = std::numeric_limits<double>::lowest()) {
  return parse_double(std::getenv(name), fallback, min);
}

}  // namespace eva
