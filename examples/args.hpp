// Positional arguments of the example programs, read with the bounds the
// .dcfg format puts on the same values (docs/FORMATS.md). A malformed or
// out-of-range argument is refused by name — "<program>: bad <name>
// '<text>': <why>" on stderr, exit status 2 — never run as another value.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "util/strings.hpp"

namespace dc::examples {

inline void refuse(const char* program, const char* name, const char* text,
                   const std::string& why) {
  std::fprintf(stderr, "%s: bad %s '%s': %s\n", program, name, text,
               why.c_str());
}

/// argv[index] as an integer >= `min`, or `fallback` when it is absent.
inline std::optional<std::int64_t> int_arg(const char* program, int argc,
                                           char** argv, int index,
                                           const char* name, std::int64_t min,
                                           std::int64_t fallback) {
  if (index >= argc) return fallback;
  auto parsed = parse_int(argv[index]);
  if (!parsed.is_ok()) {
    refuse(program, name, argv[index], parsed.status().message());
    return std::nullopt;
  }
  if (*parsed < min) {
    refuse(program, name, argv[index], "want >= " + std::to_string(min));
    return std::nullopt;
  }
  return *parsed;
}

/// argv[index] as a number > 0, or `fallback` when it is absent.
inline std::optional<double> positive_arg(const char* program, int argc,
                                          char** argv, int index,
                                          const char* name, double fallback) {
  if (index >= argc) return fallback;
  auto parsed = parse_double(argv[index]);
  if (!parsed.is_ok()) {
    refuse(program, name, argv[index], parsed.status().message());
    return std::nullopt;
  }
  if (!(*parsed > 0.0)) {
    refuse(program, name, argv[index], "want > 0");
    return std::nullopt;
  }
  return *parsed;
}

}  // namespace dc::examples
