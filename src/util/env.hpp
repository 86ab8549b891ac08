// Strict environment-variable knobs for the bench and example front ends.
// This is the only file under src/ that reads the environment: the library
// takes every setting through its config structs (ctest
// Lint.LibraryReadsNoEnvironment enforces it).
//
// The bench binaries take their experiment parameters from PFI_* variables
// (PFI_TRIALS, PFI_SHARDS, PFI_BER, ...). Before this header each binary
// carried its own getenv + atoll/atof helper, which silently misread
// garbage: PFI_SHARDS=4x ran 4 shards (atoll stops at the 'x'),
// PFI_TRIALS=abc ran a 0-trial campaign. These helpers route every lookup
// through util/parse.hpp's strict parsers and FAIL LOUDLY — a malformed
// value throws pfi::Error naming the variable, never a silently-wrong
// experiment.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace pfi::util {

/// Integer env knob in [lo, hi]; `fallback` when the variable is unset.
/// Malformed or out-of-range values throw (strict parse, no atoll).
inline std::int64_t env_int(
    const char* name, std::int64_t fallback,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const auto parsed = parse_int(v, lo, hi);
  PFI_CHECK(parsed.has_value())
      << name << " expects an integer in [" << lo << ", " << hi << "], got '"
      << v << "'";
  return *parsed;
}

/// Unsigned integer env knob; `fallback` when unset. Strict: rejects signs,
/// junk, and overflow instead of wrapping.
inline std::uint64_t env_uint(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const auto parsed = parse_uint(v);
  PFI_CHECK(parsed.has_value())
      << name << " expects an unsigned integer, got '" << v << "'";
  return *parsed;
}

/// Floating-point env knob in [lo, hi]; `fallback` when unset. Strict:
/// trailing junk, NaN/Inf, and out-of-range values throw (no atof).
inline double env_double(const char* name, double fallback,
                         double lo = std::numeric_limits<double>::lowest(),
                         double hi = std::numeric_limits<double>::max()) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const auto parsed = parse_double(v, lo, hi);
  PFI_CHECK(parsed.has_value())
      << name << " expects a finite number in [" << lo << ", " << hi
      << "], got '" << v << "'";
  return *parsed;
}

/// 0/1 env toggle; `fallback` when unset or empty. Anything but "0" or "1"
/// throws — a typo must not silently run the wrong experiment.
inline bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::string text(v);
  PFI_CHECK(text == "0" || text == "1")
      << name << " must be '0' or '1', got '" << text << "'";
  return text == "1";
}

/// String env knob; `fallback` when unset (no validation to apply).
inline std::string env_str(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string(fallback);
}

}  // namespace pfi::util
