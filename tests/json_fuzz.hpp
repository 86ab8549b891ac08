// Seeded byte-level mutations for the JsonFuzz suites (test_json.cpp and
// test_shard.cpp). A mutant is a pure function of its input, pool and Rng
// state, so any failure reproduces from the suite's fixed seed.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace pfi::fuzz {

/// Apply one to three mutations to `s`, each one of: a bit flip, a byte
/// insert, a byte delete, a truncation, a span duplication, or a splice of
/// `s`'s head onto the tail of an artifact drawn from `pool`.
inline std::string mutate(std::string s, const std::vector<std::string>& pool,
                          Rng& rng) {
  // Inserted bytes favour the characters the grammars are built from.
  constexpr std::string_view kAlphabet = "{}[],:\"\\-0123456789abcdefx\n";
  const auto at = [&](std::size_t n) {  // uniform in [0, n]
    return static_cast<std::size_t>(rng.next_below(n + 1));
  };
  for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k) {
    switch (rng.next_below(6)) {
      case 0:
        if (!s.empty()) {
          const std::size_t i = at(s.size() - 1);
          s[i] = static_cast<char>(s[i] ^ (1 << rng.next_below(8)));
        }
        break;
      case 1: {
        const std::size_t i = at(s.size());
        const char c = rng.next_below(2) == 0
                           ? kAlphabet[rng.next_below(kAlphabet.size())]
                           : static_cast<char>(rng.next_below(256));
        s.insert(i, 1, c);
        break;
      }
      case 2:
        if (!s.empty()) s.erase(at(s.size() - 1), 1);
        break;
      case 3:
        s.resize(at(s.size()));
        break;
      case 4: {
        const std::size_t from = at(s.size());
        const std::string span = s.substr(from, at(s.size() - from));
        s.insert(at(s.size()), span);
        break;
      }
      default: {
        const std::string& other = pool[rng.next_below(pool.size())];
        const std::size_t head = at(s.size());
        s = s.substr(0, head) + other.substr(at(other.size()));
      }
    }
  }
  return s;
}

}  // namespace pfi::fuzz
