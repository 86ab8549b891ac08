// Text-encoding helpers shared by the report writers: CSV field quoting
// (RFC 4180), JSON string escaping, and the exact float -> hex-bits
// encoding behind the trace's bit-faithful serialization.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace pfi::util {

/// Quote a CSV field per RFC 4180: fields containing a comma, double quote,
/// CR, or LF are wrapped in double quotes with embedded quotes doubled.
/// Clean fields pass through unchanged.
inline std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Escape a string for embedding inside a JSON string literal (without the
/// surrounding quotes): backslash, double quote, and control characters.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Value of one lowercase hex digit (the only case our writers emit), or -1.
inline int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Undo json_escape (\", \\, \n, \r, \t, \uXXXX for XXXX < 0x80).
inline std::string json_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    PFI_CHECK(i + 1 < s.size()) << "dangling escape in JSON string '" << s
                                << "'";
    const char e = s[++i];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        PFI_CHECK(i + 4 < s.size()) << "truncated \\u escape in '" << s << "'";
        unsigned code = 0;
        for (std::size_t k = i + 1; k <= i + 4; ++k) {
          const int d = hex_digit(s[k]);
          PFI_CHECK(d >= 0) << "bad hex digit in \\u escape in '" << s << "'";
          code = code << 4 | static_cast<unsigned>(d);
        }
        PFI_CHECK(code < 0x80) << "non-ASCII \\u escape " << code;
        out.push_back(static_cast<char>(code));
        i += 4;
        break;
      }
      default:
        PFI_CHECK(false) << "unknown escape '\\" << e << "' in '" << s << "'";
    }
  }
  return out;
}

/// FNV-1a 64-bit over a byte string. The repo's one content hash: campaign
/// config fingerprints (core/checkpoint.cpp) and shard attempt-log digests
/// (core/shard.cpp) both chain through it, so two artifacts agree on
/// identity iff their bytes agree.
inline std::uint64_t fnv1a(std::string_view s,
                           std::uint64_t h = 14695981039346656037ull) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Exact 8-hex-digit encoding of a float's IEEE-754 bit pattern. The trace
/// serialization round-trips values through this, never through decimal,
/// so replay is bit-faithful even for NaN/Inf payloads.
inline std::string float_bits_hex(float v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", std::bit_cast<std::uint32_t>(v));
  return buf;
}

/// "0x"-prefixed hex of a double's IEEE-754 bit pattern, without leading
/// zeros. Shard manifests store stratum weights in it, and campaign
/// fingerprints hash their doubles through it, so two doubles agree iff
/// their bits do (decimal output would round them to a few digits).
inline std::string double_bits_hex(double v) {
  char buf[19];
  std::snprintf(
      buf, sizeof buf, "0x%llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

}  // namespace pfi::util
