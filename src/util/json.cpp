#include "util/json.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pfi::util {

void JsonReader::raise(const std::string& problem) const {
  std::ostringstream os;
  os << "malformed " << artifact_ << ": ";
  if (!field_.empty()) os << "'" << field_ << "' ";
  os << problem << " at offset " << pos_;
  throw Error(os.str());
}

bool JsonReader::take(std::string_view s) {
  if (!text_.substr(pos_).starts_with(s)) return false;
  pos_ += s.size();
  return true;
}

JsonReader& JsonReader::lit(std::string_view s) {
  if (!take(s)) fail("needs '", s, "'");
  return *this;
}

void JsonReader::end(std::string_view tail) {
  lit(tail);
  if (!at_end()) fail("is followed by trailing bytes");
}

bool JsonReader::after_value() const {
  if (pos_ == 0) return false;
  const char c = text_[pos_ - 1];
  return c != ':' && c != ',' && c != '[' && c != '\n';
}

JsonReader& JsonReader::key(std::string_view k) {
  field_ = k;
  lit(after_value() ? "," : "{");
  if (!(take("\"") && take(k) && take("\":"))) fail("key expected");
  return *this;
}

std::uint64_t JsonReader::digits(unsigned base) {
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  const std::size_t start = pos_;
  std::uint64_t v = 0;
  for (; pos_ < text_.size(); ++pos_) {
    // A non-digit's -1 wraps to a value no base admits.
    const auto d = static_cast<unsigned>(hex_digit(text_[pos_]));
    if (d >= base) break;
    if (v > (kMax - d) / base) fail("overflows 64 bits");
    v = v * base + d;
  }
  if (pos_ == start) fail("needs a digit");
  if (text_[start] == '0' && pos_ > start + 1) fail("has a leading zero");
  return v;
}

std::uint64_t JsonReader::u64() {
  const std::uint64_t v = digits(10);
  // Every number in these formats ends its value, so "12abc" or "1.5" is
  // refused here, naming its own field rather than the next key.
  if (!at_end() && !peek(',') && !peek(']') && !peek('}')) {
    fail("is not an integer");
  }
  return v;
}

std::int64_t JsonReader::i64(std::int64_t lo, std::int64_t hi) {
  const bool neg = take("-");
  const std::uint64_t mag = u64();
  if (neg && mag == 0) fail("is a negative zero");
  const auto limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (neg ? 1 : 0);
  // Unsigned negation then a modular conversion: exact for INT64_MIN too.
  const auto v = static_cast<std::int64_t>(neg ? 0 - mag : mag);
  if (mag > limit || v < lo || v > hi) {
    fail("overflows [", lo, ", ", hi, "]");
  }
  return v;
}

std::string JsonReader::str() {
  lit("\"");
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    pos_ += text_[pos_] == '\\' ? 2 : 1;
  }
  if (pos_ >= text_.size()) fail("is an unterminated string");
  const std::string_view raw = text_.substr(start, pos_ - start);
  ++pos_;  // closing quote
  std::string out;
  try {
    out = json_unescape(raw);
  } catch (const Error& e) {
    fail("holds a bad escape (", e.what(), ")");
  }
  if (json_escape(out) != raw) fail("is not in json_escape form");
  return out;
}

float JsonReader::f32_bits() {
  lit("\"");
  std::uint32_t bits = 0;
  for (int i = 0; i < 8; ++i, ++pos_) {
    const int d = pos_ < text_.size() ? hex_digit(text_[pos_]) : -1;
    if (d < 0) fail("needs 8 lowercase hex digits");
    bits = bits << 4 | static_cast<std::uint32_t>(d);
  }
  lit("\"");
  return std::bit_cast<float>(bits);
}

double JsonReader::f64_bits() {
  lit("\"0x");
  const std::uint64_t bits = digits(16);
  lit("\"");
  return std::bit_cast<double>(bits);
}

std::string_view JsonReader::raw() {
  const std::size_t start = pos_;
  pos_ = std::min(text_.find_first_of(",]}", pos_), text_.size());
  if (pos_ == start) fail("needs a value");
  return text_.substr(start, pos_ - start);
}

bool JsonReader::next_item() {
  if (!after_value()) {
    lit("[");
    return !take("]");
  }
  if (take(",")) return true;
  lit("]");
  return false;
}

std::string_view JsonReader::line() {
  const std::size_t nl = text_.find('\n', pos_);
  if (nl == std::string_view::npos) fail("needs a line break");
  const std::string_view out = text_.substr(pos_, nl - pos_);
  pos_ = nl + 1;
  return out;
}

}  // namespace pfi::util
