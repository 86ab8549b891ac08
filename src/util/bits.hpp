// Bit-level manipulation of numeric values, the substrate of the paper's
// "single bit flip" error models (Sec. III-B step 3 and Sec. IV-A).
//
// Four domains are supported:
//   * IEEE-754 binary32:  flip any of the 32 bits of a float in place.
//   * IEEE-754 binary16:  software narrow/widen + bit flips (fp16 codes).
//   * bfloat16:           truncated-binary32 narrow/widen + bit flips.
//   * Symmetric INT8:     flip any of the 8 bits of a quantized activation.
//
// The 16-bit conversions are SOFTWARE implementations on raw bit patterns,
// not hardware casts: a hardware `_Float16` cast quiets signalling NaNs and
// mangles NaN payloads, which destroys single-bit attribution for
// exponent-bit flips on non-finite values (the flip is no longer the only
// differing bit after a round trip). These routines preserve payloads
// exactly; for non-NaN values the narrowing is bit-identical to the
// hardware's round-to-nearest-even.
#pragma once

#include <bit>
#include <cstdint>

#include "util/error.hpp"

namespace pfi {

/// Number of bits in an IEEE-754 binary32 value.
inline constexpr int kFloatBits = 32;
/// Number of bits in an INT8 quantized value.
inline constexpr int kInt8Bits = 8;

/// Reinterpret a float as its raw bit pattern.
inline std::uint32_t float_to_bits(float v) {
  return std::bit_cast<std::uint32_t>(v);
}

/// Reinterpret a 32-bit pattern as a float.
inline float bits_to_float(std::uint32_t b) { return std::bit_cast<float>(b); }

/// Flip bit `bit` (0 = LSB of mantissa, 31 = sign) of a float.
inline float flip_float_bit(float v, int bit) {
  PFI_CHECK(bit >= 0 && bit < kFloatBits) << "float bit index " << bit;
  return bits_to_float(float_to_bits(v) ^ (1u << bit));
}

/// Flip bit `bit` (0 = LSB, 7 = sign) of a two's-complement int8.
inline std::int8_t flip_int8_bit(std::int8_t v, int bit) {
  PFI_CHECK(bit >= 0 && bit < kInt8Bits) << "int8 bit index " << bit;
  return static_cast<std::int8_t>(
      static_cast<std::uint8_t>(v) ^ static_cast<std::uint8_t>(1u << bit));
}

/// True when the float is NaN or infinite (a common outcome of exponent-bit
/// flips, and an important corruption class for resiliency studies).
inline bool is_non_finite(float v) {
  const std::uint32_t b = float_to_bits(v);
  return (b & 0x7f800000u) == 0x7f800000u;
}

/// Round a float to the nearest IEEE-754 binary16 value (kept as float).
/// Used to emulate the paper's FP16 model datatype option (Sec. III-B step 2)
/// without carrying a separate half-precision tensor type.
inline float round_to_fp16(float v) {
  return static_cast<float>(static_cast<_Float16>(v));
}

/// Number of bits in an IEEE-754 binary16 value.
inline constexpr int kHalfBits = 16;

/// Number of bits in a bfloat16 value.
inline constexpr int kBf16Bits = 16;

/// Narrow a float to IEEE-754 binary16 bits with round-to-nearest-even.
/// NaN payloads are truncated (top 10 payload bits kept, including the
/// quiet bit) and forced nonzero so a NaN never narrows to an infinity;
/// signalling NaNs are NOT quieted.
inline std::uint16_t f16_bits_from_float(float v) {
  const std::uint32_t b = float_to_bits(v);
  const auto sign = static_cast<std::uint16_t>((b >> 16) & 0x8000u);
  const std::uint32_t mag = b & 0x7fffffffu;
  if (mag >= 0x7f800000u) {
    if (mag == 0x7f800000u) return sign | 0x7c00u;  // infinity
    auto mant = static_cast<std::uint16_t>((mag >> 13) & 0x3ffu);
    if (mant == 0) mant = 1;  // low-payload NaN must stay a NaN
    return static_cast<std::uint16_t>(sign | 0x7c00u | mant);
  }
  const int e = static_cast<int>(mag >> 23) - 127 + 15;
  std::uint32_t mant = mag & 0x7fffffu;
  if (e >= 31) return sign | 0x7c00u;  // overflow -> infinity
  if (e <= 0) {
    // fp16-subnormal range. Magnitudes below half the smallest subnormal
    // (2^-25) round to zero; a shift of up to 24 drops the rest.
    if (e < -10) return sign;
    mant |= 0x800000u;  // make the implicit bit explicit
    const int s = 13 + (1 - e);
    const std::uint32_t kept = mant >> s;
    const std::uint32_t rem = mant & ((1u << s) - 1u);
    const std::uint32_t half = 1u << (s - 1);
    std::uint32_t r = kept;
    if (rem > half || (rem == half && (kept & 1u) != 0)) ++r;
    return static_cast<std::uint16_t>(sign | r);  // carry reaches exp=1
  }
  std::uint32_t kept =
      (static_cast<std::uint32_t>(e) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (kept & 1u) != 0)) {
    ++kept;  // mantissa carry; may roll into exp=31 = the correct infinity
  }
  return static_cast<std::uint16_t>(sign | kept);
}

/// Widen IEEE-754 binary16 bits to float, exactly. NaN payloads are shifted
/// into the high mantissa bits unchanged — signalling NaNs stay signalling.
inline float float_from_f16_bits(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  std::uint32_t e = (h >> 10) & 0x1fu;
  std::uint32_t m = h & 0x3ffu;
  if (e == 31) return bits_to_float(sign | 0x7f800000u | (m << 13));
  if (e == 0) {
    if (m == 0) return bits_to_float(sign);  // +/- zero
    int shift = 0;
    while ((m & 0x400u) == 0) {  // normalize the subnormal
      m <<= 1;
      ++shift;
    }
    m &= 0x3ffu;
    e = 127 - 15 + 1 - static_cast<std::uint32_t>(shift);
    return bits_to_float(sign | (e << 23) | (m << 13));
  }
  return bits_to_float(sign | ((e - 15 + 127) << 23) | (m << 13));
}

/// Narrow a float to bfloat16 bits (truncated binary32) with
/// round-to-nearest-even. NaN payloads are truncated to the top 7 bits and
/// forced nonzero; signalling NaNs are NOT quieted.
inline std::uint16_t bf16_bits_from_float(float v) {
  std::uint32_t b = float_to_bits(v);
  if ((b & 0x7f800000u) == 0x7f800000u && (b & 0x7fffffu) != 0) {
    auto hi = static_cast<std::uint16_t>(b >> 16);
    if ((hi & 0x7fu) == 0) hi |= 1;  // low-payload NaN must stay a NaN
    return hi;
  }
  const std::uint32_t lsb = (b >> 16) & 1u;
  b += 0x7fffu + lsb;  // RNE bias; overflow rolls into the correct infinity
  return static_cast<std::uint16_t>(b >> 16);
}

/// Widen bfloat16 bits to float (exact by construction).
inline float float_from_bf16_bits(std::uint16_t h) {
  return bits_to_float(static_cast<std::uint32_t>(h) << 16);
}

/// Flip bit `bit` (0 = LSB of mantissa, 15 = sign) of a value treated as
/// IEEE-754 binary16; returns the corrupted value widened back to float.
/// Software conversions keep the flipped bit the ONLY differing bit even
/// for NaN payloads (the old hardware-cast version quieted sNaNs).
inline float flip_fp16_bit(float v, int bit) {
  PFI_CHECK(bit >= 0 && bit < kHalfBits) << "fp16 bit index " << bit;
  return float_from_f16_bits(
      static_cast<std::uint16_t>(f16_bits_from_float(v) ^ (1u << bit)));
}

/// Flip bit `bit` (0 = LSB of mantissa, 15 = sign) of a value treated as
/// bfloat16; returns the corrupted value widened back to float.
inline float flip_bf16_bit(float v, int bit) {
  PFI_CHECK(bit >= 0 && bit < kBf16Bits) << "bf16 bit index " << bit;
  return float_from_bf16_bits(
      static_cast<std::uint16_t>(bf16_bits_from_float(v) ^ (1u << bit)));
}

}  // namespace pfi
