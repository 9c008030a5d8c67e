#include "dist/compression.hpp"

namespace msa::dist {

std::uint16_t float_to_half_bits(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, 4);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::int32_t exp = static_cast<std::int32_t>((x >> 23) & 0xFFu) - 127;
  std::uint32_t mant = x & 0x7FFFFFu;

  if (exp == 128) {  // inf / nan
    return static_cast<std::uint16_t>(sign | 0x7C00u | (mant ? 0x200u : 0u));
  }
  if (exp > 15) {  // overflow -> inf
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exp >= -14) {  // normal
    // Round mantissa from 23 to 10 bits, nearest-even.
    std::uint32_t half = sign | (static_cast<std::uint32_t>(exp + 15) << 10) |
                         (mant >> 13);
    const std::uint32_t round_bits = mant & 0x1FFFu;
    if (round_bits > 0x1000u || (round_bits == 0x1000u && (half & 1u))) {
      ++half;  // may carry into exponent; that is correct behaviour
    }
    return static_cast<std::uint16_t>(half);
  }
  if (exp >= -25) {  // subnormal, or zero / 2^-24 by rounding from 2^-25
    mant |= 0x800000u;  // implicit leading 1
    // Subnormal half = m * 2^-24; m = round(M * 2^(exp+1)) for the 24-bit
    // implicit-1 mantissa M, i.e. a right shift by (-exp - 1) bits.
    const int shift = -exp - 1;
    std::uint32_t half = sign | (mant >> shift);
    const std::uint32_t round_mask = (1u << shift) - 1;
    const std::uint32_t round_bits = mant & round_mask;
    const std::uint32_t halfway = 1u << (shift - 1);
    if (round_bits > halfway || (round_bits == halfway && (half & 1u))) {
      ++half;
    }
    return static_cast<std::uint16_t>(half);
  }
  return static_cast<std::uint16_t>(sign);  // underflow -> signed zero
}

float half_bits_to_float(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  std::uint32_t mant = h & 0x3FFu;
  std::uint32_t x;
  if (exp == 0) {
    if (mant == 0) {
      x = sign;  // zero
    } else {
      // Subnormal: normalise.
      int e = -1;
      std::uint32_t m = mant;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      x = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
          ((m & 0x3FFu) << 13);
    }
  } else if (exp == 31) {
    x = sign | 0x7F800000u | (mant << 13);  // inf / nan
  } else {
    x = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &x, 4);
  return f;
}

}  // namespace msa::dist
