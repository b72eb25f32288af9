// twiddc::fixed -- raw two's-complement helpers.
//
// The architecture simulators (FPGA RTL, Montium, GPP) operate on raw
// integers whose width is a *runtime* property (a 12-bit bus, a 31-bit
// accumulator, a 16-bit ALU).  These helpers implement the width-limited
// arithmetic all of them share: saturation, wrap-around, and rounded
// right-shifts.
#pragma once

#include <cassert>
#include <cstdint>

namespace twiddc::fixed {

/// How narrowing handles out-of-range values.
enum class Overflow {
  kSaturate,  ///< clamp to the representable range
  kWrap,      ///< keep the low bits (two's-complement wrap-around)
};

/// How right-shifts handle discarded bits.
enum class Rounding {
  kTruncate,  ///< arithmetic shift (round towards -inf)
  kNearest,   ///< round half up (add 0.5 LSB before shifting)
};

/// Largest value representable in a signed two's-complement field of `bits`.
constexpr std::int64_t max_for_bits(int bits) {
  assert(bits >= 1 && bits <= 63);
  return (std::int64_t{1} << (bits - 1)) - 1;
}

/// Smallest (most negative) value representable in `bits`.
constexpr std::int64_t min_for_bits(int bits) {
  assert(bits >= 1 && bits <= 63);
  return -(std::int64_t{1} << (bits - 1));
}

/// True if `v` fits a signed field of `bits`.
constexpr bool fits_bits(std::int64_t v, int bits) {
  return v >= min_for_bits(bits) && v <= max_for_bits(bits);
}

/// Clamps `v` into a signed field of `bits`.
constexpr std::int64_t saturate(std::int64_t v, int bits) {
  const std::int64_t lo = min_for_bits(bits);
  const std::int64_t hi = max_for_bits(bits);
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Keeps the low `bits` of `v`, sign-extended (hardware register semantics).
constexpr std::int64_t wrap(std::int64_t v, int bits) {
  assert(bits >= 1 && bits <= 64);
  if (bits == 64) return v;
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  std::uint64_t u = static_cast<std::uint64_t>(v) & mask;
  const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
  if (u & sign) u |= ~mask;
  return static_cast<std::int64_t>(u);
}

/// Narrows `v` into `bits` according to `policy`.
constexpr std::int64_t narrow(std::int64_t v, int bits, Overflow policy) {
  return policy == Overflow::kSaturate ? saturate(v, bits) : wrap(v, bits);
}

/// Saturating addition within a `bits`-wide field.
constexpr std::int64_t sat_add(std::int64_t a, std::int64_t b, int bits) {
  return saturate(a + b, bits);
}

/// Saturating subtraction within a `bits`-wide field.
constexpr std::int64_t sat_sub(std::int64_t a, std::int64_t b, int bits) {
  return saturate(a - b, bits);
}

/// Wrapping addition within a `bits`-wide field (CIC integrators rely on it).
constexpr std::int64_t wrap_add(std::int64_t a, std::int64_t b, int bits) {
  return wrap(a + b, bits);
}

/// Wrapping subtraction within a `bits`-wide field.
constexpr std::int64_t wrap_sub(std::int64_t a, std::int64_t b, int bits) {
  return wrap(a - b, bits);
}

/// Arithmetic right shift with the selected rounding.  `shift` may be 0.
constexpr std::int64_t shift_right(std::int64_t v, int shift, Rounding rounding) {
  assert(shift >= 0 && shift <= 62);
  if (shift == 0) return v;
  if (rounding == Rounding::kNearest) {
    v += std::int64_t{1} << (shift - 1);
  }
  return v >> shift;
}

/// ceil(log2(v)) for v >= 1.
constexpr int ceil_log2(std::int64_t v) {
  assert(v >= 1);
  int bits = 0;
  std::int64_t p = 1;
  while (p < v) {
    p <<= 1;
    ++bits;
  }
  return bits;
}

/// Register growth of an N-stage CIC decimator (Hogenauer):
/// ceil(N * log2(R * M)) extra bits over the input width, with decimation R
/// and differential delay M.  The total register width for a W-bit input is
/// W + cic_bit_growth(...).
constexpr int cic_bit_growth(int stages, int decimation, int diff_delay = 1) {
  assert(stages >= 1 && decimation >= 1 && diff_delay >= 1);
  // ceil(N*log2(R*M)) == ceil_log2((R*M)^N); computed exactly in 128-bit
  // integers to avoid floating-point edge cases for non-power-of-two R
  // (e.g. R=21, N=5 -> 22 bits, not 21).
  unsigned __int128 pow = 1;
  const unsigned __int128 rm =
      static_cast<unsigned __int128>(decimation) * static_cast<unsigned>(diff_delay);
  for (int s = 0; s < stages; ++s) pow *= rm;
  int bits = 0;
  unsigned __int128 p = 1;
  while (p < pow) {
    p <<= 1;
    ++bits;
  }
  return bits;
}

/// DC gain of an N-stage CIC decimator: (R*M)^N.
constexpr std::int64_t cic_gain(int stages, int decimation, int diff_delay = 1) {
  std::int64_t g = 1;
  for (int s = 0; s < stages; ++s) g *= std::int64_t{decimation} * diff_delay;
  return g;
}

}  // namespace twiddc::fixed
