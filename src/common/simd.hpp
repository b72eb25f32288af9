// twiddc::simd -- portable SIMD shim for the block hot-path kernels.
//
// Every kernel here has two realisations selected at compile time:
//
//   * an intrinsic path (`__AVX2__` on x86, AArch64 NEON for the mixer
//     mul/shift/narrow and FIR dot kernels) used when the translation unit
//     is compiled with the matching -march, and
//   * a scalar fallback written as tight restrict/unrolled loops the
//     compiler can auto-vectorise on any ISA (SSE2 baseline, ARMv7 NEON, ...).
//
// Both paths are *bit-exact* for the fixed-point chain: all accumulation is
// two's-complement (mod 2^64) where reordering is an identity, 64-bit
// multiplies either use the 32x32->64 instruction when both operands are
// proven to fit 32 bits or an exact low-64 emulation, and shifts/saturation
// reproduce fixed::shift_right / fixed::narrow operation by operation.
//
// A process-wide kill switch (`set_enabled(false)`) forces the scalar
// fallback at runtime so the test suite can diff the two paths on the same
// build; it is not meant for production use.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstddef>
#include <type_traits>

#include "src/fixed/qformat.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

// The NEON intrinsic paths need AArch64: they rely on 64-bit lane compares
// (vcgtq_s64) and 64-bit shifts that ARMv7 NEON does not provide.  32-bit ARM
// builds keep the autovectorisable scalar loops.
#if defined(__ARM_NEON) && defined(__aarch64__)
#define TWIDDC_SIMD_NEON 1
#include <arm_neon.h>
#endif

// AVX-512 kernels are compiled whenever the AVX2 tier is (the 512 paths are
// supersets of the 256 ones) and the compiler supports per-function target
// attributes: an x86-64-v3 binary then carries both tiers and dispatches at
// runtime via cpuid, while an x86-64-v4 build (`__AVX512F__` et al. defined)
// compiles them as plain functions.  The feature set is F+DQ+BW+VL -- the
// Skylake-SP/x86-64-v4 baseline -- so `_mm512_mullo_epi64` (DQ) and the
// 256-bit masked ops (VL) are available.
#if defined(__AVX2__) && defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TWIDDC_HAVE_AVX512_KERNELS 1
#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)
#define TWIDDC_AVX512_NATIVE 1
#define TWIDDC_AVX512_TARGET
#else
#define TWIDDC_AVX512_TARGET \
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl")))
#endif
#endif

namespace twiddc::simd {

/// Name of the intrinsic path this build was compiled with ("avx2"/"neon"
/// when the intrinsic kernels are active, "*-autovec"/"scalar" when only the
/// autovectorisable fallback loops exist).  Reported in the bench JSON so
/// trajectories are comparable.
inline const char* isa_name() {
#if defined(__AVX2__)
  return "avx2";
#elif defined(TWIDDC_SIMD_NEON)
  return "neon";
#elif defined(__SSE2__) || defined(_M_X64)
  return "sse2-autovec";
#elif defined(__ARM_NEON)
  return "neon-autovec";
#else
  return "scalar";
#endif
}

namespace detail {
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail

/// Runtime kill switch: when false every kernel takes its scalar fallback.
/// Used by the bit-exactness tests to diff the intrinsic path against the
/// scalar path within one binary.
inline bool enabled() { return detail::enabled_flag().load(std::memory_order_relaxed); }
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

// ------------------------------------------------------------ AVX-512 tier
//
// The 512-bit tier is selected at runtime: the kernels are compiled into any
// AVX2 build (per-function target attributes), and dispatch checks cpuid
// once.  Three switches stack: the master kill switch above (forces scalar
// everywhere), the tier cap below (caps dispatch at the AVX2 tier so tests
// can diff the two intrinsic tiers on one machine), and the hardware probe.

namespace detail {
inline std::atomic<bool>& avx512_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail

/// True when this binary carries the AVX-512 kernels AND the CPU implements
/// the required feature set (F+DQ+BW+VL).  Probed once via cpuid.
inline bool avx512_supported() {
#if defined(TWIDDC_HAVE_AVX512_KERNELS)
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512dq") &&
                                __builtin_cpu_supports("avx512bw") &&
                                __builtin_cpu_supports("avx512vl");
  return supported;
#else
  return false;
#endif
}

/// Tier cap: when false, dispatch stops at the AVX2 tier even on AVX-512
/// hardware.  Lets the test suite diff the two intrinsic tiers bit-exactly
/// within one binary (the same role ScopedEnable plays for intrinsic-vs-
/// scalar).  Defaults to on; the master kill switch overrides it.
inline bool avx512_enabled() {
  return detail::avx512_flag().load(std::memory_order_relaxed);
}
inline void set_avx512_enabled(bool on) {
  detail::avx512_flag().store(on, std::memory_order_relaxed);
}

/// The 512-bit tier is live right now: kernels compiled in, CPU capable,
/// neither the master kill switch nor the tier cap thrown.
inline bool avx512_active() {
  return enabled() && avx512_enabled() && avx512_supported();
}

/// RAII helper for tests: forces the AVX-512 tier cap within a scope.
class ScopedAvx512 {
 public:
  explicit ScopedAvx512(bool on) : prev_(avx512_enabled()) { set_avx512_enabled(on); }
  ~ScopedAvx512() { set_avx512_enabled(prev_); }
  ScopedAvx512(const ScopedAvx512&) = delete;
  ScopedAvx512& operator=(const ScopedAvx512&) = delete;

 private:
  bool prev_;
};

/// The path the kernels take *right now*: "avx512" when the 512-bit tier is
/// live, isa_name() while the compile-time intrinsic kernels are live,
/// "scalar" once the kill switch forced the fallback.  Bench lines report
/// this so a trajectory captured with the switch thrown cannot masquerade as
/// an intrinsic-path measurement.
inline const char* active_path() {
  if (!enabled()) return "scalar";
  return avx512_active() ? "avx512" : isa_name();
}

/// RAII helper for tests: forces the given SIMD state within a scope.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : prev_(enabled()) { set_enabled(on); }
  ~ScopedEnable() { set_enabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

/// True when every element of v[0..n) fits a signed field of `bits`
/// (1..63).  Branch-free, so it vectorises: (v + 2^(bits-1)) fits an
/// unsigned `bits` field iff v fits the signed one; OR the high parts.
inline bool all_fit_bits(const std::int64_t* v, std::size_t n, int bits) {
  const std::uint64_t bias = std::uint64_t{1} << (bits - 1);
  std::uint64_t high = 0;
  for (std::size_t i = 0; i < n; ++i) high |= (static_cast<std::uint64_t>(v[i]) + bias) >> bits;
  return high == 0;
}

/// True when every element of v[0..n) fits a signed 32-bit field (the
/// precondition for the single-instruction 32x32->64 multiply path).
inline bool all_fit_i32(const std::int64_t* v, std::size_t n) {
  return all_fit_bits(v, n, 32);
}

// --------------------------------------------------------------- dot product
//
// y = sum_j a[j] * b[j] over int64, accumulated mod 2^64 (two's complement;
// order-independent, hence SIMD-reorder-safe and bit-exact vs any scalar
// loop).  `narrow_ok` asserts every a[j] and b[j] fits int32, enabling the
// one-multiply AVX2 path; otherwise an exact low-64 multiply emulation runs.
// Odd tails (n % 4) stay on the vector path via masked loads, so FIR and
// polyphase windows of any length run vector-only.

inline std::int64_t dot_i64_scalar(const std::int64_t* a, const std::int64_t* b,
                                   std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t j = 0; j < n; ++j)
    acc += static_cast<std::uint64_t>(a[j]) * static_cast<std::uint64_t>(b[j]);
  return static_cast<std::int64_t>(acc);
}

#if defined(__AVX2__)
namespace detail {
/// Exact low 64 bits of a 64x64 multiply from 32-bit partial products.
inline __m256i mullo_epi64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i mid =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(mid, 32));
}

/// Arithmetic shift right of 4x int64 by s in [1, 63] (AVX2 has no sra64).
inline __m256i sra_epi64(__m256i v, int s) {
  const __m256i sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), v);
  return _mm256_or_si256(_mm256_srli_epi64(v, s), _mm256_slli_epi64(sign, 64 - s));
}

inline std::int64_t hsum_epi64(__m256i v) {
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return static_cast<std::int64_t>(
      static_cast<std::uint64_t>(lanes[0]) + static_cast<std::uint64_t>(lanes[1]) +
      static_cast<std::uint64_t>(lanes[2]) + static_cast<std::uint64_t>(lanes[3]));
}
}  // namespace detail
#endif

#if defined(__AVX2__)
namespace detail {
/// Lane mask whose first r (of 4) int64 lanes are selected, for the masked
/// tail loads below.  A sliding window over this table produces the mask
/// without branches: offset 4-r yields r leading all-ones lanes.
alignas(32) inline constexpr std::int64_t kTailMask[8] = {-1, -1, -1, -1,
                                                          0,  0,  0,  0};
}  // namespace detail
#endif

#if defined(TWIDDC_HAVE_AVX512_KERNELS)
namespace detail {
/// 8-lane dot product with a masked tail: the 1..7 leftover lanes load as
/// zero under an __mmask8, contributing zero products, so the mod-2^64
/// accumulation stays bit-exact with the scalar loop.
TWIDDC_AVX512_TARGET inline std::int64_t dot_i64_avx512(const std::int64_t* a,
                                                        const std::int64_t* b,
                                                        std::size_t n,
                                                        bool narrow_ok) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t j = 0;
  if (narrow_ok) {
    for (; j + 8 <= n; j += 8) {
      const __m512i va = _mm512_loadu_si512(a + j);
      const __m512i vb = _mm512_loadu_si512(b + j);
      acc = _mm512_add_epi64(acc, _mm512_mul_epi32(va, vb));
    }
  } else {
    for (; j + 8 <= n; j += 8) {
      const __m512i va = _mm512_loadu_si512(a + j);
      const __m512i vb = _mm512_loadu_si512(b + j);
      acc = _mm512_add_epi64(acc, _mm512_mullo_epi64(va, vb));
    }
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - j)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(tail, a + j);
    const __m512i vb = _mm512_maskz_loadu_epi64(tail, b + j);
    acc = _mm512_add_epi64(acc, narrow_ok ? _mm512_mul_epi32(va, vb)
                                          : _mm512_mullo_epi64(va, vb));
  }
  return _mm512_reduce_add_epi64(acc);
}
}  // namespace detail
#endif

inline std::int64_t dot_i64(const std::int64_t* a, const std::int64_t* b,
                            std::size_t n, bool narrow_ok) {
#if defined(TWIDDC_HAVE_AVX512_KERNELS)
  if (n >= 16 && avx512_active()) return detail::dot_i64_avx512(a, b, n, narrow_ok);
#endif
#if defined(__AVX2__)
  if (enabled() && n >= 8) {
    __m256i acc = _mm256_setzero_si256();
    std::size_t j = 0;
    if (narrow_ok) {
      for (; j + 4 <= n; j += 4) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
        acc = _mm256_add_epi64(acc, _mm256_mul_epi32(va, vb));
      }
    } else {
      for (; j + 4 <= n; j += 4) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
        acc = _mm256_add_epi64(acc, detail::mullo_epi64(va, vb));
      }
    }
    if (j < n) {
      // Masked tail: the 1..3 leftover lanes stay on the vector path.
      // Masked-out lanes load as zero, contributing zero products, so the
      // mod-2^64 accumulation stays bit-exact with the scalar loop.
      const __m256i mask = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(detail::kTailMask + (4 - (n - j))));
      const __m256i va =
          _mm256_maskload_epi64(reinterpret_cast<const long long*>(a + j), mask);
      const __m256i vb =
          _mm256_maskload_epi64(reinterpret_cast<const long long*>(b + j), mask);
      acc = _mm256_add_epi64(acc, narrow_ok ? _mm256_mul_epi32(va, vb)
                                            : detail::mullo_epi64(va, vb));
    }
    return detail::hsum_epi64(acc);
  }
#elif defined(TWIDDC_SIMD_NEON)
  // Two int64 lanes per q-register.  Only the narrow path is profitable on
  // NEON: vmull_s32 is the exact 32x32->64 multiply, and both operands are
  // proven to fit int32, so vmovn_s64 (keep the low word) loses nothing.  A
  // full 64x64 low-half emulation needs four vmulls plus shuffles and loses
  // to the scalar loop, so the wide case falls through.
  if (enabled() && narrow_ok && n >= 8) {
    uint64x2_t acc0 = vdupq_n_u64(0);
    uint64x2_t acc1 = vdupq_n_u64(0);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const int32x2_t a0 = vmovn_s64(vld1q_s64(a + j));
      const int32x2_t b0 = vmovn_s64(vld1q_s64(b + j));
      const int32x2_t a1 = vmovn_s64(vld1q_s64(a + j + 2));
      const int32x2_t b1 = vmovn_s64(vld1q_s64(b + j + 2));
      acc0 = vaddq_u64(acc0, vreinterpretq_u64_s64(vmull_s32(a0, b0)));
      acc1 = vaddq_u64(acc1, vreinterpretq_u64_s64(vmull_s32(a1, b1)));
    }
    const uint64x2_t acc = vaddq_u64(acc0, acc1);
    std::uint64_t sum = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
    for (; j < n; ++j)
      sum += static_cast<std::uint64_t>(a[j]) * static_cast<std::uint64_t>(b[j]);
    return static_cast<std::int64_t>(sum);
  }
#endif
  (void)narrow_ok;
  return dot_i64_scalar(a, b, n);
}

// -------------------------------------------------- quarter-LUT sin/cos fill
//
// Fills cos_out/sin_out with the quarter-wave LUT expansion of an
// arithmetically advancing 32-bit phase (phase, phase+step, ...), exactly
// mirroring dsp::lut_sincos's quadrant logic.  `table` has 2^table_bits
// entries.  Returns the phase after n steps.

inline std::uint32_t lut_sincos_block_scalar(std::uint32_t phase, std::uint32_t step,
                                             const std::int32_t* table, int table_bits,
                                             std::size_t n, std::int32_t* cos_out,
                                             std::int32_t* sin_out) {
  const std::uint32_t mask = (std::uint32_t{1} << table_bits) - 1;
  const std::uint32_t top = mask;  // table size - 1
  const int shift = 30 - table_bits;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t quadrant = phase >> 30;
    const std::uint32_t index = (phase >> shift) & mask;
    const std::int32_t fwd = table[index];
    const std::int32_t mir = table[top - index];
    switch (quadrant) {
      case 0: sin_out[k] = fwd;  cos_out[k] = mir;  break;
      case 1: sin_out[k] = mir;  cos_out[k] = -fwd; break;
      case 2: sin_out[k] = -fwd; cos_out[k] = -mir; break;
      default: sin_out[k] = -mir; cos_out[k] = fwd; break;
    }
    phase += step;
  }
  return phase;
}

#if defined(__AVX2__)
namespace detail {
/// cos/sin of 8 phases from the quarter-wave LUT: the scalar quadrant switch
/// of lut_sincos_block_scalar, branch-free.  `vmask` is 2^table_bits - 1 in
/// every lane, `shift` is 30 - table_bits.
inline void lut_sincos8(__m256i vphase, const std::int32_t* table, __m256i vmask,
                        __m128i shift, __m256i& cos_v, __m256i& sin_v) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i two = _mm256_set1_epi32(2);
  const __m256i quadrant = _mm256_srli_epi32(vphase, 30);
  const __m256i index = _mm256_and_si256(_mm256_srl_epi32(vphase, shift), vmask);
  const __m256i fwd = _mm256_i32gather_epi32(table, index, 4);
  const __m256i mir = _mm256_i32gather_epi32(table, _mm256_sub_epi32(vmask, index), 4);
  // Quadrant bit 0 swaps fwd/mir; the negation masks follow the scalar
  // switch: sin negates in quadrants 2,3 (bit 1), cos in 1,2 (bit0^bit1).
  const __m256i bit0 = _mm256_cmpeq_epi32(_mm256_and_si256(quadrant, one), one);
  const __m256i bit1 = _mm256_cmpeq_epi32(_mm256_and_si256(quadrant, two), two);
  const __m256i sin_base = _mm256_blendv_epi8(fwd, mir, bit0);
  const __m256i cos_base = _mm256_blendv_epi8(mir, fwd, bit0);
  sin_v = _mm256_blendv_epi8(sin_base, _mm256_sub_epi32(zero, sin_base), bit1);
  cos_v = _mm256_blendv_epi8(cos_base, _mm256_sub_epi32(zero, cos_base),
                             _mm256_xor_si256(bit0, bit1));
}
}  // namespace detail
#endif

#if defined(TWIDDC_HAVE_AVX512_KERNELS)
namespace detail {
/// 16-phase lut_sincos8: same quadrant algebra, with the blend/negate
/// selectors as __mmask16 predicates instead of byte masks.
TWIDDC_AVX512_TARGET inline void lut_sincos16(__m512i vphase, const std::int32_t* table,
                                              __m512i vmask, __m128i shift,
                                              __m512i& cos_v, __m512i& sin_v) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i quadrant = _mm512_srli_epi32(vphase, 30);
  const __m512i index = _mm512_and_si512(_mm512_srl_epi32(vphase, shift), vmask);
  const __m512i fwd = _mm512_i32gather_epi32(index, table, 4);
  const __m512i mir = _mm512_i32gather_epi32(_mm512_sub_epi32(vmask, index), table, 4);
  const __mmask16 bit0 = _mm512_test_epi32_mask(quadrant, _mm512_set1_epi32(1));
  const __mmask16 bit1 = _mm512_test_epi32_mask(quadrant, _mm512_set1_epi32(2));
  const __m512i sin_base = _mm512_mask_blend_epi32(bit0, fwd, mir);
  const __m512i cos_base = _mm512_mask_blend_epi32(bit0, mir, fwd);
  sin_v = _mm512_mask_sub_epi32(sin_base, bit1, zero, sin_base);
  cos_v = _mm512_mask_sub_epi32(cos_base, bit0 ^ bit1, zero, cos_base);
}

/// 16 phases per iteration through lut_sincos16.
TWIDDC_AVX512_TARGET inline std::uint32_t lut_sincos_avx512(
    std::uint32_t phase, std::uint32_t step, const std::int32_t* table,
    int table_bits, std::size_t n, std::int32_t* cos_out, std::int32_t* sin_out) {
  const __m512i vmask = _mm512_set1_epi32((1 << table_bits) - 1);
  const __m128i shift = _mm_cvtsi32_si128(30 - table_bits);
  __m512i vphase = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(phase)),
      _mm512_mullo_epi32(
          _mm512_set1_epi32(static_cast<int>(step)),
          _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                            15)));
  const __m512i vstep16 = _mm512_set1_epi32(static_cast<int>(step * 16u));
  std::size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    __m512i cos_v;
    __m512i sin_v;
    lut_sincos16(vphase, table, vmask, shift, cos_v, sin_v);
    _mm512_storeu_si512(sin_out + k, sin_v);
    _mm512_storeu_si512(cos_out + k, cos_v);
    vphase = _mm512_add_epi32(vphase, vstep16);
  }
  phase += static_cast<std::uint32_t>(k) * step;
  return lut_sincos_block_scalar(phase, step, table, table_bits, n - k,
                                 cos_out + k, sin_out + k);
}
}  // namespace detail
#endif

inline std::uint32_t lut_sincos_block(std::uint32_t phase, std::uint32_t step,
                                      const std::int32_t* table, int table_bits,
                                      std::size_t n, std::int32_t* cos_out,
                                      std::int32_t* sin_out) {
#if defined(TWIDDC_HAVE_AVX512_KERNELS)
  if (n >= 32 && avx512_active())
    return detail::lut_sincos_avx512(phase, step, table, table_bits, n, cos_out,
                                     sin_out);
#endif
#if defined(__AVX2__)
  if (enabled() && n >= 16) {
    const __m256i vmask = _mm256_set1_epi32((1 << table_bits) - 1);
    const __m128i shift = _mm_cvtsi32_si128(30 - table_bits);
    __m256i vphase = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(phase)),
        _mm256_mullo_epi32(_mm256_set1_epi32(static_cast<int>(step)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
    const __m256i vstep8 = _mm256_set1_epi32(static_cast<int>(step * 8u));
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
      __m256i cos_v;
      __m256i sin_v;
      detail::lut_sincos8(vphase, table, vmask, shift, cos_v, sin_v);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sin_out + k), sin_v);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cos_out + k), cos_v);
      vphase = _mm256_add_epi32(vphase, vstep8);
    }
    phase += static_cast<std::uint32_t>(k) * step;
    return lut_sincos_block_scalar(phase, step, table, table_bits, n - k,
                                   cos_out + k, sin_out + k);
  }
#endif
  return lut_sincos_block_scalar(phase, step, table, table_bits, n, cos_out, sin_out);
}

// ----------------------------------------- mixer multiply / shift / narrow
//
// out[k] = narrow(shift_right(x[k] * m[k], shift, rounding), bits, overflow)
// -- one rail of the complex mixer over planar buffers.  Precondition for
// the AVX2 path: |x[k]| and |m[k]| fit int32 (the pipeline validates inputs
// against front_end.input_bits <= 32 and NCO amplitudes are <= 24 bits); the
// kernel falls back to scalar otherwise via `narrow_ok`.

inline void mul_shift_narrow_scalar(const std::int64_t* x, const std::int32_t* m,
                                    std::size_t n, int shift, int bits,
                                    fixed::Rounding rounding, fixed::Overflow overflow,
                                    std::int64_t* out) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t wide = fixed::shift_right(x[k] * m[k], shift, rounding);
    out[k] = bits == 0 ? wide : fixed::narrow(wide, bits, overflow);
  }
}

#if defined(TWIDDC_HAVE_AVX512_KERNELS)
namespace detail {
/// 8-lane mixer rail kernel.  AVX-512F has the 64-bit arithmetic right shift
/// and 64-bit min/max that AVX2 lacks, so both the rounding shift and the
/// saturation are single instructions per step.
TWIDDC_AVX512_TARGET inline void mul_shift_narrow_avx512(
    const std::int64_t* x, const std::int32_t* m, std::size_t n, int shift,
    int bits, fixed::Rounding rounding, fixed::Overflow overflow,
    std::int64_t* out) {
  const __m512i round_add = rounding == fixed::Rounding::kNearest && shift > 0
                                ? _mm512_set1_epi64(std::int64_t{1} << (shift - 1))
                                : _mm512_setzero_si512();
  const bool saturate = bits != 0 && overflow == fixed::Overflow::kSaturate;
  const bool wrap = bits != 0 && overflow == fixed::Overflow::kWrap;
  const __m512i sat_hi = _mm512_set1_epi64(bits ? fixed::max_for_bits(bits) : 0);
  const __m512i sat_lo = _mm512_set1_epi64(bits ? fixed::min_for_bits(bits) : 0);
  const __m128i vshift = _mm_cvtsi32_si128(shift);
  const __m128i vwrap = _mm_cvtsi32_si128(bits ? 64 - bits : 0);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512i vx = _mm512_loadu_si512(x + k);
    const __m512i vm = _mm512_cvtepi32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + k)));
    __m512i v = _mm512_mul_epi32(vx, vm);
    if (shift > 0) {
      v = _mm512_add_epi64(v, round_add);
      v = _mm512_sra_epi64(v, vshift);
    }
    if (saturate) {
      v = _mm512_min_epi64(v, sat_hi);
      v = _mm512_max_epi64(v, sat_lo);
    } else if (wrap) {
      v = _mm512_sra_epi64(_mm512_sll_epi64(v, vwrap), vwrap);
    }
    _mm512_storeu_si512(out + k, v);
  }
  mul_shift_narrow_scalar(x + k, m + k, n - k, shift, bits, rounding, overflow,
                          out + k);
}
}  // namespace detail
#endif

inline void mul_shift_narrow_block(const std::int64_t* x, const std::int32_t* m,
                                   std::size_t n, int shift, int bits,
                                   fixed::Rounding rounding, fixed::Overflow overflow,
                                   bool narrow_ok, std::int64_t* out) {
#if defined(TWIDDC_HAVE_AVX512_KERNELS)
  if (narrow_ok && n >= 16 && avx512_active()) {
    detail::mul_shift_narrow_avx512(x, m, n, shift, bits, rounding, overflow, out);
    return;
  }
#endif
#if defined(__AVX2__)
  if (enabled() && narrow_ok && n >= 8) {
    const __m256i round_add =
        rounding == fixed::Rounding::kNearest && shift > 0
            ? _mm256_set1_epi64x(std::int64_t{1} << (shift - 1))
            : _mm256_setzero_si256();
    const bool saturate = bits != 0 && overflow == fixed::Overflow::kSaturate;
    const bool wrap = bits != 0 && overflow == fixed::Overflow::kWrap;
    const __m256i sat_hi = _mm256_set1_epi64x(bits ? fixed::max_for_bits(bits) : 0);
    const __m256i sat_lo = _mm256_set1_epi64x(bits ? fixed::min_for_bits(bits) : 0);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k));
      const __m256i vm = _mm256_cvtepi32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + k)));
      __m256i v = _mm256_mul_epi32(vx, vm);
      if (shift > 0) {
        v = _mm256_add_epi64(v, round_add);
        v = detail::sra_epi64(v, shift);
      }
      if (saturate) {
        v = _mm256_blendv_epi8(v, sat_hi, _mm256_cmpgt_epi64(v, sat_hi));
        v = _mm256_blendv_epi8(v, sat_lo, _mm256_cmpgt_epi64(sat_lo, v));
      } else if (wrap) {
        const int ws = 64 - bits;
        v = detail::sra_epi64(_mm256_slli_epi64(v, ws), ws);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), v);
    }
    mul_shift_narrow_scalar(x + k, m + k, n - k, shift, bits, rounding, overflow,
                            out + k);
    return;
  }
#elif defined(TWIDDC_SIMD_NEON)
  if (enabled() && narrow_ok && n >= 8) {
    const int64x2_t round_add =
        rounding == fixed::Rounding::kNearest && shift > 0
            ? vdupq_n_s64(std::int64_t{1} << (shift - 1))
            : vdupq_n_s64(0);
    // vshlq_s64 by a negative count is the arithmetic right shift NEON
    // spells differently from x86.
    const int64x2_t shr = vdupq_n_s64(-shift);
    const bool saturate = bits != 0 && overflow == fixed::Overflow::kSaturate;
    const bool wrap = bits != 0 && overflow == fixed::Overflow::kWrap;
    const int64x2_t sat_hi = vdupq_n_s64(bits ? fixed::max_for_bits(bits) : 0);
    const int64x2_t sat_lo = vdupq_n_s64(bits ? fixed::min_for_bits(bits) : 0);
    const int64x2_t wrap_l = vdupq_n_s64(bits ? 64 - bits : 0);
    const int64x2_t wrap_r = vdupq_n_s64(bits ? bits - 64 : 0);
    std::size_t k = 0;
    for (; k + 2 <= n; k += 2) {
      // x fits int32 (narrow_ok), so the low words carry the full value and
      // vmull_s32 is the exact product.
      const int32x2_t x32 = vmovn_s64(vld1q_s64(x + k));
      const int32x2_t m32 = vld1_s32(m + k);
      int64x2_t v = vmull_s32(x32, m32);
      if (shift > 0) {
        v = vaddq_s64(v, round_add);
        v = vshlq_s64(v, shr);
      }
      if (saturate) {
        v = vbslq_s64(vcgtq_s64(v, sat_hi), sat_hi, v);
        v = vbslq_s64(vcgtq_s64(sat_lo, v), sat_lo, v);
      } else if (wrap) {
        v = vshlq_s64(vshlq_s64(v, wrap_l), wrap_r);
      }
      vst1q_s64(out + k, v);
    }
    mul_shift_narrow_scalar(x + k, m + k, n - k, shift, bits, rounding, overflow,
                            out + k);
    return;
  }
#endif
  (void)narrow_ok;
  mul_shift_narrow_scalar(x, m, n, shift, bits, rounding, overflow, out);
}

// ------------------------------------------------- int32 fused front end
//
// One pass per input sample: NCO phase -> quarter-LUT cos/sin -> mixer
// multiply, round and saturate -> the first CIC's integrator cascade, on
// both rails, with every intermediate in int32 registers.  Only the CIC's
// decimation instants leave the registers: there the combs run and the CIC
// output is stored.
//
// Exactness preconditions (the caller checks them on the plan):
//   * input_bits + nco_amplitude_bits <= 32, so |x * cos| <= 2^30 and the
//     product plus its rounding constant fit int32 exactly;
//   * lo/hi are the saturation bounds of the mixer's (<= 31-bit) bus;
//   * the first CIC is unpruned with a register width W <= 32.  Its
//     registers wrap mod 2^W; int32 adds wrap mod 2^32, and reducing mod 2^W
//     afterwards gives the same residue (Hogenauer 1981), so the comb output
//     sign-extended from W bits equals dsp::CicDecimator's.
//
// Lane groups put one channel per lane: the input sample is broadcast, each
// lane keeps its own phase and tuning word, and all lanes share the CIC
// decimation phase.  One lane runs along time instead, 8 or 16 samples per
// register, with the integrators as in-register prefix sums.

/// Datapath constants shared by every lane of a call.
struct FrontEnd32 {
  const std::int32_t* table = nullptr;  ///< quarter-wave LUT, 2^table_bits entries
  int table_bits = 0;
  int shift = 0;               ///< mixer product right shift
  std::int32_t round_add = 0;  ///< 2^(shift-1) under kNearest, else 0
  std::int32_t lo = 0;         ///< mixer saturation bounds
  std::int32_t hi = 0;
  int stages = 1;         ///< first-CIC order N, 1..8
  int decimation = 1;     ///< first-CIC decimation R
  int diff_delay = 1;     ///< first-CIC differential delay M, 1 or 2
  int register_bits = 32; ///< first-CIC register width W, <= 32
};

/// One channel's running state: NCO phase and tuning word, and the first
/// CIC's integrators and comb delay lines per rail (rail 0 = I = x*cos,
/// rail 1 = Q = x*sin), all held mod 2^32.
struct FrontLane32 {
  std::uint32_t phase = 0;
  std::uint32_t step = 0;
  std::uint32_t integ[2][8] = {};  ///< [rail][stage]
  std::uint32_t comb[2][16] = {};  ///< [rail][stage * M + d], d = 0 newest
};

/// The comb chain of one rail at a decimation instant: cascade output `v`
/// in, CIC output (sign-extended from W bits) out.
inline std::int32_t front32_comb(const FrontEnd32& c, std::uint32_t* line,
                                 std::uint32_t v) {
  for (int s = 0; s < c.stages; ++s, line += c.diff_delay) {
    const std::uint32_t delayed = line[c.diff_delay - 1];
    if (c.diff_delay == 2) line[1] = line[0];
    line[0] = v;
    v -= delayed;
  }
  const int unused = 32 - c.register_bits;
  return static_cast<std::int32_t>(v << unused) >> unused;
}

/// Scalar realisation, any lane count: the reference the vector kernels
/// match, the kill-switch path, and the vector kernels' tail.  Lanes run one
/// after another over the whole input, each on a local copy of its state.
inline std::size_t front32_scalar(const FrontEnd32& c, FrontLane32* const lanes[], int L,
                                  const std::int64_t* in, std::size_t n, int& count,
                                  std::int32_t* out) {
  const std::uint32_t mask = (std::uint32_t{1} << c.table_bits) - 1;
  const int tshift = 30 - c.table_bits;
  std::size_t k = 0;
  int lane_count = count;
  for (int l = 0; l < L; ++l) {
    FrontLane32 ln = *lanes[l];
    lane_count = count;
    k = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const std::uint32_t quadrant = ln.phase >> 30;
      const std::uint32_t index = (ln.phase >> tshift) & mask;
      const std::int32_t fwd = c.table[index];
      const std::int32_t mir = c.table[mask - index];
      const std::int32_t sin_v = quadrant & 1 ? mir : fwd;
      const std::int32_t cos_v = quadrant & 1 ? fwd : mir;
      const std::int32_t nco[2] = {(quadrant == 1 || quadrant == 2) ? -cos_v : cos_v,
                                   quadrant >= 2 ? -sin_v : sin_v};
      ln.phase += ln.step;
      std::uint32_t v[2];
      for (int r = 0; r < 2; ++r) {
        std::int32_t p = (static_cast<std::int32_t>(in[t]) * nco[r] + c.round_add) >> c.shift;
        p = p < c.lo ? c.lo : (p > c.hi ? c.hi : p);
        v[r] = static_cast<std::uint32_t>(p);
        for (int s = 0; s < c.stages; ++s) v[r] = ln.integ[r][s] += v[r];
      }
      if (++lane_count < c.decimation) continue;
      lane_count = 0;
      for (int r = 0; r < 2; ++r)
        out[(k * 2 + static_cast<std::size_t>(r)) * static_cast<std::size_t>(L) +
            static_cast<std::size_t>(l)] = front32_comb(c, ln.comb[r], v[r]);
      ++k;
    }
    *lanes[l] = ln;
  }
  count = lane_count;
  return k;
}

#if defined(__AVX2__)
namespace detail {

/// Calls f(std::integral_constant<int, N>{}) for the runtime stage count, so
/// the cascade unrolls with its state in registers.
template <typename F>
inline auto with_stages(int stages, F&& f) {
  switch (stages) {
    case 1: return f(std::integral_constant<int, 1>{});
    case 2: return f(std::integral_constant<int, 2>{});
    case 3: return f(std::integral_constant<int, 3>{});
    case 4: return f(std::integral_constant<int, 4>{});
    case 5: return f(std::integral_constant<int, 5>{});
    case 6: return f(std::integral_constant<int, 6>{});
    case 7: return f(std::integral_constant<int, 7>{});
    default: return f(std::integral_constant<int, 8>{});
  }
}

/// Inclusive prefix sum of 8 int32 lanes, mod 2^32.
inline __m256i prefix_sum8(__m256i v) {
  v = _mm256_add_epi32(v, _mm256_slli_si256(v, 4));
  v = _mm256_add_epi32(v, _mm256_slli_si256(v, 8));
  // Carry the low half's total into the high half.
  const __m256i low_total = _mm256_shuffle_epi32(v, 0xFF);
  return _mm256_add_epi32(v, _mm256_permute2x128_si256(low_total, low_total, 0x08));
}

/// Picks the decimation instants out of a tile's cascade outputs (sample j
/// is one when count + j + 1 is a multiple of R) and combs them.
inline std::size_t front32_pick(const FrontEnd32& c, FrontLane32& ln,
                                const std::int32_t* const cascade[2], std::size_t m,
                                int& count, std::int32_t* out) {
  const auto decimation = static_cast<std::size_t>(c.decimation);
  std::size_t k = 0;
  for (std::size_t j = decimation - 1 - static_cast<std::size_t>(count); j < m;
       j += decimation, ++k)
    for (int r = 0; r < 2; ++r)
      out[2 * k + static_cast<std::size_t>(r)] =
          front32_comb(c, ln.comb[r], static_cast<std::uint32_t>(cascade[r][j]));
  count = static_cast<int>((static_cast<std::size_t>(count) + m) % decimation);
  return k;
}

/// Channel-per-lane kernel, L = 4 or 8 lanes, AVX2.  Each step computes the
/// lanes' cos/sin from one 8-phase LUT pass (L = 4 duplicates the phases so
/// one register holds [I lanes | Q lanes]; L = 8 keeps I and Q apart).
template <int N, int L>
inline std::size_t front32_lanes_avx2(const FrontEnd32& c, FrontLane32* const lanes[],
                                      const std::int64_t* in, std::size_t n, int& count,
                                      std::int32_t* out) {
  constexpr int kRegs = L / 4;  // registers per stage: the 2L slots r*L + l
  alignas(32) std::uint32_t ph[8];
  alignas(32) std::uint32_t st[8];
  for (int j = 0; j < 8; ++j) {
    ph[j] = lanes[j % L]->phase;
    st[j] = lanes[j % L]->step;
  }
  const int delay = c.diff_delay;
  alignas(32) std::uint32_t slots[16];
  const auto load = [&](auto get) {
    for (int r = 0; r < 2; ++r)
      for (int l = 0; l < L; ++l) slots[r * L + l] = get(*lanes[l], r);
  };
  const auto store = [&](auto put) {
    for (int r = 0; r < 2; ++r)
      for (int l = 0; l < L; ++l) put(*lanes[l], r, slots[r * L + l]);
  };
  __m256i acc[N][kRegs];
  __m256i comb[N][2][kRegs] = {};
  for (int s = 0; s < N; ++s) {
    load([&](const FrontLane32& ln, int r) { return ln.integ[r][s]; });
    for (int g = 0; g < kRegs; ++g)
      acc[s][g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(slots + 8 * g));
    for (int d = 0; d < delay; ++d) {
      load([&](const FrontLane32& ln, int r) { return ln.comb[r][s * delay + d]; });
      for (int g = 0; g < kRegs; ++g)
        comb[s][d][g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(slots + 8 * g));
    }
  }
  __m256i vphase = _mm256_load_si256(reinterpret_cast<const __m256i*>(ph));
  const __m256i vstep = _mm256_load_si256(reinterpret_cast<const __m256i*>(st));
  const __m256i vmask = _mm256_set1_epi32((1 << c.table_bits) - 1);
  const __m128i tshift = _mm_cvtsi32_si128(30 - c.table_bits);
  const __m256i round = _mm256_set1_epi32(c.round_add);
  const __m128i mshift = _mm_cvtsi32_si128(c.shift);
  const __m256i lo = _mm256_set1_epi32(c.lo);
  const __m256i hi = _mm256_set1_epi32(c.hi);
  const __m128i unused = _mm_cvtsi32_si128(32 - c.register_bits);
  const auto decimation = static_cast<std::size_t>(c.decimation);
  std::size_t k = 0;
  for (std::size_t t = 0; t < n;) {
    // Run up to the next decimation instant without a per-sample branch.
    const std::size_t end =
        t + std::min(n - t, decimation - static_cast<std::size_t>(count));
    count += static_cast<int>(end - t);
    for (; t < end; ++t) {
      __m256i cos_v;
      __m256i sin_v;
      lut_sincos8(vphase, c.table, vmask, tshift, cos_v, sin_v);
      vphase = _mm256_add_epi32(vphase, vstep);
      const __m256i x = _mm256_set1_epi32(static_cast<std::int32_t>(in[t]));
      __m256i v[kRegs];
      if constexpr (L == 4) {
        v[0] = _mm256_blend_epi32(cos_v, sin_v, 0xF0);
      } else {
        v[0] = cos_v;
        v[1] = sin_v;
      }
      for (int g = 0; g < kRegs; ++g) {
        v[g] = _mm256_sra_epi32(_mm256_add_epi32(_mm256_mullo_epi32(x, v[g]), round),
                                mshift);
        v[g] = _mm256_min_epi32(_mm256_max_epi32(v[g], lo), hi);
        acc[0][g] = _mm256_add_epi32(acc[0][g], v[g]);
        for (int s = 1; s < N; ++s) acc[s][g] = _mm256_add_epi32(acc[s][g], acc[s - 1][g]);
      }
    }
    if (count == c.decimation) {
      count = 0;
      for (int g = 0; g < kRegs; ++g) {
        __m256i y = acc[N - 1][g];
        for (int s = 0; s < N; ++s) {
          const __m256i delayed = comb[s][delay - 1][g];
          comb[s][1][g] = comb[s][0][g];  // dead when M = 1
          comb[s][0][g] = y;
          y = _mm256_sub_epi32(y, delayed);
        }
        y = _mm256_sra_epi32(_mm256_sll_epi32(y, unused), unused);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k * 2 * L + 8 * g), y);
      }
      ++k;
    }
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(ph), vphase);
  for (int l = 0; l < L; ++l) lanes[l]->phase = ph[l];
  for (int s = 0; s < N; ++s) {
    for (int g = 0; g < kRegs; ++g)
      _mm256_store_si256(reinterpret_cast<__m256i*>(slots + 8 * g), acc[s][g]);
    store([&](FrontLane32& ln, int r, std::uint32_t v) { ln.integ[r][s] = v; });
    for (int d = 0; d < delay; ++d) {
      for (int g = 0; g < kRegs; ++g)
        _mm256_store_si256(reinterpret_cast<__m256i*>(slots + 8 * g), comb[s][d][g]);
      store([&](FrontLane32& ln, int r, std::uint32_t v) { ln.comb[r][s * delay + d] = v; });
    }
  }
  return k;
}

/// One lane along time, AVX2: 8 samples per register, each rail's cascade
/// as N in-register prefix sums seeded with the previous register's last
/// lane.  A tile's cascade outputs land in an L1 scratch, from which
/// front32_pick keeps every R-th; the < 8-sample tail runs front32_scalar.
template <int N>
inline std::size_t front32_one_avx2(const FrontEnd32& c, FrontLane32& ln,
                                    const std::int64_t* in, std::size_t n, int& count,
                                    std::int32_t* out) {
  constexpr std::size_t kTile = 1024;
  alignas(32) std::int32_t cascade[2][kTile];
  const std::int32_t* const rails[2] = {cascade[0], cascade[1]};
  const __m256i vmask = _mm256_set1_epi32((1 << c.table_bits) - 1);
  const __m128i tshift = _mm_cvtsi32_si128(30 - c.table_bits);
  const __m256i round = _mm256_set1_epi32(c.round_add);
  const __m128i mshift = _mm_cvtsi32_si128(c.shift);
  const __m256i lo = _mm256_set1_epi32(c.lo);
  const __m256i hi = _mm256_set1_epi32(c.hi);
  const __m256i last = _mm256_set1_epi32(7);
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256i vstep8 = _mm256_set1_epi32(static_cast<std::int32_t>(ln.step * 8u));
  std::size_t k = 0;
  std::size_t t = 0;
  while (n - t >= 8) {
    const std::size_t m = std::min(kTile, (n - t) & ~std::size_t{7});
    __m256i vphase = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<std::int32_t>(ln.phase)),
        _mm256_mullo_epi32(_mm256_set1_epi32(static_cast<std::int32_t>(ln.step)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
    __m256i carry[2][N];
    for (int r = 0; r < 2; ++r)
      for (int s = 0; s < N; ++s)
        carry[r][s] = _mm256_set1_epi32(static_cast<std::int32_t>(ln.integ[r][s]));
    for (std::size_t j = 0; j < m; j += 8) {
      __m256i nco[2];
      lut_sincos8(vphase, c.table, vmask, tshift, nco[0], nco[1]);
      vphase = _mm256_add_epi32(vphase, vstep8);
      // The low dwords of 8 int64 inputs (each fits int32).
      const __m256i x = _mm256_permute2x128_si256(
          _mm256_permutevar8x32_epi32(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + t + j)), low_dwords),
          _mm256_permutevar8x32_epi32(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + t + j + 4)),
              low_dwords),
          0x20);
      for (int r = 0; r < 2; ++r) {
        __m256i v = _mm256_sra_epi32(
            _mm256_add_epi32(_mm256_mullo_epi32(x, nco[r]), round), mshift);
        v = _mm256_min_epi32(_mm256_max_epi32(v, lo), hi);
        for (int s = 0; s < N; ++s) {
          v = _mm256_add_epi32(prefix_sum8(v), carry[r][s]);
          carry[r][s] = _mm256_permutevar8x32_epi32(v, last);
        }
        _mm256_store_si256(reinterpret_cast<__m256i*>(cascade[r] + j), v);
      }
    }
    ln.phase += static_cast<std::uint32_t>(m) * ln.step;
    for (int r = 0; r < 2; ++r)
      for (int s = 0; s < N; ++s)
        ln.integ[r][s] = static_cast<std::uint32_t>(_mm256_cvtsi256_si32(carry[r][s]));
    k += front32_pick(c, ln, rails, m, count, out + 2 * k);
    t += m;
  }
  FrontLane32* self = &ln;
  return k + front32_scalar(c, &self, 1, in + t, n - t, count, out + 2 * k);
}

}  // namespace detail
#endif

#if defined(TWIDDC_HAVE_AVX512_KERNELS)
namespace detail {

/// Eight channels, AVX-512: one 8-phase LUT pass per sample, then one
/// 512-bit register per stage holding the 16 slots [I lanes | Q lanes].
template <int N>
TWIDDC_AVX512_TARGET inline std::size_t front32_lanes8_avx512(
    const FrontEnd32& c, FrontLane32* const lanes[], const std::int64_t* in,
    std::size_t n, int& count, std::int32_t* out) {
  alignas(32) std::uint32_t ph[8];
  alignas(32) std::uint32_t st[8];
  for (int l = 0; l < 8; ++l) {
    ph[l] = lanes[l]->phase;
    st[l] = lanes[l]->step;
  }
  const int delay = c.diff_delay;
  alignas(64) std::uint32_t slots[16];
  __m512i acc[N];
  __m512i comb[N][2] = {};
  for (int s = 0; s < N; ++s) {
    for (int j = 0; j < 16; ++j) slots[j] = lanes[j % 8]->integ[j / 8][s];
    acc[s] = _mm512_load_si512(slots);
    for (int d = 0; d < delay; ++d) {
      for (int j = 0; j < 16; ++j) slots[j] = lanes[j % 8]->comb[j / 8][s * delay + d];
      comb[s][d] = _mm512_load_si512(slots);
    }
  }
  __m256i vphase = _mm256_load_si256(reinterpret_cast<const __m256i*>(ph));
  const __m256i vstep = _mm256_load_si256(reinterpret_cast<const __m256i*>(st));
  const __m256i vmask = _mm256_set1_epi32((1 << c.table_bits) - 1);
  const __m128i tshift = _mm_cvtsi32_si128(30 - c.table_bits);
  const __m512i round = _mm512_set1_epi32(c.round_add);
  const __m128i mshift = _mm_cvtsi32_si128(c.shift);
  const __m512i lo = _mm512_set1_epi32(c.lo);
  const __m512i hi = _mm512_set1_epi32(c.hi);
  const __m128i unused = _mm_cvtsi32_si128(32 - c.register_bits);
  const auto decimation = static_cast<std::size_t>(c.decimation);
  std::size_t k = 0;
  for (std::size_t t = 0; t < n;) {
    const std::size_t end =
        t + std::min(n - t, decimation - static_cast<std::size_t>(count));
    count += static_cast<int>(end - t);
    for (; t < end; ++t) {
      __m256i cos_v;
      __m256i sin_v;
      lut_sincos8(vphase, c.table, vmask, tshift, cos_v, sin_v);
      vphase = _mm256_add_epi32(vphase, vstep);
      const __m512i nco = _mm512_inserti64x4(_mm512_castsi256_si512(cos_v), sin_v, 1);
      __m512i v = _mm512_mullo_epi32(_mm512_set1_epi32(static_cast<std::int32_t>(in[t])), nco);
      v = _mm512_sra_epi32(_mm512_add_epi32(v, round), mshift);
      v = _mm512_min_epi32(_mm512_max_epi32(v, lo), hi);
      acc[0] = _mm512_add_epi32(acc[0], v);
      for (int s = 1; s < N; ++s) acc[s] = _mm512_add_epi32(acc[s], acc[s - 1]);
    }
    if (count == c.decimation) {
      count = 0;
      __m512i y = acc[N - 1];
      for (int s = 0; s < N; ++s) {
        const __m512i delayed = comb[s][delay - 1];
        comb[s][1] = comb[s][0];  // dead when M = 1
        comb[s][0] = y;
        y = _mm512_sub_epi32(y, delayed);
      }
      _mm512_storeu_si512(out + k * 16,
                          _mm512_sra_epi32(_mm512_sll_epi32(y, unused), unused));
      ++k;
    }
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(ph), vphase);
  for (int l = 0; l < 8; ++l) lanes[l]->phase = ph[l];
  for (int s = 0; s < N; ++s) {
    _mm512_store_si512(slots, acc[s]);
    for (int j = 0; j < 16; ++j) lanes[j % 8]->integ[j / 8][s] = slots[j];
    for (int d = 0; d < delay; ++d) {
      _mm512_store_si512(slots, comb[s][d]);
      for (int j = 0; j < 16; ++j) lanes[j % 8]->comb[j / 8][s * delay + d] = slots[j];
    }
  }
  return k;
}

/// Inclusive prefix sum of 16 int32 lanes, mod 2^32.
TWIDDC_AVX512_TARGET inline __m512i prefix_sum16(__m512i v) {
  const __m512i zero = _mm512_setzero_si512();
  v = _mm512_add_epi32(v, _mm512_alignr_epi32(v, zero, 15));
  v = _mm512_add_epi32(v, _mm512_alignr_epi32(v, zero, 14));
  v = _mm512_add_epi32(v, _mm512_alignr_epi32(v, zero, 12));
  return _mm512_add_epi32(v, _mm512_alignr_epi32(v, zero, 8));
}

/// One lane along time, AVX-512: front32_one_avx2 at 16 samples per register.
template <int N>
TWIDDC_AVX512_TARGET inline std::size_t front32_one_avx512(
    const FrontEnd32& c, FrontLane32& ln, const std::int64_t* in, std::size_t n,
    int& count, std::int32_t* out) {
  constexpr std::size_t kTile = 1024;
  alignas(64) std::int32_t cascade[2][kTile];
  const std::int32_t* const rails[2] = {cascade[0], cascade[1]};
  const __m512i vmask = _mm512_set1_epi32((1 << c.table_bits) - 1);
  const __m128i tshift = _mm_cvtsi32_si128(30 - c.table_bits);
  const __m512i round = _mm512_set1_epi32(c.round_add);
  const __m128i mshift = _mm_cvtsi32_si128(c.shift);
  const __m512i lo = _mm512_set1_epi32(c.lo);
  const __m512i hi = _mm512_set1_epi32(c.hi);
  const __m512i last = _mm512_set1_epi32(15);
  const __m512i vstep16 = _mm512_set1_epi32(static_cast<std::int32_t>(ln.step * 16u));
  std::size_t k = 0;
  std::size_t t = 0;
  while (n - t >= 16) {
    const std::size_t m = std::min(kTile, (n - t) & ~std::size_t{15});
    __m512i vphase = _mm512_add_epi32(
        _mm512_set1_epi32(static_cast<std::int32_t>(ln.phase)),
        _mm512_mullo_epi32(_mm512_set1_epi32(static_cast<std::int32_t>(ln.step)),
                           _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                             13, 14, 15)));
    __m512i carry[2][N];
    for (int r = 0; r < 2; ++r)
      for (int s = 0; s < N; ++s)
        carry[r][s] = _mm512_set1_epi32(static_cast<std::int32_t>(ln.integ[r][s]));
    for (std::size_t j = 0; j < m; j += 16) {
      __m512i nco[2];
      lut_sincos16(vphase, c.table, vmask, tshift, nco[0], nco[1]);
      vphase = _mm512_add_epi32(vphase, vstep16);
      const __m512i x = _mm512_inserti64x4(
          _mm512_castsi256_si512(_mm512_cvtepi64_epi32(_mm512_loadu_si512(in + t + j))),
          _mm512_cvtepi64_epi32(_mm512_loadu_si512(in + t + j + 8)), 1);
      for (int r = 0; r < 2; ++r) {
        __m512i v = _mm512_mullo_epi32(x, nco[r]);
        v = _mm512_sra_epi32(_mm512_add_epi32(v, round), mshift);
        v = _mm512_min_epi32(_mm512_max_epi32(v, lo), hi);
        for (int s = 0; s < N; ++s) {
          v = _mm512_add_epi32(prefix_sum16(v), carry[r][s]);
          carry[r][s] = _mm512_permutexvar_epi32(last, v);
        }
        _mm512_store_si512(cascade[r] + j, v);
      }
    }
    ln.phase += static_cast<std::uint32_t>(m) * ln.step;
    for (int r = 0; r < 2; ++r)
      for (int s = 0; s < N; ++s)
        ln.integ[r][s] = static_cast<std::uint32_t>(
            _mm_cvtsi128_si32(_mm512_castsi512_si128(carry[r][s])));
    k += front32_pick(c, ln, rails, m, count, out + 2 * k);
    t += m;
  }
  FrontLane32* self = &ln;
  return k + front32_scalar(c, &self, 1, in + t, n - t, count, out + 2 * k);
}

}  // namespace detail
#endif

/// Runs L (1, 4 or 8) channels over n input samples.  `count` is the
/// inputs since the last decimation instant, in [0, R), shared by the
/// lanes and advanced.  At the k-th instant the kernel writes lane l's
/// rail-r CIC output to out[(2k + r) * L + l] (room for n/R + 1 instants);
/// returns the number of instants.  Bit-exact with front32_scalar on every
/// tier; the kill switch selects it.
inline std::size_t front32(const FrontEnd32& c, FrontLane32* const lanes[], int L,
                           const std::int64_t* in, std::size_t n, int& count,
                           std::int32_t* out) {
#if defined(TWIDDC_HAVE_AVX512_KERNELS)
  if (avx512_active() && (L == 1 || L == 8))
    return detail::with_stages(c.stages, [&](auto stages) {
      constexpr int N = decltype(stages)::value;
      return L == 1 ? detail::front32_one_avx512<N>(c, *lanes[0], in, n, count, out)
                    : detail::front32_lanes8_avx512<N>(c, lanes, in, n, count, out);
    });
#endif
#if defined(__AVX2__)
  if (enabled() && (L == 1 || L == 4 || L == 8))
    return detail::with_stages(c.stages, [&](auto stages) {
      constexpr int N = decltype(stages)::value;
      if (L == 1) return detail::front32_one_avx2<N>(c, *lanes[0], in, n, count, out);
      return L == 4 ? detail::front32_lanes_avx2<N, 4>(c, lanes, in, n, count, out)
                    : detail::front32_lanes_avx2<N, 8>(c, lanes, in, n, count, out);
    });
#endif
  return front32_scalar(c, lanes, L, in, n, count, out);
}

// ----------------------------------------------- cross-channel packed dots
//
// out[l] = sum_j taps[j] * win[j*L + l] for L lanes -- L channels' FIR
// windows interleaved at stride L, sharing one tap set.  Each tap costs one
// broadcast amortised over all L lanes plus one unit-stride register load,
// which is what makes cross-channel FIR packing pay: the monolithic path
// re-streams the taps per channel.  Accumulation is per-lane mod 2^64, so
// the result is bit-exact with L independent dot_i64 calls (and with the
// scalar loop) regardless of ISA.  `narrow_ok` asserts every tap and window
// element fits int32, same contract as dot_i64.

inline void dot_i64_x4_scalar(const std::int64_t* taps, const std::int64_t* win,
                              std::size_t ntaps, std::int64_t out[4]) {
  std::uint64_t acc[4] = {0, 0, 0, 0};
  for (std::size_t j = 0; j < ntaps; ++j) {
    const std::uint64_t t = static_cast<std::uint64_t>(taps[j]);
    for (int l = 0; l < 4; ++l)
      acc[l] += t * static_cast<std::uint64_t>(win[j * 4 + static_cast<std::size_t>(l)]);
  }
  for (int l = 0; l < 4; ++l) out[l] = static_cast<std::int64_t>(acc[l]);
}

inline void dot_i64_x8_scalar(const std::int64_t* taps, const std::int64_t* win,
                              std::size_t ntaps, std::int64_t out[8]) {
  std::uint64_t acc[8] = {};
  for (std::size_t j = 0; j < ntaps; ++j) {
    const std::uint64_t t = static_cast<std::uint64_t>(taps[j]);
    for (int l = 0; l < 8; ++l)
      acc[l] += t * static_cast<std::uint64_t>(win[j * 8 + static_cast<std::size_t>(l)]);
  }
  for (int l = 0; l < 8; ++l) out[l] = static_cast<std::int64_t>(acc[l]);
}

/// 4 lanes per AVX2 register; scalar fallback elsewhere (bit-exact).
inline void dot_i64_x4(const std::int64_t* taps, const std::int64_t* win,
                       std::size_t ntaps, bool narrow_ok, std::int64_t out[4]) {
#if defined(__AVX2__)
  if (enabled()) {
    __m256i acc = _mm256_setzero_si256();
    if (narrow_ok) {
      for (std::size_t j = 0; j < ntaps; ++j) {
        const __m256i vt = _mm256_set1_epi64x(taps[j]);
        const __m256i vw =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(win + j * 4));
        acc = _mm256_add_epi64(acc, _mm256_mul_epi32(vt, vw));
      }
    } else {
      for (std::size_t j = 0; j < ntaps; ++j) {
        const __m256i vt = _mm256_set1_epi64x(taps[j]);
        const __m256i vw =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(win + j * 4));
        acc = _mm256_add_epi64(acc, detail::mullo_epi64(vt, vw));
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), acc);
    return;
  }
#endif
  (void)narrow_ok;
  dot_i64_x4_scalar(taps, win, ntaps, out);
}

#if defined(TWIDDC_HAVE_AVX512_KERNELS)
namespace detail {
TWIDDC_AVX512_TARGET inline void dot_i64_x8_avx512(const std::int64_t* taps,
                                                   const std::int64_t* win,
                                                   std::size_t ntaps,
                                                   bool narrow_ok,
                                                   std::int64_t out[8]) {
  __m512i acc = _mm512_setzero_si512();
  if (narrow_ok) {
    for (std::size_t j = 0; j < ntaps; ++j) {
      const __m512i vt = _mm512_set1_epi64(taps[j]);
      const __m512i vw = _mm512_loadu_si512(win + j * 8);
      acc = _mm512_add_epi64(acc, _mm512_mul_epi32(vt, vw));
    }
  } else {
    for (std::size_t j = 0; j < ntaps; ++j) {
      const __m512i vt = _mm512_set1_epi64(taps[j]);
      const __m512i vw = _mm512_loadu_si512(win + j * 8);
      acc = _mm512_add_epi64(acc, _mm512_mullo_epi64(vt, vw));
    }
  }
  _mm512_storeu_si512(out, acc);
}
}  // namespace detail
#endif

/// 8 lanes per AVX-512 register; scalar fallback elsewhere (bit-exact).
inline void dot_i64_x8(const std::int64_t* taps, const std::int64_t* win,
                       std::size_t ntaps, bool narrow_ok, std::int64_t out[8]) {
#if defined(TWIDDC_HAVE_AVX512_KERNELS)
  if (avx512_active()) {
    detail::dot_i64_x8_avx512(taps, win, ntaps, narrow_ok, out);
    return;
  }
#endif
  (void)narrow_ok;
  dot_i64_x8_scalar(taps, win, ntaps, out);
}

}  // namespace twiddc::simd
