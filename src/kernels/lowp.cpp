#include "kernels/lowp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PFI_KERNELS_X86 1
#endif

namespace pfi::kernels {

namespace {

std::int64_t round_up_even(std::int64_t v) { return (v + 1) & ~std::int64_t{1}; }

constexpr int kMR = block_config().mr;

// ----------------------------------------------------------- isa dispatch ----

bool madd_supported() {
#ifdef PFI_KERNELS_X86
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#else
  return false;
#endif
}

bool vnni_supported() {
#ifdef PFI_KERNELS_X86
  // The EVEX-encoded 256-bit vpdpwssd needs AVX512-VNNI + AVX512-VL. (Pure
  // AVX-VNNI parts without AVX-512 fall back to the madd path.)
  static const bool available = __builtin_cpu_supports("avx512vnni") &&
                                __builtin_cpu_supports("avx512vl");
  return available;
#else
  return false;
#endif
}

bool fma_supported() {
#ifdef PFI_KERNELS_X86
  static const bool available = __builtin_cpu_supports("fma");
  return available;
#else
  return false;
#endif
}

I8Isa resolve(I8Isa isa) {
  if (isa != I8Isa::kAuto) return isa;
  if (vnni_supported()) return I8Isa::kVnni;
  if (madd_supported()) return I8Isa::kMadd;
  return I8Isa::kScalar;
}

I8Isa g_i8_isa = I8Isa::kAuto;

/// True when the resolved ISA wants the AVX2 quantize/pack kernels. kMadd
/// and kVnni both imply AVX2; kScalar keeps every loop scalar so the
/// cross-ISA bit-identity tests compare genuinely different code paths.
bool simd_quant_enabled() {
#ifdef PFI_KERNELS_X86
  return resolve(g_i8_isa) != I8Isa::kScalar;
#else
  return false;
#endif
}

// ----------------------------------------------------------- microkernels ----

// Every INT8 microkernel computes an mr x kNR tile of C = sum_k a*b over the
// FULL (padded) K in i32 registers and stores once — no partial flushes are
// needed because integer accumulation is exact, so any grouping of the adds
// yields the same bits. ap walks mr*2 i16 per k-pair (two adjacent k's per
// row, interleaved); bp walks kNR*2 i16 per k-pair (two adjacent k's per
// column).

/// One k-pair of one A row, as the 32-bit lane the SIMD kernels broadcast.
std::int32_t load_pair(const std::int16_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void micro_i8_scalar(std::int64_t kp2, const std::int16_t* ap,
                     const std::int16_t* bp, std::int32_t* c,
                     std::int64_t ldc) {
  std::int32_t acc[kMR][kNR] = {};
  for (std::int64_t q = 0; q < kp2; ++q) {
    const std::int16_t* a = ap + q * kMR * 2;
    const std::int16_t* b = bp + q * kNR * 2;
    for (int r = 0; r < kMR; ++r) {
      const std::int32_t a0 = a[r * 2];
      const std::int32_t a1 = a[r * 2 + 1];
      for (int j = 0; j < kNR; ++j) {
        acc[r][j] += a0 * b[j * 2] + a1 * b[j * 2 + 1];
      }
    }
  }
  for (int r = 0; r < kMR; ++r) {
    std::memcpy(c + r * ldc, acc[r], sizeof(std::int32_t) * kNR);
  }
}

#ifdef PFI_KERNELS_X86

// madd path: vpmaddwd multiplies 16 i16 pairs and adds each pair into an i32
// lane — with |code| <= 127 the pair sum is at most 2*127^2, far from i16
// saturation, so the op is exact; vpaddd folds it into the accumulator.

// 6x16: 12 accumulators + 2 B vectors + 1 broadcast = 15 ymm registers.
static_assert(kMR == 6, "the SIMD INT8 microkernels are unrolled for 6 rows");
__attribute__((target("avx2"))) void micro_i8_madd_6(std::int64_t kp2,
                                                     const std::int16_t* ap,
                                                     const std::int16_t* bp,
                                                     std::int32_t* c,
                                                     std::int64_t ldc) {
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  __m256i c40 = _mm256_setzero_si256(), c41 = _mm256_setzero_si256();
  __m256i c50 = _mm256_setzero_si256(), c51 = _mm256_setzero_si256();
  for (std::int64_t q = 0; q < kp2; ++q) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + q * kNR * 2));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + q * kNR * 2 + 16));
    const std::int16_t* a = ap + q * 12;
    __m256i av;
    av = _mm256_set1_epi32(load_pair(a + 0));
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(av, b0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a + 2));
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(av, b0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a + 4));
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(av, b0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a + 6));
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(av, b0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a + 8));
    c40 = _mm256_add_epi32(c40, _mm256_madd_epi16(av, b0));
    c41 = _mm256_add_epi32(c41, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a + 10));
    c50 = _mm256_add_epi32(c50, _mm256_madd_epi16(av, b0));
    c51 = _mm256_add_epi32(c51, _mm256_madd_epi16(av, b1));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 0 * ldc), c00);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 0 * ldc + 8), c01);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 1 * ldc), c10);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 1 * ldc + 8), c11);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 2 * ldc), c20);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 2 * ldc + 8), c21);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 3 * ldc), c30);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 3 * ldc + 8), c31);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 4 * ldc), c40);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 4 * ldc + 8), c41);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 5 * ldc), c50);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 5 * ldc + 8), c51);
}

// VNNI path: vpdpwssd fuses the madd+add pair into one op with the same
// exact i32 arithmetic (signed i16 pairs, non-saturating accumulate for our
// operand range), doubling the per-cycle MAC rate.

__attribute__((target("avx512vnni,avx512vl"))) void micro_i8_vnni_6(
    std::int64_t kp2, const std::int16_t* ap, const std::int16_t* bp,
    std::int32_t* c, std::int64_t ldc) {
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  __m256i c40 = _mm256_setzero_si256(), c41 = _mm256_setzero_si256();
  __m256i c50 = _mm256_setzero_si256(), c51 = _mm256_setzero_si256();
  for (std::int64_t q = 0; q < kp2; ++q) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + q * kNR * 2));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + q * kNR * 2 + 16));
    const std::int16_t* a = ap + q * 12;
    __m256i av;
    av = _mm256_set1_epi32(load_pair(a + 0));
    c00 = _mm256_dpwssd_epi32(c00, av, b0);
    c01 = _mm256_dpwssd_epi32(c01, av, b1);
    av = _mm256_set1_epi32(load_pair(a + 2));
    c10 = _mm256_dpwssd_epi32(c10, av, b0);
    c11 = _mm256_dpwssd_epi32(c11, av, b1);
    av = _mm256_set1_epi32(load_pair(a + 4));
    c20 = _mm256_dpwssd_epi32(c20, av, b0);
    c21 = _mm256_dpwssd_epi32(c21, av, b1);
    av = _mm256_set1_epi32(load_pair(a + 6));
    c30 = _mm256_dpwssd_epi32(c30, av, b0);
    c31 = _mm256_dpwssd_epi32(c31, av, b1);
    av = _mm256_set1_epi32(load_pair(a + 8));
    c40 = _mm256_dpwssd_epi32(c40, av, b0);
    c41 = _mm256_dpwssd_epi32(c41, av, b1);
    av = _mm256_set1_epi32(load_pair(a + 10));
    c50 = _mm256_dpwssd_epi32(c50, av, b0);
    c51 = _mm256_dpwssd_epi32(c51, av, b1);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 0 * ldc), c00);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 0 * ldc + 8), c01);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 1 * ldc), c10);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 1 * ldc + 8), c11);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 2 * ldc), c20);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 2 * ldc + 8), c21);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 3 * ldc), c30);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 3 * ldc + 8), c31);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 4 * ldc), c40);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 4 * ldc + 8), c41);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 5 * ldc), c50);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 5 * ldc + 8), c51);
}

#endif  // PFI_KERNELS_X86

using MicroI8Fn = void (*)(std::int64_t, const std::int16_t*,
                           const std::int16_t*, std::int32_t*, std::int64_t);

MicroI8Fn micro_i8_for(I8Isa isa) {
#ifdef PFI_KERNELS_X86
  if (isa == I8Isa::kVnni) return micro_i8_vnni_6;
  if (isa == I8Isa::kMadd) return micro_i8_madd_6;
#else
  (void)isa;
#endif
  return micro_i8_scalar;
}

// --------------------------------------------------------------- packing ----

/// Shared A-side quantize+pack. `scale_of(row)` supplies the symmetric
/// scale; rows past m and k's past the logical K pack as zero codes.
template <typename ScaleOf>
void pack_a_codes(std::int64_t m, std::int64_t k, const float* a,
                  std::int64_t lda, bool trans_a, int mr, ScaleOf scale_of,
                  PackedPanelsI8& out) {
  detail::check_panel_height(mr, "quantize_pack_a");
  const std::int64_t kp = round_up_even(k);
  const std::int64_t panels = (m + mr - 1) / mr;
  out.data.resize(static_cast<std::size_t>(panels * mr * kp));
  out.k = k;
  out.kp = kp;
  out.span = m;
  out.panel = mr;
  std::int16_t* dst = out.data.data();
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    std::int16_t* panel = dst + ip * mr * kp;
    const std::int64_t row0 = ip * mr;
    for (int r = 0; r < mr; ++r) {
      const std::int64_t row = row0 + r;
      const bool live = row < m;
      const float scale = live ? scale_of(row) : 1.0f;
      for (std::int64_t kk = 0; kk < kp; ++kk) {
        std::int16_t code = 0;
        if (live && kk < k) {
          const float v = trans_a ? a[kk * lda + row] : a[row * lda + kk];
          code = quantize_unit(v, scale);
        }
        panel[(kk / 2) * (mr * 2) + r * 2 + (kk & 1)] = code;
      }
    }
  }
}

/// Shared B-side quantize+pack with `scale_of(col)`.
template <typename ScaleOf>
void pack_b_codes(std::int64_t k, std::int64_t n, const float* b,
                  std::int64_t ldb, bool trans_b, ScaleOf scale_of,
                  PackedPanelsI8& out) {
  const std::int64_t kp = round_up_even(k);
  const std::int64_t panels = (n + kNR - 1) / kNR;
  out.data.resize(static_cast<std::size_t>(panels * kNR * kp));
  out.k = k;
  out.kp = kp;
  out.span = n;
  out.panel = kNR;
  std::int16_t* dst = out.data.data();
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    std::int16_t* panel = dst + jp * kNR * kp;
    const std::int64_t col0 = jp * kNR;
    for (int c = 0; c < kNR; ++c) {
      const std::int64_t col = col0 + c;
      const bool live = col < n;
      const float scale = live ? scale_of(col) : 1.0f;
      for (std::int64_t kk = 0; kk < kp; ++kk) {
        std::int16_t code = 0;
        if (live && kk < k) {
          const float v = trans_b ? b[col * ldb + kk] : b[kk * ldb + col];
          code = quantize_unit(v, scale);
        }
        panel[(kk / 2) * (kNR * 2) + c * 2 + (kk & 1)] = code;
      }
    }
  }
}

/// Finite-only absolute maximum over a strided logical matrix (rows x cols,
/// row stride ld, optional transpose). NaN and +-Inf contribute nothing —
/// the per-tensor dynamic activation calibration must stay finite even when
/// an upstream fp32 fault produced non-finite activations.
float finite_absmax(std::int64_t rows, std::int64_t cols, const float* p,
                    std::int64_t ld, bool trans) {
  float absmax = 0.0f;
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      const float v = trans ? p[j * ld + i] : p[i * ld + j];
      const float av = std::fabs(v);
      if (std::isfinite(av) && av > absmax) absmax = av;
    }
  }
  return absmax;
}

// ------------------------------------------------- AVX2 quantize kernels ----
//
// The vector quantizer is BIT-IDENTICAL to quantize_unit lane for lane:
//  * vdivps is IEEE correctly rounded, exactly like the scalar `/`;
//  * vroundps with _MM_FROUND_CUR_DIRECTION matches std::nearbyint (both
//    honor the live rounding mode, round-nearest-even by default);
//  * the clamp runs max-then-min in the scalar's operand order — MAXPS/
//    MINPS return the SECOND source when the first is NaN, so a NaN
//    quotient lands on -127 exactly like std::max(-127.0f, NaN);
//  * vcvtps2dq is exact on the clamped integral values, and vcvtdq2ps
//    back is exact too, so fake_quantize_row's vmulps is dequantize_unit's
//    multiply.
// So scalar and AVX2 packs hold the same codes, and the kScalar /
// kMadd / kVnni campaign byte-identity carries over to the quantize path
// and to the emulated INT8 round trip.

#ifdef PFI_KERNELS_X86

/// 8 floats -> 8 i32 codes in [-127, 127].
__attribute__((target("avx2"))) inline __m256i quantize8_i32(__m256 v,
                                                             __m256 vscale) {
  const __m256 q = _mm256_round_ps(
      _mm256_div_ps(v, vscale), _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  const __m256 lo = _mm256_max_ps(q, _mm256_set1_ps(-127.0f));
  const __m256 clamped = _mm256_min_ps(lo, _mm256_set1_ps(127.0f));
  return _mm256_cvtps_epi32(clamped);
}

/// 16 contiguous floats -> one vector of 16 i16 codes in source order
/// (packs interleaves 128-bit lanes; the qword permute restores order).
__attribute__((target("avx2"))) inline __m256i quantize16_i16(const float* src,
                                                              __m256 vscale) {
  const __m256i x = quantize8_i32(_mm256_loadu_ps(src), vscale);
  const __m256i y = quantize8_i32(_mm256_loadu_ps(src + 8), vscale);
  return _mm256_permute4x64_epi64(_mm256_packs_epi32(x, y), 0xD8);
}

__attribute__((target("avx2"))) void quantize_row_i16_avx2(
    const float* src, std::int64_t n, float scale, std::int16_t* dst) {
  const __m256 vscale = _mm256_set1_ps(scale);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        quantize16_i16(src + i, vscale));
  }
  for (; i < n; ++i) dst[i] = quantize_unit(src[i], scale);
}

/// In-place INT8 round trip: the code of quantize8_i32, converted back to
/// float (exact) and multiplied by the scale, as dequantize_unit does.
__attribute__((target("avx2"))) void fake_quantize_row_avx2(float* p,
                                                            std::int64_t n,
                                                            float scale) {
  const __m256 vscale = _mm256_set1_ps(scale);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i code = quantize8_i32(_mm256_loadu_ps(p + i), vscale);
    _mm256_storeu_ps(p + i, _mm256_mul_ps(_mm256_cvtepi32_ps(code), vscale));
  }
  for (; i < n; ++i) p[i] = dequantize_unit(quantize_unit(p[i], scale), scale);
}

__attribute__((target("avx2"))) float finite_absmax_avx2(const float* p,
                                                         std::int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  __m256 vmax = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_andnot_ps(sign, _mm256_loadu_ps(p + i));
    // Ordered < Inf: NaN and +-Inf compare false and mask to 0.0f.
    const __m256 finite = _mm256_cmp_ps(av, inf, _CMP_LT_OQ);
    vmax = _mm256_max_ps(vmax, _mm256_and_ps(av, finite));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float absmax = 0.0f;
  for (const float l : lanes) absmax = std::max(absmax, l);
  for (; i < n; ++i) {
    const float av = std::fabs(p[i]);
    if (std::isfinite(av) && av > absmax) absmax = av;
  }
  return absmax;
}

/// One full-width (16-column) B panel from a strided source: element
/// (kk, c) = src[kk * ld + c]. Two rows are quantized to i16 and zipped
/// into the k-pair layout [b(2q,c), b(2q+1,c)] per column — unpacklo/hi
/// produce the column-major pair stream per 128-bit lane, the cross-lane
/// permutes stitch the lanes back into panel order. An odd logical K pairs
/// its last row with zero codes, exactly like the scalar pack.
__attribute__((target("avx2"))) void pack_b_panel16_avx2(
    std::int64_t k, std::int64_t kp, const float* src, std::int64_t ld,
    float scale, std::int16_t* panel) {
  const __m256 vscale = _mm256_set1_ps(scale);
  for (std::int64_t kk = 0; kk < kp; kk += 2) {
    const __m256i v0 = quantize16_i16(src + kk * ld, vscale);
    const __m256i v1 = kk + 1 < k
                           ? quantize16_i16(src + (kk + 1) * ld, vscale)
                           : _mm256_setzero_si256();
    const __m256i lo = _mm256_unpacklo_epi16(v0, v1);
    const __m256i hi = _mm256_unpackhi_epi16(v0, v1);
    std::int16_t* out = panel + (kk / 2) * (kNR * 2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 16),
                        _mm256_permute2x128_si256(lo, hi, 0x31));
  }
}

#endif  // PFI_KERNELS_X86

/// Scalar B panel pack from a strided source (edge panels with w < kNR
/// live columns, and the kScalar ISA). Dead columns and padding k's hold
/// zero codes.
void pack_b_panel_scalar(std::int64_t k, std::int64_t kp, const float* src,
                         std::int64_t ld, int w, float scale,
                         std::int16_t* panel) {
  for (int c = 0; c < kNR; ++c) {
    const bool live = c < w;
    for (std::int64_t kk = 0; kk < kp; ++kk) {
      std::int16_t code = 0;
      if (live && kk < k) code = quantize_unit(src[kk * ld + c], scale);
      panel[(kk / 2) * (kNR * 2) + c * 2 + (kk & 1)] = code;
    }
  }
}

/// Untransposed fixed-scale B pack over a strided matrix: the SIMD fast
/// path for full panels, scalar for the edge panel / scalar ISA.
void pack_b_static_strided(std::int64_t k, std::int64_t n, const float* b,
                           std::int64_t ldb, float scale, PackedPanelsI8& out) {
  const std::int64_t kp = round_up_even(k);
  const std::int64_t panels = (n + kNR - 1) / kNR;
  out.data.resize(static_cast<std::size_t>(panels * kNR * kp));
  out.k = k;
  out.kp = kp;
  out.span = n;
  out.panel = kNR;
  const bool simd = simd_quant_enabled();
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    std::int16_t* panel = out.data.data() + jp * kNR * kp;
    const std::int64_t col0 = jp * kNR;
    const int w = static_cast<int>(std::min<std::int64_t>(kNR, n - col0));
#ifdef PFI_KERNELS_X86
    if (simd && w == kNR) {
      pack_b_panel16_avx2(k, kp, b + col0, ldb, scale, panel);
      continue;
    }
#else
    (void)simd;
#endif
    pack_b_panel_scalar(k, kp, b + col0, ldb, w, scale, panel);
  }
}

/// Untransposed fixed-scale A pack: SIMD row quantize into an i16 scratch
/// row, then a cheap scalar i16 interleave into the mr-row k-pair panels.
void pack_a_static_rows(std::int64_t m, std::int64_t k, const float* a,
                        std::int64_t lda, int mr, float scale,
                        PackedPanelsI8& out) {
  detail::check_panel_height(mr, "quantize_pack_a");
  const std::int64_t kp = round_up_even(k);
  const std::int64_t panels = (m + mr - 1) / mr;
  // Zero-fill covers dead lanes and k-padding in one memset.
  out.data.assign(static_cast<std::size_t>(panels * mr * kp), 0);
  out.k = k;
  out.kp = kp;
  out.span = m;
  out.panel = mr;
  std::vector<std::int16_t> qrow(static_cast<std::size_t>(k));
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    std::int16_t* panel = out.data.data() + ip * mr * kp;
    const std::int64_t row0 = ip * mr;
    const int rows = static_cast<int>(std::min<std::int64_t>(mr, m - row0));
    for (int r = 0; r < rows; ++r) {
      quantize_row_i16(a + (row0 + r) * lda, k, scale, qrow.data());
      for (std::int64_t kk = 0; kk < k; ++kk) {
        panel[(kk / 2) * (mr * 2) + r * 2 + (kk & 1)] =
            qrow[static_cast<std::size_t>(kk)];
      }
    }
  }
}

}  // namespace

// ------------------------------------------------------------- public api ----

I8Isa active_i8_isa() { return resolve(g_i8_isa); }

void set_i8_isa(I8Isa isa) {
  if (isa == I8Isa::kMadd) {
    PFI_CHECK(madd_supported()) << "set_i8_isa: AVX2 madd not supported here";
  }
  if (isa == I8Isa::kVnni) {
    PFI_CHECK(vnni_supported()) << "set_i8_isa: VNNI not supported here";
  }
  g_i8_isa = isa;
}

std::vector<float> per_row_scales_i8(std::int64_t m, std::int64_t k,
                                     const float* a, std::int64_t lda,
                                     bool trans_a) {
  PFI_CHECK(k > 0) << "per-channel INT8 calibration over an empty channel "
                      "(0 weights per output channel)";
  std::vector<float> scales(static_cast<std::size_t>(m));
  for (std::int64_t row = 0; row < m; ++row) {
    float absmax = 0.0f;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float v = trans_a ? a[kk * lda + row] : a[row * lda + kk];
      PFI_CHECK(std::isfinite(v))
          << "per-channel INT8 calibration: output channel " << row
          << " contains a non-finite weight (" << v
          << ") — a NaN/Inf weight has no INT8 code";
      const float av = std::fabs(v);
      if (av > absmax) absmax = av;
    }
    scales[static_cast<std::size_t>(row)] = scale_from_absmax(absmax);
  }
  return scales;
}

void quantize_pack_a_i8(std::int64_t m, std::int64_t k, const float* a,
                        std::int64_t lda, bool trans_a, int mr,
                        const float* row_scales, PackedPanelsI8& out) {
  out.scale.assign(row_scales, row_scales + m);
  pack_a_codes(m, k, a, lda, trans_a, mr,
               [&](std::int64_t row) { return row_scales[row]; }, out);
}

void quantize_pack_a_i8_static(std::int64_t m, std::int64_t k, const float* a,
                               std::int64_t lda, bool trans_a, int mr,
                               float scale, PackedPanelsI8& out) {
  out.scale.assign(1, scale);
  if (!trans_a) {
    pack_a_static_rows(m, k, a, lda, mr, scale, out);
    return;
  }
  pack_a_codes(m, k, a, lda, trans_a, mr,
               [&](std::int64_t) { return scale; }, out);
}

void quantize_pack_a_i8_tensor(std::int64_t m, std::int64_t k, const float* a,
                               std::int64_t lda, bool trans_a, int mr,
                               PackedPanelsI8& out) {
  // A contiguous untransposed operand is one flat buffer — the SIMD absmax
  // applies; max is order-invariant so the value matches the strided scan.
  const float absmax = !trans_a && lda == k
                           ? finite_absmax_i8(a, m * k)
                           : finite_absmax(m, k, a, lda, trans_a);
  quantize_pack_a_i8_static(m, k, a, lda, trans_a, mr,
                            scale_from_absmax(absmax), out);
}

void quantize_pack_b_i8(std::int64_t k, std::int64_t n, const float* b,
                        std::int64_t ldb, bool trans_b,
                        const float* col_scales, PackedPanelsI8& out) {
  out.scale.assign(col_scales, col_scales + n);
  pack_b_codes(k, n, b, ldb, trans_b,
               [&](std::int64_t col) { return col_scales[col]; }, out);
}

void quantize_pack_b_i8_static(std::int64_t k, std::int64_t n, const float* b,
                               std::int64_t ldb, bool trans_b, float scale,
                               PackedPanelsI8& out) {
  if (!trans_b) {
    pack_b_static_strided(k, n, b, ldb, scale, out);
    out.scale.assign(1, scale);
    return;
  }
  out.scale.assign(1, scale);
  pack_b_codes(k, n, b, ldb, trans_b,
               [&](std::int64_t) { return scale; }, out);
}

void quantize_pack_b_i8_tensor(std::int64_t k, std::int64_t n, const float* b,
                               std::int64_t ldb, bool trans_b,
                               PackedPanelsI8& out) {
  // The absmax walks the logical KxN matrix: a contiguous layout (either
  // orientation) collapses to one flat buffer for the SIMD reduction; the
  // strided transposed operand is NxK in memory.
  float absmax;
  if (!trans_b && ldb == n) {
    absmax = finite_absmax_i8(b, k * n);
  } else if (trans_b && ldb == k) {
    absmax = finite_absmax_i8(b, n * k);
  } else {
    absmax = trans_b ? finite_absmax(n, k, b, ldb, false)
                     : finite_absmax(k, n, b, ldb, false);
  }
  quantize_pack_b_i8_static(k, n, b, ldb, trans_b, scale_from_absmax(absmax),
                            out);
}

void quantize_pack_b_i8_stream(std::int64_t k, std::int64_t n, float scale,
                               const BTileFn& tile, PackedPanelsI8& out) {
  const std::int64_t kp = round_up_even(k);
  const std::int64_t panels = (n + kNR - 1) / kNR;
  out.data.resize(static_cast<std::size_t>(panels * kNR * kp));
  out.k = k;
  out.kp = kp;
  out.span = n;
  out.panel = kNR;
  out.scale.assign(1, scale);
  std::vector<float> buf(static_cast<std::size_t>(k * kNR));
  const bool simd = simd_quant_enabled();
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    std::int16_t* panel = out.data.data() + jp * kNR * kp;
    const std::int64_t col0 = jp * kNR;
    const int w = static_cast<int>(std::min<std::int64_t>(kNR, n - col0));
    tile(col0, w, buf.data());
#ifdef PFI_KERNELS_X86
    if (simd && w == kNR) {
      pack_b_panel16_avx2(k, kp, buf.data(), kNR, scale, panel);
      continue;
    }
#else
    (void)simd;
#endif
    pack_b_panel_scalar(k, kp, buf.data(), w, w, scale, panel);
  }
}

float finite_absmax_stream(std::int64_t k, std::int64_t n,
                           const BTileFn& tile) {
  std::vector<float> buf(static_cast<std::size_t>(k * kNR));
  float absmax = 0.0f;
  for (std::int64_t col0 = 0; col0 < n; col0 += kNR) {
    const int w = static_cast<int>(std::min<std::int64_t>(kNR, n - col0));
    tile(col0, w, buf.data());
    absmax = std::max(absmax, finite_absmax_i8(buf.data(), k * w));
  }
  return absmax;
}

void quantize_row_i16(const float* src, std::int64_t n, float scale,
                      std::int16_t* dst) {
#ifdef PFI_KERNELS_X86
  if (simd_quant_enabled()) {
    quantize_row_i16_avx2(src, n, scale, dst);
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) dst[i] = quantize_unit(src[i], scale);
}

void fake_quantize_row(float* p, std::int64_t n, float scale) {
#ifdef PFI_KERNELS_X86
  if (simd_quant_enabled()) {
    fake_quantize_row_avx2(p, n, scale);
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = dequantize_unit(quantize_unit(p[i], scale), scale);
  }
}

float finite_absmax_i8(const float* p, std::int64_t n) {
#ifdef PFI_KERNELS_X86
  if (simd_quant_enabled()) return finite_absmax_avx2(p, n);
#endif
  return finite_absmax(1, n, p, n, false);
}

void gemm_i8(std::int64_t m, std::int64_t n, std::int64_t k,
             const PackedPanelsI8& a, const PackedPanelsI8& b, std::int32_t* c,
             std::int64_t ldc) {
  detail::check_panel_height(a.panel, "gemm_i8");
  PFI_CHECK(b.panel == kNR) << "gemm_i8: B pack has panel " << b.panel;
  PFI_CHECK(a.k == k && b.k == k)
      << "gemm_i8: packs have K " << a.k << "/" << b.k << ", need " << k;
  PFI_CHECK(a.kp == b.kp) << "gemm_i8: pad mismatch " << a.kp << " vs "
                          << b.kp;
  PFI_CHECK(a.span >= m && b.span >= n)
      << "gemm_i8: packs cover " << a.span << "x" << b.span << ", need " << m
      << "x" << n;
  PFI_CHECK(k <= kMaxI8Depth)
      << "gemm_i8: K=" << k << " exceeds the exact-i32 depth bound "
      << kMaxI8Depth;
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (std::int64_t i = 0; i < m; ++i) {
      std::fill(c + i * ldc, c + i * ldc + n, 0);
    }
    return;
  }

  // The fp32 core's tile grid, walked the same way. Integer results do not
  // depend on it; it keeps the cache behaviour alike across dtypes.
  constexpr BlockConfig cfg = block_config();
  constexpr int mr = kMR;
  const std::int64_t kp2 = a.kp / 2;
  const MicroI8Fn micro = micro_i8_for(resolve(g_i8_isa));
  std::int32_t scratch[mr * kNR];
  for (std::int64_t i0 = 0; i0 < m; i0 += cfg.mc) {
    const std::int64_t i1 = std::min(m, i0 + cfg.mc);
    for (std::int64_t j0 = 0; j0 < n; j0 += cfg.nc) {
      const std::int64_t j1 = std::min(n, j0 + cfg.nc);
      for (std::int64_t j = j0; j < j1; j += kNR) {
        const int nv = static_cast<int>(std::min<std::int64_t>(kNR, n - j));
        const std::int16_t* bp = b.data.data() + (j / kNR) * (kNR * b.kp);
        for (std::int64_t i = i0; i < i1; i += mr) {
          const int mv = static_cast<int>(std::min<std::int64_t>(mr, m - i));
          const std::int16_t* ap = a.data.data() + (i / mr) * (mr * a.kp);
          if (mv == mr && nv == kNR) {
            micro(kp2, ap, bp, c + i * ldc + j, ldc);
            continue;
          }
          micro(kp2, ap, bp, scratch, kNR);
          for (int r = 0; r < mv; ++r) {
            std::memcpy(c + (i + r) * ldc + j, scratch + r * kNR,
                        sizeof(std::int32_t) * nv);
          }
        }
      }
    }
  }
}

void requantize_rows(std::int64_t m, std::int64_t n, const std::int32_t* acc,
                     std::int64_t ldacc, const float* row_scale, float b_scale,
                     const float* bias, float* out, std::int64_t ldout) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float s = row_scale[i] * b_scale;
    const float bi = bias != nullptr ? bias[i] : 0.0f;
    const std::int32_t* ai = acc + i * ldacc;
    float* oi = out + i * ldout;
    for (std::int64_t j = 0; j < n; ++j) {
      oi[j] = std::fma(s, static_cast<float>(ai[j]), bi);
    }
  }
}

void requantize_cols(std::int64_t m, std::int64_t n, const std::int32_t* acc,
                     std::int64_t ldacc, float a_scale, const float* col_scale,
                     const float* bias, float* out, std::int64_t ldout) {
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int32_t* ai = acc + i * ldacc;
    float* oi = out + i * ldout;
    for (std::int64_t j = 0; j < n; ++j) {
      const float bj = bias != nullptr ? bias[j] : 0.0f;
      oi[j] = std::fma(a_scale * col_scale[j], static_cast<float>(ai[j]), bj);
    }
  }
}

// ------------------------------------------------- grid requantize (fused) ----
//
// The scalar epilogue element: dequantize the i32 accumulator (single-
// rounding fma, like requantize_rows), snap onto the consumer's static grid
// with the shared quantizer, rectify on the CODE, and store the code's
// exact fp32 image. The AVX2 version is lane-identical: vcvtdq2ps and the
// final multiply are the same IEEE ops, vfmadd is the same single-rounding
// fma, and the quantizer core is quantize8_i32's (see above).

namespace {

inline float grid_unit(float v, float out_scale, bool relu) {
  int code = quantize_unit(v, out_scale);
  if (relu && code < 0) code = 0;
  return static_cast<float>(code) * out_scale;
}

#ifdef PFI_KERNELS_X86

/// 8 accumulators -> 8 grid-snapped outputs; vs/vb are the broadcast
/// multiplier and addend, vos the broadcast out_scale.
__attribute__((target("avx2,fma"))) inline __m256 grid8(__m256i acc, __m256 vs,
                                                        __m256 vb, __m256 vos,
                                                        bool relu) {
  const __m256 v = _mm256_fmadd_ps(vs, _mm256_cvtepi32_ps(acc), vb);
  const __m256 q = _mm256_round_ps(
      _mm256_div_ps(v, vos), _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  __m256 code = _mm256_min_ps(_mm256_max_ps(q, _mm256_set1_ps(-127.0f)),
                              _mm256_set1_ps(127.0f));
  // A value that rounds to 0 from below gives -0.0; adding +0 stores +0,
  // as the scalar path's integer code does.
  code = _mm256_add_ps(code, _mm256_setzero_ps());
  if (relu) code = _mm256_max_ps(code, _mm256_setzero_ps());
  return _mm256_mul_ps(code, vos);
}

__attribute__((target("avx2,fma"))) void requantize_rows_grid_avx2(
    std::int64_t m, std::int64_t n, const std::int32_t* acc,
    std::int64_t ldacc, const float* row_scale, float b_scale,
    const float* bias, float out_scale, bool relu, float* out,
    std::int64_t ldout) {
  const __m256 vos = _mm256_set1_ps(out_scale);
  for (std::int64_t i = 0; i < m; ++i) {
    const float s = row_scale[i] * b_scale;
    const float bi = bias != nullptr ? bias[i] : 0.0f;
    const __m256 vs = _mm256_set1_ps(s);
    const __m256 vb = _mm256_set1_ps(bi);
    const std::int32_t* ai = acc + i * ldacc;
    float* oi = out + i * ldout;
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ai + j));
      _mm256_storeu_ps(oi + j, grid8(a, vs, vb, vos, relu));
    }
    for (; j < n; ++j) {
      oi[j] = grid_unit(std::fma(s, static_cast<float>(ai[j]), bi), out_scale,
                        relu);
    }
  }
}

__attribute__((target("avx2,fma"))) void requantize_cols_grid_avx2(
    std::int64_t m, std::int64_t n, const std::int32_t* acc,
    std::int64_t ldacc, float a_scale, const float* col_scale,
    const float* bias, float out_scale, bool relu, float* out,
    std::int64_t ldout) {
  const __m256 vos = _mm256_set1_ps(out_scale);
  const __m256 vas = _mm256_set1_ps(a_scale);
  const __m256 zero = _mm256_setzero_ps();
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int32_t* ai = acc + i * ldacc;
    float* oi = out + i * ldout;
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 vs = _mm256_mul_ps(vas, _mm256_loadu_ps(col_scale + j));
      const __m256 vb = bias != nullptr ? _mm256_loadu_ps(bias + j) : zero;
      const __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ai + j));
      _mm256_storeu_ps(oi + j, grid8(a, vs, vb, vos, relu));
    }
    for (; j < n; ++j) {
      const float bj = bias != nullptr ? bias[j] : 0.0f;
      oi[j] = grid_unit(
          std::fma(a_scale * col_scale[j], static_cast<float>(ai[j]), bj),
          out_scale, relu);
    }
  }
}

#endif  // PFI_KERNELS_X86

/// Gate for the AVX2 grid epilogue: the quantize ISA switch plus an FMA
/// probe (vfmadd must match std::fma's single rounding).
bool grid_simd_enabled() {
#ifdef PFI_KERNELS_X86
  return active_i8_isa() != I8Isa::kScalar && fma_supported();
#else
  return false;
#endif
}

}  // namespace

void requantize_rows_grid(std::int64_t m, std::int64_t n,
                          const std::int32_t* acc, std::int64_t ldacc,
                          const float* row_scale, float b_scale,
                          const float* bias, float out_scale, bool relu,
                          float* out, std::int64_t ldout) {
#ifdef PFI_KERNELS_X86
  if (grid_simd_enabled()) {
    requantize_rows_grid_avx2(m, n, acc, ldacc, row_scale, b_scale, bias,
                              out_scale, relu, out, ldout);
    return;
  }
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    const float s = row_scale[i] * b_scale;
    const float bi = bias != nullptr ? bias[i] : 0.0f;
    const std::int32_t* ai = acc + i * ldacc;
    float* oi = out + i * ldout;
    for (std::int64_t j = 0; j < n; ++j) {
      oi[j] = grid_unit(std::fma(s, static_cast<float>(ai[j]), bi), out_scale,
                        relu);
    }
  }
}

void requantize_cols_grid(std::int64_t m, std::int64_t n,
                          const std::int32_t* acc, std::int64_t ldacc,
                          float a_scale, const float* col_scale,
                          const float* bias, float out_scale, bool relu,
                          float* out, std::int64_t ldout) {
#ifdef PFI_KERNELS_X86
  if (grid_simd_enabled()) {
    requantize_cols_grid_avx2(m, n, acc, ldacc, a_scale, col_scale, bias,
                              out_scale, relu, out, ldout);
    return;
  }
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int32_t* ai = acc + i * ldacc;
    float* oi = out + i * ldout;
    for (std::int64_t j = 0; j < n; ++j) {
      const float bj = bias != nullptr ? bias[j] : 0.0f;
      oi[j] = grid_unit(
          std::fma(a_scale * col_scale[j], static_cast<float>(ai[j]), bj),
          out_scale, relu);
    }
  }
}

// ------------------------------------------------------- 16-bit rounding ----

void round16(const float* src, std::int64_t n, Storage16 fmt, float* dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = widen16(narrow16(src[i], fmt), fmt);
  }
}

// --------------------------------------------------------- the pack cache ----

namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;  // FNV-1a-64
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold the scale vector into the weight digest: a pack quantized under
/// different (e.g. frozen-golden vs freshly computed) scales must not be
/// served for the other.
std::uint64_t digest_with_scales(const float* w, std::int64_t wn,
                                 const float* scales, std::int64_t sn) {
  return pack_digest(w, wn) * kFnvPrime ^ pack_digest(scales, sn);
}

}  // namespace

std::uint64_t pack_digest(const float* p, std::int64_t n) {
  // The lanes are independent chains: the compiler vectorizes the step
  // across them, so the xor-multiplies of 32 elements overlap instead of
  // each waiting on the one before, as in kernels::fingerprint.
  constexpr int kLanes = 32;
  std::uint64_t lane[kLanes];
  for (auto& h : lane) h = kFnvBasis;
  const auto step = [&](int l, std::int64_t i) {
    std::uint32_t bits;
    std::memcpy(&bits, p + i, sizeof(bits));
    lane[l] = (lane[l] ^ bits) * kFnvPrime;
  };
  const std::int64_t body = n - n % kLanes;
  for (std::int64_t i = 0; i < body; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) step(l, i + l);
  }
  for (std::int64_t i = body; i < n; ++i) step(static_cast<int>(i - body), i);
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t v : lane) h = (h ^ v) * kFnvPrime;
  return (h ^ static_cast<std::uint64_t>(n)) * kFnvPrime;
}

const PackedPanels& WeightPackCache::packed_a(std::int64_t m, std::int64_t k,
                                              const float* w,
                                              std::int64_t lda, bool trans_a,
                                              std::optional<Storage16> round) {
  PFI_CHECK((trans_a ? lda == m : lda == k))
      << "WeightPackCache::packed_a needs a contiguous weight matrix";
  const Key key{pack_digest(w, m * k), m, k, kMR, round};
  if (f32_key_ != key) {
    pack_a(m, k, w, lda, trans_a, key.panel, f32_);
    if (round) {
      round16(f32_.data.data(), static_cast<std::int64_t>(f32_.data.size()),
              *round, f32_.data.data());
    }
    f32_key_ = key;
  }
  return f32_;
}

const PackedPanels& WeightPackCache::packed_b(std::int64_t k, std::int64_t n,
                                              const float* w,
                                              std::int64_t ldb, bool trans_b,
                                              std::optional<Storage16> round) {
  PFI_CHECK((trans_b ? ldb == k : ldb == n))
      << "WeightPackCache::packed_b needs a contiguous weight matrix";
  const Key key{pack_digest(w, n * k), n, k, kNR, round};
  if (f32_key_ != key) {
    pack_b(k, n, w, ldb, trans_b, f32_);
    if (round) {
      round16(f32_.data.data(), static_cast<std::int64_t>(f32_.data.size()),
              *round, f32_.data.data());
    }
    f32_key_ = key;
  }
  return f32_;
}

const PackedPanelsI8& WeightPackCache::packed_a_i8(
    std::int64_t m, std::int64_t k, const float* w, std::int64_t lda,
    bool trans_a, const float* row_scales) {
  PFI_CHECK((trans_a ? lda == m : lda == k))
      << "WeightPackCache::packed_a_i8 needs a contiguous weight matrix";
  const Key key{digest_with_scales(w, m * k, row_scales, m), m, k, kMR,
                std::nullopt};
  if (i8_key_ != key) {
    quantize_pack_a_i8(m, k, w, lda, trans_a, key.panel, row_scales, i8_);
    i8_key_ = key;
  }
  return i8_;
}

const PackedPanelsI8& WeightPackCache::packed_b_i8(
    std::int64_t k, std::int64_t n, const float* w, std::int64_t ldb,
    bool trans_b, const float* col_scales) {
  PFI_CHECK((trans_b ? ldb == k : ldb == n))
      << "WeightPackCache::packed_b_i8 needs a contiguous weight matrix";
  const Key key{digest_with_scales(w, n * k, col_scales, n), n, k, kNR,
                std::nullopt};
  if (i8_key_ != key) {
    quantize_pack_b_i8(k, n, w, ldb, trans_b, col_scales, i8_);
    i8_key_ = key;
  }
  return i8_;
}

}  // namespace pfi::kernels
