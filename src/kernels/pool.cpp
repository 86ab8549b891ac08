// Max pooling: the scalar reference loop for every geometry, and an AVX2
// path for kernel 2 / stride 2 / padding 0 (kernels.hpp states the
// selection rule both implement).
#include <algorithm>
#include <cmath>

#include "kernels/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PFI_KERNELS_X86 1
#endif

namespace pfi::kernels {

namespace {

bool avx2_supported() {
#ifdef PFI_KERNELS_X86
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#else
  return false;
#endif
}

/// Reference path: outputs [ow_begin, ow_end) of output row oh of one plane.
/// Each window is clipped to the plane once, then scanned row-major.
void pool_row_scalar(const PoolShape& s, const float* plane, std::int64_t oh,
                     std::int64_t ow_begin, std::int64_t ow_end, float* out,
                     std::uint8_t* offset) {
  // Copied out of `s`: the byte stores below may alias it, which would
  // make the compiler reload the geometry after every output.
  const std::int64_t k = s.kernel, stride = s.stride, w = s.w;
  const std::int64_t ih0 = oh * stride - s.padding;
  const std::int64_t kh_lo = std::max<std::int64_t>(0, -ih0);
  const std::int64_t kh_hi = std::min(k, s.h - ih0);
  for (std::int64_t ow = ow_begin; ow < ow_end; ++ow) {
    const std::int64_t iw0 = ow * stride - s.padding;
    const std::int64_t kw_lo = std::max<std::int64_t>(0, -iw0);
    const std::int64_t kw_hi = std::min(k, w - iw0);
    std::int64_t best_off = kh_lo * k + kw_lo;
    float best = plane[(ih0 + kh_lo) * w + iw0 + kw_lo];
    for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
      for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
        const float v = plane[(ih0 + kh) * w + iw0 + kw];
        const bool wins = v > best || std::isnan(v);
        best = wins ? v : best;
        best_off = wins ? kh * k + kw : best_off;
      }
    }
    out[ow] = best;
    offset[ow] = static_cast<std::uint8_t>(best_off);
  }
}

#ifdef PFI_KERNELS_X86

/// One window position for 8 outputs: where c > best or c is NaN, c (bits
/// unchanged) and its offset replace the current pick.
__attribute__((target("avx2"))) inline void take(__m256 c, __m256 c_off,
                                                 __m256& best, __m256& off) {
  const __m256 wins = _mm256_or_ps(_mm256_cmp_ps(c, best, _CMP_GT_OQ),
                                   _mm256_cmp_ps(c, c, _CMP_UNORD_Q));
  best = _mm256_blendv_ps(best, c, wins);
  off = _mm256_blendv_ps(off, c_off, wins);
}

/// Outputs [0, 8 * groups) of a 2x2 stride-2 output row whose windows span
/// input rows r0 and r1. Offsets ride in int32 lanes through the float
/// blends and are narrowed to bytes on the way out.
__attribute__((target("avx2"))) void pool_row_2x2_avx2(
    const float* r0, const float* r1, std::int64_t groups, float* out,
    std::uint8_t* offset) {
  const __m256 off1 = _mm256_castsi256_ps(_mm256_set1_epi32(1));
  const __m256 off2 = _mm256_castsi256_ps(_mm256_set1_epi32(2));
  const __m256 off3 = _mm256_castsi256_ps(_mm256_set1_epi32(3));
  for (std::int64_t g = 0; g < groups; ++g) {
    const __m256 a0 = _mm256_loadu_ps(r0 + 16 * g);
    const __m256 a1 = _mm256_loadu_ps(r0 + 16 * g + 8);
    const __m256 b0 = _mm256_loadu_ps(r1 + 16 * g);
    const __m256 b1 = _mm256_loadu_ps(r1 + 16 * g + 8);
    // Even / odd columns of each row in window order (0,0) (0,1) (1,0)
    // (1,1). The in-lane shuffle leaves the outputs in lane order
    // 0 1 4 5 2 3 6 7; one 64-bit permute per result restores it.
    __m256 best = _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(2, 0, 2, 0));
    __m256 off = _mm256_setzero_ps();
    take(_mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(3, 1, 3, 1)), off1, best, off);
    take(_mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0)), off2, best, off);
    take(_mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1)), off3, best, off);
    const __m256i best_ordered = _mm256_permute4x64_epi64(
        _mm256_castps_si256(best), _MM_SHUFFLE(3, 1, 2, 0));
    const __m256i off_ordered = _mm256_permute4x64_epi64(
        _mm256_castps_si256(off), _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * g),
                        best_ordered);
    const __m128i off16 =
        _mm_packs_epi32(_mm256_castsi256_si128(off_ordered),
                        _mm256_extracti128_si256(off_ordered, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(offset + 8 * g),
                     _mm_packus_epi16(off16, off16));
  }
}

#endif  // PFI_KERNELS_X86

}  // namespace

void max_pool2d(const PoolShape& s, const float* in, float* out,
                std::uint8_t* offset) {
  PFI_CHECK(s.planes >= 0 && s.h >= 1 && s.w >= 1 && s.kernel >= 1 &&
            s.kernel <= 16 && s.stride >= 1 && s.padding >= 0 &&
            s.padding <= s.kernel / 2 && s.out_h() > 0 && s.out_w() > 0)
      << "max_pool2d geometry planes=" << s.planes << " h=" << s.h
      << " w=" << s.w << " kernel=" << s.kernel << " stride=" << s.stride
      << " padding=" << s.padding
      << " (needs h, w >= 1, kernel in [1, 16], stride >= 1, "
         "0 <= padding <= kernel / 2 and a non-empty output)";
  const std::int64_t ho = s.out_h(), wo = s.out_w();
  // h >= 2 keeps every window's second row inside the plane (h == 1 still
  // yields one output row, whose windows the reference clips).
  const bool simd = s.kernel == 2 && s.stride == 2 && s.padding == 0 &&
                    s.h >= 2 && avx2_supported();
  const std::int64_t groups = simd ? wo / 8 : 0;
  for (std::int64_t p = 0; p < s.planes; ++p) {
    const float* plane = in + p * s.h * s.w;
    for (std::int64_t oh = 0; oh < ho; ++oh, out += wo, offset += wo) {
#ifdef PFI_KERNELS_X86
      if (groups > 0) {
        pool_row_2x2_avx2(plane + 2 * oh * s.w, plane + (2 * oh + 1) * s.w,
                          groups, out, offset);
      }
#endif
      pool_row_scalar(s, plane, oh, 8 * groups, wo, out, offset);
    }
  }
}

}  // namespace pfi::kernels
