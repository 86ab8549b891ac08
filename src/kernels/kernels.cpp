#include "kernels/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PFI_KERNELS_X86 1
#endif

namespace pfi::kernels {

namespace {

constexpr int kMR = block_config().mr;

// ---------------------------------------------------------- microkernels ----

// All microkernels advance the per-element chain acc = fma(a, b, acc) over
// one k panel in ascending k, reading and writing the mr x kNR output tile
// in place (row stride ldc — either C itself for full tiles or a contiguous
// scratch tile for edges). std::fma and vfmadd are both the correctly
// rounded fused operation, so the scalar and AVX2 paths produce identical
// bits — dispatch is a speed choice, never a numerics choice.

// `bs` is the B row stride: kNR when B is packed into panels, the raw ldb
// when the kernel streams a row-major B in place (trans_b == false needs no
// packing — 16 consecutive columns of a row are already contiguous).

void micro_scalar(std::int64_t kc, const float* __restrict ap,
                  const float* __restrict bp, std::int64_t bs,
                  float* __restrict c, std::int64_t ldc) {
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* a = ap + k * kMR;
    const float* b = bp + k * bs;
    for (int r = 0; r < kMR; ++r) {
      const float av = a[r];
      float* cr = c + r * ldc;
      for (int cc = 0; cc < kNR; ++cc) cr[cc] = std::fma(av, b[cc], cr[cc]);
    }
  }
}

#ifdef PFI_KERNELS_X86

// 6x16: 12 accumulators + 2 B vectors + 1 broadcast = 15 ymm registers;
// per k step: 2 B loads + 6 broadcasts vs 12 FMAs keeps both FMA ports fed.
static_assert(kMR == 6, "micro_avx2_6 is unrolled for 6-row panels");
__attribute__((target("avx2,fma"))) void micro_avx2_6(std::int64_t kc,
                                                      const float* ap,
                                                      const float* bp,
                                                      std::int64_t bs,
                                                      float* c,
                                                      std::int64_t ldc) {
  __m256 c00 = _mm256_loadu_ps(c + 0 * ldc), c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
  __m256 c10 = _mm256_loadu_ps(c + 1 * ldc), c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
  __m256 c20 = _mm256_loadu_ps(c + 2 * ldc), c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
  __m256 c30 = _mm256_loadu_ps(c + 3 * ldc), c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  __m256 c40 = _mm256_loadu_ps(c + 4 * ldc), c41 = _mm256_loadu_ps(c + 4 * ldc + 8);
  __m256 c50 = _mm256_loadu_ps(c + 5 * ldc), c51 = _mm256_loadu_ps(c + 5 * ldc + 8);
  for (std::int64_t k = 0; k < kc; ++k) {
    const __m256 b0 = _mm256_loadu_ps(bp + k * bs);
    const __m256 b1 = _mm256_loadu_ps(bp + k * bs + 8);
    const float* a = ap + k * 6;
    __m256 av;
    av = _mm256_broadcast_ss(a + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00); c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10); c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20); c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30); c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(a + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40); c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(a + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50); c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  _mm256_storeu_ps(c + 0 * ldc, c00); _mm256_storeu_ps(c + 0 * ldc + 8, c01);
  _mm256_storeu_ps(c + 1 * ldc, c10); _mm256_storeu_ps(c + 1 * ldc + 8, c11);
  _mm256_storeu_ps(c + 2 * ldc, c20); _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  _mm256_storeu_ps(c + 3 * ldc, c30); _mm256_storeu_ps(c + 3 * ldc + 8, c31);
  _mm256_storeu_ps(c + 4 * ldc, c40); _mm256_storeu_ps(c + 4 * ldc + 8, c41);
  _mm256_storeu_ps(c + 5 * ldc, c50); _mm256_storeu_ps(c + 5 * ldc + 8, c51);
}

#endif  // PFI_KERNELS_X86

using MicroFn = void (*)(std::int64_t, const float*, const float*,
                         std::int64_t, float*, std::int64_t);

MicroFn micro_kernel() {
#ifdef PFI_KERNELS_X86
  if (simd_available()) return micro_avx2_6;
#endif
  return micro_scalar;
}

// -------------------------------------------------------------- compute ----

/// B operand of the blocked core: either pre-packed kNR panels or a raw
/// row-major KxN matrix the microkernel streams in place (no packing pass —
/// the layouts coincide for full-width column tiles).
struct BView {
  const float* packed = nullptr;  ///< panel data (panel stride kNR * k)
  std::int64_t k = 0;             ///< panel depth of the packed form
  const float* raw = nullptr;     ///< row-major KxN, read in place
  std::int64_t ldb = 0;
};

thread_local std::vector<float> tls_edge_b;

/// One macro tile: rows [i0, i1) x cols [j0, j1) of C, full K sweep. The
/// k loop is outermost within the tile so each element's chain is flushed to
/// C between k panels — fp32 stores are exact, so the chain (and thus every
/// bit of C) is independent of kc and the tile bounds.
void compute_tile(std::int64_t m, std::int64_t n, std::int64_t k,
                  const PackedPanels& a, const BView& b, float* c,
                  std::int64_t ldc, Epilogue epilogue, const float* bias,
                  std::int64_t i0, std::int64_t i1, std::int64_t j0,
                  std::int64_t j1, MicroFn micro) {
  constexpr std::int64_t kc = block_config().kc;
  constexpr int mr = kMR;
  float acc[mr * kNR];
  for (std::int64_t kb = 0; kb < k; kb += kc) {
    const std::int64_t klen = std::min(kc, k - kb);
    const bool first = kb == 0;
    for (std::int64_t j = j0; j < j1; j += kNR) {
      const int nv = static_cast<int>(std::min<std::int64_t>(kNR, n - j));
      const float* bp;
      std::int64_t bs;
      if (b.packed != nullptr) {
        bp = b.packed + (j / kNR) * (kNR * b.k) + kb * kNR;
        bs = kNR;
      } else if (nv == kNR) {
        bp = b.raw + kb * b.ldb + j;  // stream B in place
        bs = b.ldb;
      } else {
        // Right-edge tile of a raw B: gather the nv live columns into a
        // zero-padded panel so the microkernel never reads past row ends.
        tls_edge_b.resize(static_cast<std::size_t>(klen * kNR));
        for (std::int64_t kk = 0; kk < klen; ++kk) {
          const float* src = b.raw + (kb + kk) * b.ldb + j;
          float* dstrow = tls_edge_b.data() + kk * kNR;
          std::memcpy(dstrow, src, sizeof(float) * nv);
          std::fill(dstrow + nv, dstrow + kNR, 0.0f);
        }
        bp = tls_edge_b.data();
        bs = kNR;
      }
      for (std::int64_t i = i0; i < i1; i += mr) {
        const int mv = static_cast<int>(std::min<std::int64_t>(mr, m - i));
        const float* ap = a.data.data() + (i / mr) * (mr * a.k) + kb * mr;
        if (mv == mr && nv == kNR) {
          // Full tile: the microkernel reads and writes C in place; only
          // the first k panel needs its epilogue init written out.
          float* ct = c + i * ldc + j;
          if (first) {
            switch (epilogue) {
              case Epilogue::kAccumulate:
                break;
              case Epilogue::kZero:
              case Epilogue::kReluZero:  // callers pass the base; same init
                for (int r = 0; r < mr; ++r) {
                  std::fill(ct + r * ldc, ct + r * ldc + kNR, 0.0f);
                }
                break;
              case Epilogue::kBiasRow:
              case Epilogue::kReluBiasRow:
                for (int r = 0; r < mr; ++r) {
                  std::fill(ct + r * ldc, ct + r * ldc + kNR, bias[i + r]);
                }
                break;
              case Epilogue::kBiasCol:
                for (int r = 0; r < mr; ++r) {
                  std::copy(bias + j, bias + j + kNR, ct + r * ldc);
                }
                break;
            }
          }
          micro(klen, ap, bp, bs, ct, ldc);
          continue;
        }
        // Edge tile: run in a zero-padded scratch tile, copy the valid
        // region back. Same chains, so same bits as the full-tile path.
        if (first && epilogue == Epilogue::kZero) {
          std::fill(acc, acc + mr * kNR, 0.0f);
        } else if (first && epilogue == Epilogue::kBiasRow) {
          for (int r = 0; r < mr; ++r) {
            const float v = r < mv ? bias[i + r] : 0.0f;
            for (int cc = 0; cc < kNR; ++cc) acc[r * kNR + cc] = v;
          }
        } else if (first && epilogue == Epilogue::kBiasCol) {
          for (int cc = 0; cc < kNR; ++cc) {
            const float v = cc < nv ? bias[j + cc] : 0.0f;
            for (int r = 0; r < mr; ++r) acc[r * kNR + cc] = v;
          }
        } else {  // resume the chain from C (or kAccumulate's initial C)
          for (int r = 0; r < mr; ++r) {
            for (int cc = 0; cc < kNR; ++cc) {
              acc[r * kNR + cc] =
                  (r < mv && cc < nv) ? c[(i + r) * ldc + j + cc] : 0.0f;
            }
          }
        }
        micro(klen, ap, bp, bs, acc, kNR);
        for (int r = 0; r < mv; ++r) {
          for (int cc = 0; cc < nv; ++cc) {
            c[(i + r) * ldc + j + cc] = acc[r * kNR + cc];
          }
        }
      }
    }
  }
}

/// Epilogue-only path for K == 0 (and the init half of naive_gemm).
void apply_epilogue_init(std::int64_t m, std::int64_t n, float* c,
                         std::int64_t ldc, Epilogue epilogue,
                         const float* bias) {
  switch (epilogue) {
    case Epilogue::kAccumulate:
      return;
    case Epilogue::kZero:
    case Epilogue::kReluZero:  // callers split off relu; same init
      for (std::int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
      }
      return;
    case Epilogue::kBiasRow:
    case Epilogue::kReluBiasRow:
      for (std::int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, bias[i]);
      }
      return;
    case Epilogue::kBiasCol:
      for (std::int64_t i = 0; i < m; ++i) {
        std::copy(bias, bias + n, c + i * ldc);
      }
      return;
  }
}

thread_local PackedPanels tls_pack_a;
thread_local PackedPanels tls_pack_b;

}  // namespace

// ----------------------------------------------------------- public api ----

bool simd_available() {
#ifdef PFI_KERNELS_X86
  static const bool available =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return available;
#else
  return false;
#endif
}

void pack_a(std::int64_t m, std::int64_t k, const float* a, std::int64_t lda,
            bool trans_a, int mr, PackedPanels& out) {
  detail::check_panel_height(mr, "pack_a");
  const std::int64_t panels = (m + mr - 1) / mr;
  // Every element is written below (padding lanes explicitly), so a plain
  // resize avoids re-zeroing the reused thread-local scratch each call.
  out.data.resize(static_cast<std::size_t>(panels * mr * k));
  out.k = k;
  out.span = m;
  out.panel = mr;
  float* dst = out.data.data();
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    float* panel = dst + ip * mr * k;
    const std::int64_t row0 = ip * mr;
    const int rows = static_cast<int>(std::min<std::int64_t>(mr, m - row0));
    if (trans_a) {
      // A is KxM: a panel row is mr contiguous floats per k.
      const float* src = a + row0;
      if (rows == mr) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          std::memcpy(panel + kk * mr, src + kk * lda, sizeof(float) * mr);
        }
      } else {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          std::memcpy(panel + kk * mr, src + kk * lda, sizeof(float) * rows);
          std::fill(panel + kk * mr + rows, panel + (kk + 1) * mr, 0.0f);
        }
      }
    } else {
      // A is MxK: interleave one contiguous source row per panel lane.
      for (int r = 0; r < rows; ++r) {
        const float* src = a + (row0 + r) * lda;
        for (std::int64_t kk = 0; kk < k; ++kk) panel[kk * mr + r] = src[kk];
      }
      for (int r = rows; r < mr; ++r) {
        for (std::int64_t kk = 0; kk < k; ++kk) panel[kk * mr + r] = 0.0f;
      }
    }
  }
}

void pack_b(std::int64_t k, std::int64_t n, const float* b, std::int64_t ldb,
            bool trans_b, PackedPanels& out) {
  const std::int64_t panels = (n + kNR - 1) / kNR;
  out.data.resize(static_cast<std::size_t>(panels * kNR * k));
  out.k = k;
  out.span = n;
  out.panel = kNR;
  float* dst = out.data.data();
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    float* panel = dst + jp * kNR * k;
    const std::int64_t col0 = jp * kNR;
    const int cols = static_cast<int>(std::min<std::int64_t>(kNR, n - col0));
    if (!trans_b) {
      // B is KxN: a panel row is kNR contiguous floats per k.
      const float* src = b + col0;
      if (cols == kNR) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          std::memcpy(panel + kk * kNR, src + kk * ldb, sizeof(float) * kNR);
        }
      } else {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          std::memcpy(panel + kk * kNR, src + kk * ldb, sizeof(float) * cols);
          std::fill(panel + kk * kNR + cols, panel + (kk + 1) * kNR, 0.0f);
        }
      }
    } else {
      // B is NxK: interleave one contiguous source row per panel lane.
      for (int c = 0; c < cols; ++c) {
        const float* src = b + (col0 + c) * ldb;
        for (std::int64_t kk = 0; kk < k; ++kk) panel[kk * kNR + c] = src[kk];
      }
      for (int c = cols; c < kNR; ++c) {
        for (std::int64_t kk = 0; kk < k; ++kk) panel[kk * kNR + c] = 0.0f;
      }
    }
  }
}

namespace {

/// relu(v) with nn::ReLU's exact semantics: negatives, -0.0, and NaN all
/// map to +0.0. The fused epilogues must match the unfused conv + ReLU
/// composition bit for bit.
float relu_unit(float v) { return v > 0.0f ? v : 0.0f; }

/// Split a (possibly relu-fused) epilogue into its accumulation base and
/// the rectification flag. compute_tile and apply_epilogue_init only ever
/// see base epilogues.
Epilogue epilogue_base(Epilogue e, bool* relu) {
  switch (e) {
    case Epilogue::kReluZero:
      *relu = true;
      return Epilogue::kZero;
    case Epilogue::kReluBiasRow:
      *relu = true;
      return Epilogue::kBiasRow;
    default:
      *relu = false;
      return e;
  }
}

void gemm_core(std::int64_t m, std::int64_t n, std::int64_t k,
               const PackedPanels& a, const BView& bv, float* c,
               std::int64_t ldc, Epilogue epilogue, const float* bias) {
  detail::check_panel_height(a.panel, "blocked gemm");
  PFI_CHECK(a.k == k) << "blocked gemm: A pack has K " << a.k << ", need "
                      << k;
  PFI_CHECK(a.span >= m)
      << "blocked gemm: A pack covers " << a.span << " rows, need " << m;
  PFI_CHECK((epilogue != Epilogue::kBiasRow && epilogue != Epilogue::kBiasCol &&
             epilogue != Epilogue::kReluBiasRow) ||
            bias != nullptr)
      << "blocked gemm: bias epilogue without a bias vector";
  if (m == 0 || n == 0) return;
  bool relu = false;
  const Epilogue base = epilogue_base(epilogue, &relu);
  if (k == 0) {
    apply_epilogue_init(m, n, c, ldc, base, bias);
    if (relu) {
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          c[i * ldc + j] = relu_unit(c[i * ldc + j]);
        }
      }
    }
    return;
  }

  // Row-major over the macro tiles, on the calling thread.
  constexpr BlockConfig cfg = block_config();
  const MicroFn micro = micro_kernel();
  for (std::int64_t i0 = 0; i0 < m; i0 += cfg.mc) {
    const std::int64_t i1 = std::min(m, i0 + cfg.mc);
    for (std::int64_t j0 = 0; j0 < n; j0 += cfg.nc) {
      const std::int64_t j1 = std::min(n, j0 + cfg.nc);
      compute_tile(m, n, k, a, bv, c, ldc, base, bias, i0, i1, j0, j1, micro);
      if (relu) {
        // The tile's chains are complete, and its elements are still in
        // cache.
        for (std::int64_t i = i0; i < i1; ++i) {
          float* ci = c + i * ldc;
          for (std::int64_t j = j0; j < j1; ++j) ci[j] = relu_unit(ci[j]);
        }
      }
    }
  }
}

BView packed_view(const PackedPanels& b) {
  PFI_CHECK(b.panel == kNR) << "blocked gemm: B pack has panel " << b.panel;
  return BView{.packed = b.data.data(), .k = b.k};
}

/// Raw B view: a non-transposed row-major B is streamed in place; a
/// transposed one is packed into thread-local scratch first.
BView raw_b_view(std::int64_t k, std::int64_t n, const float* b,
                 std::int64_t ldb, bool trans_b) {
  if (!trans_b) return BView{.raw = b, .ldb = ldb};
  pack_b(k, n, b, ldb, trans_b, tls_pack_b);
  return packed_view(tls_pack_b);
}

}  // namespace

void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                 const PackedPanels& a, const PackedPanels& b, float* c,
                 std::int64_t ldc, Epilogue epilogue, const float* bias) {
  PFI_CHECK(b.k == k && b.span >= n)
      << "gemm_packed: B pack covers " << b.span << " cols at K " << b.k
      << ", need " << n << " at " << k;
  gemm_core(m, n, k, a, packed_view(b), c, ldc, epilogue, bias);
}

void gemm_prepacked_a(std::int64_t m, std::int64_t n, std::int64_t k,
                      const PackedPanels& a, const float* b, std::int64_t ldb,
                      bool trans_b, float* c, std::int64_t ldc,
                      Epilogue epilogue, const float* bias) {
  gemm_core(m, n, k, a, raw_b_view(k, n, b, ldb, trans_b), c, ldc, epilogue,
            bias);
}

void gemm_prepacked_b(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* a, std::int64_t lda, bool trans_a,
                      const PackedPanels& b, float* c, std::int64_t ldc,
                      Epilogue epilogue, const float* bias) {
  pack_a(m, k, a, lda, trans_a, kMR, tls_pack_a);
  gemm_packed(m, n, k, tls_pack_a, b, c, ldc, epilogue, bias);
}

void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, std::int64_t lda, bool trans_a,
                  const float* b, std::int64_t ldb, bool trans_b, float* c,
                  std::int64_t ldc, Epilogue epilogue, const float* bias) {
  pack_a(m, k, a, lda, trans_a, kMR, tls_pack_a);
  gemm_core(m, n, k, tls_pack_a, raw_b_view(k, n, b, ldb, trans_b), c, ldc,
            epilogue, bias);
}

void naive_gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                std::int64_t lda, bool trans_a, const float* b,
                std::int64_t ldb, bool trans_b, float* c, std::int64_t ldc,
                Epilogue epilogue, const float* bias) {
  PFI_CHECK((epilogue != Epilogue::kBiasRow && epilogue != Epilogue::kBiasCol &&
             epilogue != Epilogue::kReluBiasRow) ||
            bias != nullptr)
      << "naive_gemm: bias epilogue without a bias vector";
  bool relu = false;
  const Epilogue base = epilogue_base(epilogue, &relu);
  apply_epilogue_init(m, n, c, ldc, base, bias);
  // ikj with unit stride on C; every operand participates (no zero-skip),
  // so injected Inf/NaN propagate exactly as IEEE arithmetic dictates.
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = trans_a ? a[kk * lda + i] : a[i * lda + kk];
      if (trans_b) {
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * b[j * ldb + kk];
      } else {
        const float* brow = b + kk * ldb;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
    if (relu) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] = relu_unit(crow[j]);
    }
  }
}

std::uint64_t fingerprint(const float* p, std::int64_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::int64_t i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, p + i, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

}  // namespace pfi::kernels
