#include "kernels/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>

#include "util/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PFI_KERNELS_X86 1
#endif

namespace pfi::kernels {

namespace {

// ---------------------------------------------------------------- config ----

Impl read_impl_env() {
  const char* env = std::getenv("PFI_KERNEL");
  if (env == nullptr || *env == '\0') return Impl::kBlocked;
  const std::string v(env);
  if (v == "naive") return Impl::kNaive;
  if (v == "blocked") return Impl::kBlocked;
  PFI_CHECK(false) << "PFI_KERNEL must be 'naive' or 'blocked', got '" << v
                   << "'";
  return Impl::kBlocked;
}

int read_threads_env() {
  const char* env = std::getenv("PFI_KERNEL_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const int n = std::atoi(env);
  PFI_CHECK(n >= 1) << "PFI_KERNEL_THREADS must be >= 1, got '" << env << "'";
  return n;
}

std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return ((v + to - 1) / to) * to;
}

BlockConfig normalize(BlockConfig cfg) {
  PFI_CHECK(cfg.mr == 4 || cfg.mr == 6 || cfg.mr == 8)
      << "BlockConfig.mr must be 4, 6, or 8, got " << cfg.mr;
  PFI_CHECK(cfg.mc >= 1 && cfg.nc >= 1 && cfg.kc >= 1)
      << "BlockConfig sizes must be positive: mc=" << cfg.mc
      << " nc=" << cfg.nc << " kc=" << cfg.kc;
  cfg.mc = round_up(cfg.mc, cfg.mr);
  cfg.nc = round_up(cfg.nc, kNR);
  return cfg;
}

Impl g_impl = read_impl_env();
int g_threads = read_threads_env();
BlockConfig g_block = normalize(BlockConfig{});

// Intra-op pool, sized lazily to the current threads() setting. Resizing
// happens only from single-threaded control flow (tests, main), never while
// a parallel gemm is in flight.
std::unique_ptr<util::ThreadPool> g_pool;
std::mutex g_pool_mutex;

// Set while executing a tile on the intra-op pool: a nested gemm (e.g. a
// module calling matmul from inside a parallel region) runs serially instead
// of deadlocking on its own pool.
thread_local bool tls_in_kernel = false;

util::ThreadPool& intra_op_pool(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool == nullptr || g_pool->size() != n) {
    g_pool = std::make_unique<util::ThreadPool>(n);
  }
  return *g_pool;
}

// ---------------------------------------------------------- microkernels ----

// All microkernels advance the per-element chain acc = fma(a, b, acc) over
// one k panel in ascending k, reading and writing the mr x kNR output tile
// in place (row stride ldc — either C itself for full tiles or a contiguous
// scratch tile for edges). std::fma and vfmadd are both the correctly
// rounded fused operation, so the scalar and AVX2 paths produce identical
// bits — dispatch is a speed choice, never a numerics choice. Likewise the
// 8-row AVX2 kernel runs as two 4-row halves over the same k panel: rows
// are independent chains, so the split never changes bits.

// `bs` is the B row stride: kNR when B is packed into panels, the raw ldb
// when the kernel streams a row-major B in place (trans_b == false needs no
// packing — 16 consecutive columns of a row are already contiguous).

template <int MR>
void micro_scalar(std::int64_t kc, const float* __restrict ap,
                  const float* __restrict bp, std::int64_t bs,
                  float* __restrict c, std::int64_t ldc) {
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* a = ap + k * MR;
    const float* b = bp + k * bs;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r];
      float* cr = c + r * ldc;
      for (int cc = 0; cc < kNR; ++cc) cr[cc] = std::fma(av, b[cc], cr[cc]);
    }
  }
}

#ifdef PFI_KERNELS_X86

// 6x16: 12 accumulators + 2 B vectors + 1 broadcast = 15 ymm registers;
// per k step: 2 B loads + 6 broadcasts vs 12 FMAs keeps both FMA ports fed.
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

/// Four rows of a kNR-wide tile; `astride` is the A-panel row count (4 when
/// the panel is 4 tall, 8 when this is one half of the 8-row kernel).
__attribute__((target("avx2,fma"))) inline void micro_avx2_half4(
    std::int64_t kc, const float* ap, int astride, const float* bp,
    std::int64_t bs, float* c, std::int64_t ldc) {
  __m256 c00 = _mm256_loadu_ps(c + 0 * ldc), c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
  __m256 c10 = _mm256_loadu_ps(c + 1 * ldc), c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
  __m256 c20 = _mm256_loadu_ps(c + 2 * ldc), c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
  __m256 c30 = _mm256_loadu_ps(c + 3 * ldc), c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  for (std::int64_t k = 0; k < kc; ++k) {
    const __m256 b0 = _mm256_loadu_ps(bp + k * bs);
    const __m256 b1 = _mm256_loadu_ps(bp + k * bs + 8);
    const float* a = ap + k * astride;
    __m256 av;
    av = _mm256_broadcast_ss(a + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00); c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10); c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20); c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30); c31 = _mm256_fmadd_ps(av, b1, c31);
  }
  _mm256_storeu_ps(c + 0 * ldc, c00); _mm256_storeu_ps(c + 0 * ldc + 8, c01);
  _mm256_storeu_ps(c + 1 * ldc, c10); _mm256_storeu_ps(c + 1 * ldc + 8, c11);
  _mm256_storeu_ps(c + 2 * ldc, c20); _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  _mm256_storeu_ps(c + 3 * ldc, c30); _mm256_storeu_ps(c + 3 * ldc + 8, c31);
}

__attribute__((target("avx2,fma"))) void micro_avx2_4(std::int64_t kc,
                                                      const float* ap,
                                                      const float* bp,
                                                      std::int64_t bs,
                                                      float* c,
                                                      std::int64_t ldc) {
  micro_avx2_half4(kc, ap, 4, bp, bs, c, ldc);
}

__attribute__((target("avx2,fma"))) void micro_avx2_8(std::int64_t kc,
                                                      const float* ap,
                                                      const float* bp,
                                                      std::int64_t bs,
                                                      float* c,
                                                      std::int64_t ldc) {
  micro_avx2_half4(kc, ap, 8, bp, bs, c, ldc);
  micro_avx2_half4(kc, ap + 4, 8, bp, bs, c + 4 * ldc, ldc);
}

#endif  // PFI_KERNELS_X86

using MicroFn = void (*)(std::int64_t, const float*, const float*,
                         std::int64_t, float*, std::int64_t);

MicroFn micro_for(int mr) {
#ifdef PFI_KERNELS_X86
  if (simd_available()) {
    return mr == 8 ? micro_avx2_8 : (mr == 6 ? micro_avx2_6 : micro_avx2_4);
  }
#endif
  return mr == 8 ? micro_scalar<8>
                 : (mr == 6 ? micro_scalar<6> : micro_scalar<4>);
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
/// bit of C) is independent of kc, the tile bounds, and the executing thread.
void compute_tile(std::int64_t m, std::int64_t n, std::int64_t k,
                  const PackedPanels& a, const BView& b, float* c,
                  std::int64_t ldc, Epilogue epilogue, const float* bias,
                  std::int64_t kc, std::int64_t i0, std::int64_t i1,
                  std::int64_t j0, std::int64_t j1, MicroFn micro) {
  const int mr = a.panel;
  float acc[8 * kNR];
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

Impl active_impl() { return g_impl; }
void set_impl(Impl impl) { g_impl = impl; }

bool simd_available() {
#ifdef PFI_KERNELS_X86
  static const bool available =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return available;
#else
  return false;
#endif
}

const BlockConfig& block_config() { return g_block; }
void set_block_config(BlockConfig cfg) { g_block = normalize(cfg); }

int threads() { return g_threads; }
void set_threads(int n) {
  PFI_CHECK(n >= 1) << "kernels::set_threads(" << n << ") must be >= 1";
  g_threads = n;
}

namespace detail {

void run_tiles(std::int64_t tiles,
               const std::function<void(std::int64_t)>& fn) {
  const int nthreads = g_threads;
  if (nthreads <= 1 || tiles <= 1 || tls_in_kernel) {
    for (std::int64_t t = 0; t < tiles; ++t) fn(t);
    return;
  }
  intra_op_pool(static_cast<std::size_t>(nthreads))
      .run(static_cast<std::size_t>(tiles), [&](std::size_t t) {
        tls_in_kernel = true;
        fn(static_cast<std::int64_t>(t));
        tls_in_kernel = false;
      });
}

}  // namespace detail

void pack_a(std::int64_t m, std::int64_t k, const float* a, std::int64_t lda,
            bool trans_a, int mr, PackedPanels& out) {
  PFI_CHECK(mr == 4 || mr == 6 || mr == 8)
      << "pack_a mr must be 4, 6, or 8, got " << mr;
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

/// Shared blocked core: fixed tile grid over C, optional intra-op pool.
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
  PFI_CHECK(a.panel == 4 || a.panel == 6 || a.panel == 8)
      << "blocked gemm: A pack has panel " << a.panel;
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

  const BlockConfig cfg = g_block;
  // Macro tiles must align with packed panel boundaries; the grid depends
  // only on (m, n) and the block sizes — never on the thread count.
  const std::int64_t mc = round_up(cfg.mc, a.panel);
  const std::int64_t nc = round_up(cfg.nc, kNR);
  const std::int64_t ti = (m + mc - 1) / mc;
  const std::int64_t tj = (n + nc - 1) / nc;
  const std::int64_t tiles = ti * tj;
  const MicroFn micro = micro_for(a.panel);

  detail::run_tiles(tiles, [&](std::int64_t t) {
    const std::int64_t row = t / tj;
    const std::int64_t col = t % tj;
    const std::int64_t i0 = row * mc, i1 = std::min(m, (row + 1) * mc);
    const std::int64_t j0 = col * nc, j1 = std::min(n, (col + 1) * nc);
    compute_tile(m, n, k, a, bv, c, ldc, base, bias, cfg.kc, i0, i1, j0, j1,
                 micro);
    if (relu) {
      // Each C element belongs to exactly one macro tile, so rectifying
      // here is race-free and ordering-independent.
      for (std::int64_t i = i0; i < i1; ++i) {
        float* ci = c + i * ldc;
        for (std::int64_t j = j0; j < j1; ++j) ci[j] = relu_unit(ci[j]);
      }
    }
  });
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
  pack_a(m, k, a, lda, trans_a, g_block.mr, tls_pack_a);
  gemm_packed(m, n, k, tls_pack_a, b, c, ldc, epilogue, bias);
}

void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, std::int64_t lda, bool trans_a,
                  const float* b, std::int64_t ldb, bool trans_b, float* c,
                  std::int64_t ldc, Epilogue epilogue, const float* bias) {
  pack_a(m, k, a, lda, trans_a, g_block.mr, tls_pack_a);
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

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          std::int64_t lda, bool trans_a, const float* b, std::int64_t ldb,
          bool trans_b, float* c, std::int64_t ldc, Epilogue epilogue,
          const float* bias) {
  if (g_impl == Impl::kNaive) {
    naive_gemm(m, n, k, a, lda, trans_a, b, ldb, trans_b, c, ldc, epilogue,
               bias);
  } else {
    gemm_blocked(m, n, k, a, lda, trans_a, b, ldb, trans_b, c, ldc, epilogue,
                 bias);
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
