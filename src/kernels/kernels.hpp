// pfi::kernels — deterministic tiled compute kernels for the fp32 hot path.
//
// Every campaign the library runs is bottlenecked on GEMM: Conv2d lowers to
// im2col + GEMM per (sample, group), Linear is a GEMM against W^T, and the
// tensor-level matmul backs everything else. This layer replaces the scalar
// ikj loops with a cache-blocked, register-tiled kernel (packed A/B panels,
// MRx16 microkernel, optional AVX2+FMA path behind runtime dispatch) without
// giving up the library's core guarantee: results are a pure function of the
// operands, NOT of how the work was tiled or scheduled.
//
// Determinism by fixed-k-chain tiling
// -----------------------------------
// Each output element C[i,j] is produced by exactly one accumulation chain:
//
//     acc = init(epilogue);  for k = 0..K-1 ascending: acc = fma(a_ik, b_kj, acc)
//
// The chain is anchored to the element, not the tile. The macro tiles
// (mc x nc) and k panels (kc) of the one block configuration only change
// WHEN a partial chain is flushed to memory — fp32 stores are exact, so
// every output equals that chain bit for bit, whatever the shape. The
// scalar microkernel uses std::fma and the AVX2 path uses vfmadd, which
// implement the same correctly-rounded fused operation, so runtime
// dispatch does not change bits either. This is the guarantee the campaign
// engine makes at trial granularity, pushed down into the kernels.
//
// IEEE faithfulness
// -----------------
// The old loops skipped zero operands (`if (av == 0.0f) continue;`) as a
// throughput hack. That silently dropped 0 * Inf -> NaN and NaN propagation
// — exactly the values fault-injection campaigns create. No kernel in this
// layer skips any operand: an injected Inf or NaN always reaches the output
// the way real hardware would propagate it.
//
// Max pooling (max_pool2d, pool.cpp) lives here too: an AVX2 path for the
// 2x2 stride-2 unpadded windows every zoo network downsamples with, and the
// scalar reference loop for every other geometry. Both apply one selection
// rule, so dispatch never changes an output bit or a recorded argmax.
//
// Every fp32 GEMM in the library runs the blocked kernel; naive_gemm, the
// untiled reference loop, is kept only as the test oracle and the
// kernel_gemm bench baseline. Every kernel runs on its caller's thread:
// campaigns parallelize across independent trials
// (CampaignConfig::threads), not inside one GEMM.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace pfi::kernels {

/// Microkernel width: every packed B panel is kNR columns wide (two AVX2
/// vectors per row, the register-pressure sweet spot for the 6x16 kernel).
inline constexpr int kNR = 16;

/// True when the CPU supports the AVX2+FMA microkernel (runtime dispatch).
bool simd_available();

/// The one cache-block configuration of the blocked fp32 and INT8 GEMMs.
struct BlockConfig {
  std::int64_t mc = 48;   ///< rows of C per macro tile (a multiple of mr)
  std::int64_t nc = 240;  ///< cols of C per macro tile (a multiple of kNR)
  std::int64_t kc = 256;  ///< k-panel depth flushed to C per pass
  int mr = 6;             ///< microkernel height: 6 x kNR saturates AVX2
};
constexpr BlockConfig block_config() { return {}; }
static_assert(block_config().mc % block_config().mr == 0 &&
                  block_config().nc % kNR == 0,
              "macro tiles must align with packed panel boundaries");

namespace detail {
/// Refuses an A-side panel height other than block_config().mr, the only
/// height the microkernels have. Shared by the fp32 and INT8 packers and
/// GEMMs.
inline void check_panel_height(int mr, const char* who) {
  PFI_CHECK(mr == block_config().mr)
      << who << ": A panel height " << mr << ", the microkernels are "
      << block_config().mr << " rows tall";
}
}  // namespace detail

/// How a microkernel initializes the accumulator chain of the FIRST k panel
/// (later panels always resume from the partial sums stored in C).
enum class Epilogue {
  kZero,        ///< C = A*B
  kAccumulate,  ///< C += A*B (grad accumulation)
  kBiasRow,     ///< C = bias[i] + A*B (conv bias, one value per output row)
  kBiasCol,     ///< C = bias[j] + A*B (linear bias, one value per output col)
  /// Fused ReLU variants: the base epilogue plus an elementwise
  /// rectification (v > 0 ? v : 0) over the finished tile — applied AFTER
  /// the full K sweep, inside the same macro-tile task, so the result is
  /// bit-identical to the unfused GEMM followed by nn::ReLU (max is
  /// elementwise; it cannot change any accumulation chain).
  kReluZero,     ///< C = relu(A*B)
  kReluBiasRow,  ///< C = relu(bias[i] + A*B) — the conv->ReLU fast path
};

/// A matrix packed into microkernel panels. A-side packs hold mr-row panels
/// of a logical MxK matrix; B-side packs hold kNR-column panels of a logical
/// KxN matrix. Padding rows/cols are zero-filled.
struct PackedPanels {
  std::vector<float> data;
  std::int64_t k = 0;     ///< shared (inner) dimension
  std::int64_t span = 0;  ///< M for A-side, N for B-side
  int panel = 0;          ///< mr for A-side, kNR for B-side
  bool empty() const { return data.empty(); }
};

/// Pack logical A(MxK) into mr-row panels; mr must be block_config().mr.
/// trans_a reads A(m,k) = a[k*lda+m].
void pack_a(std::int64_t m, std::int64_t k, const float* a, std::int64_t lda,
            bool trans_a, int mr, PackedPanels& out);

/// Pack logical B(KxN) into kNR-column panels. trans_b reads B(k,n) = b[n*ldb+k].
void pack_b(std::int64_t k, std::int64_t n, const float* b, std::int64_t ldb,
            bool trans_b, PackedPanels& out);

/// Blocked GEMM over pre-packed operands: C(MxN, ldc) = epilogue + A*B.
/// `bias` is required for the bias epilogues (length M for kBiasRow, N for
/// kBiasCol) and ignored otherwise.
void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                 const PackedPanels& a, const PackedPanels& b, float* c,
                 std::int64_t ldc, Epilogue epilogue = Epilogue::kZero,
                 const float* bias = nullptr);

/// Blocked GEMM with a cached A pack and a per-call B operand (the conv
/// forward shape: A = weights, B = im2col buffer).
void gemm_prepacked_a(std::int64_t m, std::int64_t n, std::int64_t k,
                      const PackedPanels& a, const float* b, std::int64_t ldb,
                      bool trans_b, float* c, std::int64_t ldc,
                      Epilogue epilogue = Epilogue::kZero,
                      const float* bias = nullptr);

/// Blocked GEMM with a cached B pack and a per-call A operand (the linear
/// forward shape: B = W^T, A = activations).
void gemm_prepacked_b(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* a, std::int64_t lda, bool trans_a,
                      const PackedPanels& b, float* c, std::int64_t ldc,
                      Epilogue epilogue = Epilogue::kZero,
                      const float* bias = nullptr);

/// Blocked GEMM over raw operands (packs into thread-local scratch).
void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, std::int64_t lda, bool trans_a,
                  const float* b, std::int64_t ldb, bool trans_b, float* c,
                  std::int64_t ldc, Epilogue epilogue = Epilogue::kZero,
                  const float* bias = nullptr);

/// Retained IEEE-faithful reference kernel (the old ikj loop minus the
/// zero-skips): differential-test oracle and the kernel_gemm bench baseline.
void naive_gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                std::int64_t lda, bool trans_a, const float* b,
                std::int64_t ldb, bool trans_b, float* c, std::int64_t ldc,
                Epilogue epilogue = Epilogue::kZero,
                const float* bias = nullptr);

/// Geometry of a max pool over `planes` contiguous h x w input planes (an
/// NCHW tensor has N*C of them). Windows are kernel x kernel, stepped by
/// `stride`, with `padding` virtual rows/cols on every side that never win.
struct PoolShape {
  std::int64_t planes = 0, h = 0, w = 0;
  std::int64_t kernel = 0, stride = 0, padding = 0;
  std::int64_t out_h() const { return (h + 2 * padding - kernel) / stride + 1; }
  std::int64_t out_w() const { return (w + 2 * padding - kernel) / stride + 1; }
};

/// Max pooling: out[p][oh][ow] is the selected element of its window and
/// offset[p][oh][ow] its window position kh * kernel + kw (kernel <= 16, so
/// it fits in a byte). Selection rule: windows are scanned row-major over
/// their in-bounds elements; the first seeds `best`, and a later v replaces
/// it iff v > best or v is NaN. A window holding any NaN therefore yields
/// its last NaN (payload and sign intact) — injected faults propagate —
/// and otherwise the first occurrence of its max (+-0 ties keep the first).
/// Every window must hold an in-bounds element (2 * padding <= kernel and a
/// non-empty output). Kernel 2 / stride 2 / padding 0 runs 8 outputs per
/// AVX2 step when the CPU has it; other geometries and row tails run the
/// scalar reference. Both give identical bits.
void max_pool2d(const PoolShape& shape, const float* in, float* out,
                std::uint8_t* offset);

/// Position-mixed FNV-1a over the exact bit patterns of n floats. A single
/// flipped bit anywhere always changes the digest. This is the persisted
/// weight identity: core::model_weight_fingerprint folds it into
/// calibration files (`weight_fp`) and campaign and checkpoint
/// fingerprints, so its values must never change. It is not a cache key —
/// WeightPackCache keys its packs with the faster pack_digest (lowp.hpp).
std::uint64_t fingerprint(const float* p, std::int64_t n);

}  // namespace pfi::kernels
