// pfi::kernels low-precision inference paths: native INT8 GEMM and an
// fp16/bf16 storage format for weights and activations.
//
// INT8 GEMM
// ---------
// Operands are symmetric signed-INT8 codes (no zero point), pre-widened to
// i16 at pack time and laid out in k-PAIR panels so the microkernel can use
// `_mm256_madd_epi16` (and, when the CPU has it, the fused VNNI form
// `_mm256_dpwssd_epi32`): each 32-bit lane accumulates a0*b0 + a1*b1 for
// one output column. Widening to i16 is what makes the dot products EXACT —
// the classic `_mm256_maddubs_epi16` u8*s8 trick saturates its intermediate
// i16 pair sums (255*127*2 > 32767) and is therefore unsound for a
// bit-deterministic tool. With |code| <= 127 the i16 pair products are at
// most 2*127^2 = 32258, so madd never saturates, and the i32 accumulator is
// exact for K <= kMaxI8Depth. Integer addition is associative, so the
// result is bit-identical for every ISA (scalar / AVX2 madd / VNNI) and
// would be under any tile grid — a stronger form of the fp32 kernel's
// fixed-chain guarantee. gemm_i8 walks the fp32 kernel's tile grid anyway,
// so the execution structure mirrors kernels.cpp.
//
// Quantization
// ------------
// Weights use per-output-channel symmetric scales (one QuantParams-style
// scale per GEMM row of A, or per column of B for the linear W^T shape);
// activations use one dynamic per-tensor scale from a finite-only absmax.
// quantize_unit() is the single scalar quantizer shared with
// quant::quantize_value, so kernel codes and the injector's INT8 error
// models agree bit-for-bit: a fault that flips bit b of a code produces
// exactly the code the packed operand would hold. Non-finite activations
// saturate deterministically (+-Inf -> +-127, NaN -> -127) instead of
// aborting, because upstream fp32-layer faults can and do produce them.
// The injector's emulated INT8 projection (quant::calibrate and
// quant::fake_quantize_ after every emulated layer) runs on the same
// finite_absmax_i8 and fake_quantize_row, so I8Isa also selects the path of
// the emulated projection; every path yields the same bits.
//
// fp16/bf16 storage
// -----------------
// Weights, activations and bias take only values a 16-bit code can hold
// (IEEE binary16 or bfloat16, via the software converters in
// util/bits.hpp): each is rounded once through its format by round16
// (narrow, then widen — widening is exact) and fed to the existing fp32
// microkernels. The weight is rounded when WeightPackCache builds its fp32
// pack, so a cache hit costs no conversion; activations and bias are
// rounded on every forward. The result equals the fp32 GEMM over the
// pre-narrowed operands and inherits every fp32 determinism guarantee.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "kernels/kernels.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace pfi::kernels {

/// Native low-precision mode of a module's forward path.
enum class LowPrec { kNone, kInt8, kFp16, kBf16 };

/// 16-bit storage format selector.
enum class Storage16 { kFp16, kBf16 };

/// INT8 microkernel ISA. kAuto resolves to the best supported at first use;
/// set_i8_isa() forces a specific one (tests pin scalar-vs-SIMD
/// bit-identity with it).
enum class I8Isa { kAuto, kScalar, kMadd, kVnni };
I8Isa active_i8_isa();
void set_i8_isa(I8Isa isa);

/// Deepest K for which an i32 accumulator of 127*127 products cannot
/// overflow: floor((2^31 - 1) / 127^2).
inline constexpr std::int64_t kMaxI8Depth = 133152;

/// Symmetric scale from a (finite, non-negative) absolute maximum — the
/// same formula as quant::calibrate_absmax, duplicated here because the
/// kernel layer cannot depend on the tensor library.
inline float scale_from_absmax(float absmax) {
  return absmax > 0.0f ? absmax / 127.0f : 1.0f / 127.0f;
}

/// The single scalar quantizer: round-to-nearest-even onto the symmetric
/// INT8 grid, saturating. quant::quantize_value delegates here, so codes
/// computed by packs and by the injector's error models are bit-identical.
/// NaN deterministically maps to -127, +-Inf to +-127.
inline std::int8_t quantize_unit(float v, float scale) {
  const float q = std::nearbyint(v / scale);
  const float clamped = std::min(127.0f, std::max(-127.0f, q));
  return static_cast<std::int8_t>(clamped);
}

/// The code's exact fp32 image. quant::dequantize_value delegates here, as
/// quant::quantize_value does to quantize_unit.
inline float dequantize_unit(std::int8_t code, float scale) {
  return static_cast<float>(code) * scale;
}

/// Round-trip n contiguous floats through the INT8 grid in place:
/// p[i] = dequantize_unit(quantize_unit(p[i], scale), scale) — the
/// emulated INT8 layer's output projection. AVX2-vectorized when the active
/// INT8 ISA is not kScalar: the vector body is quantize_row_i16's quantizer
/// followed by the same int-to-float conversion and multiply, so every
/// element equals the scalar round trip bit for bit (and a zero code stores
/// +0, as the integer does). `scale` must be positive.
void fake_quantize_row(float* p, std::int64_t n, float scale);

/// Quantize a contiguous row of n floats onto the symmetric INT8 grid,
/// widened to the i16 the packed panels hold: dst[i] = quantize_unit(src[i],
/// scale). AVX2-vectorized when the active INT8 ISA is not kScalar, and
/// BIT-IDENTICAL to the scalar loop either way: the vector path keeps the
/// IEEE division, rounds with the current (round-nearest-even) mode, and
/// clamps in the same NaN-propagation order as quantize_unit, so every
/// lane equals the scalar quantizer — pinned by the cross-ISA tests.
void quantize_row_i16(const float* src, std::int64_t n, float scale,
                      std::int16_t* dst);

/// Finite-only absolute maximum over a contiguous buffer (the dynamic
/// activation calibration pass). NaN/+-Inf contribute nothing. max() is
/// order-invariant, so the AVX2 reduction is bit-identical to the scalar
/// scan by construction.
float finite_absmax_i8(const float* p, std::int64_t n);

/// A matrix quantized to INT8 codes, pre-widened to i16 and packed into
/// k-pair microkernel panels. A-side panels hold mr rows (pair layout
/// [a(r,2q), a(r,2q+1)] per row per pair); B-side panels hold kNR columns
/// (pair layout [b(2q,c), b(2q+1,c)] per column per pair). K is zero-padded
/// to even; padding rows/cols are zero codes.
struct PackedPanelsI8 {
  std::vector<std::int16_t> data;
  std::int64_t k = 0;     ///< logical (un-padded) inner dimension
  std::int64_t kp = 0;    ///< k rounded up to even
  std::int64_t span = 0;  ///< M for A-side, N for B-side
  int panel = 0;          ///< mr for A-side, kNR for B-side
  /// Symmetric scales: one per row (A) / column (B) for per-channel packs,
  /// or a single element for per-tensor packs.
  std::vector<float> scale;
  bool empty() const { return data.empty(); }
};

/// Per-row symmetric scales of a logical MxK matrix (the per-output-channel
/// weight calibration). Rejects non-finite weights with a clear message —
/// a NaN/Inf weight has no INT8 code and must not silently saturate.
std::vector<float> per_row_scales_i8(std::int64_t m, std::int64_t k,
                                     const float* a, std::int64_t lda,
                                     bool trans_a);

/// Quantize + pack logical A(MxK) into mr-row k-pair panels with the given
/// per-row scales (size m). trans_a reads A(m,k) = a[k*lda+m].
void quantize_pack_a_i8(std::int64_t m, std::int64_t k, const float* a,
                        std::int64_t lda, bool trans_a, int mr,
                        const float* row_scales, PackedPanelsI8& out);

/// Quantize + pack logical A(MxK) with one dynamic per-tensor scale from a
/// finite-only absmax (the linear-activation operand).
void quantize_pack_a_i8_tensor(std::int64_t m, std::int64_t k, const float* a,
                               std::int64_t lda, bool trans_a, int mr,
                               PackedPanelsI8& out);

/// Quantize + pack logical B(KxN) into kNR-column k-pair panels with the
/// given per-column scales (size n). trans_b reads B(k,n) = b[n*ldb+k].
void quantize_pack_b_i8(std::int64_t k, std::int64_t n, const float* b,
                        std::int64_t ldb, bool trans_b,
                        const float* col_scales, PackedPanelsI8& out);

/// Quantize + pack logical B(KxN) with one dynamic per-tensor scale (the
/// conv im2col operand).
void quantize_pack_b_i8_tensor(std::int64_t k, std::int64_t n, const float* b,
                               std::int64_t ldb, bool trans_b,
                               PackedPanelsI8& out);

/// Quantize + pack logical A(MxK) with a FIXED per-tensor scale (static
/// activation calibration: the absmax pass is already paid for at
/// calibration time, so the pack is a single sweep).
void quantize_pack_a_i8_static(std::int64_t m, std::int64_t k, const float* a,
                               std::int64_t lda, bool trans_a, int mr,
                               float scale, PackedPanelsI8& out);

/// Quantize + pack logical B(KxN) with a fixed per-tensor scale.
void quantize_pack_b_i8_static(std::int64_t k, std::int64_t n, const float* b,
                               std::int64_t ldb, bool trans_b, float scale,
                               PackedPanelsI8& out);

/// Produces the logical KxW column block [col0, col0+w) of B into `dst`
/// with row stride `w`: dst[kk*w + c] = B(kk, col0 + c). The INT8 conv
/// forward implements this with Conv2d's one patch gather, called on each
/// kNR-column tile, so the full KxN patch matrix is never materialized.
using BTileFn = std::function<void(std::int64_t col0, int w, float* dst)>;

/// Quantize + pack a tile-streamed logical B(KxN) with a fixed per-tensor
/// scale. Each kNR-column tile is produced by `tile`, quantized, and
/// interleaved straight into its k-pair panel; peak extra memory is one
/// k x kNR tile instead of the whole K x N matrix. The packed bytes are
/// identical to quantize_pack_b_i8_static over the materialized matrix.
void quantize_pack_b_i8_stream(std::int64_t k, std::int64_t n, float scale,
                               const BTileFn& tile, PackedPanelsI8& out);

/// Finite absmax over a tile-streamed logical B(KxN) — the dynamic-scale
/// first pass of the streaming conv path. Equals finite_absmax_i8 over the
/// materialized matrix (max is order-invariant).
float finite_absmax_stream(std::int64_t k, std::int64_t n, const BTileFn& tile);

/// Exact integer GEMM over packed INT8 operands: C(i32, MxN, ldc) =
/// sum_k a_code(i,k) * b_code(k,j), over block_config()'s tile grid on the
/// calling thread. `a` must be packed with mr = block_config().mr.
void gemm_i8(std::int64_t m, std::int64_t n, std::int64_t k,
             const PackedPanelsI8& a, const PackedPanelsI8& b, std::int32_t* c,
             std::int64_t ldc);

/// Dequantize i32 accumulators with per-row A scales and a scalar B scale:
/// out[i,j] = fma(row_scale[i] * b_scale, acc[i,j], bias[i]) (bias may be
/// null -> 0). The conv epilogue.
void requantize_rows(std::int64_t m, std::int64_t n, const std::int32_t* acc,
                     std::int64_t ldacc, const float* row_scale, float b_scale,
                     const float* bias, float* out, std::int64_t ldout);

/// Dequantize with a scalar A scale and per-column B scales:
/// out[i,j] = fma(a_scale * col_scale[j], acc[i,j], bias[j]). The linear
/// epilogue.
void requantize_cols(std::int64_t m, std::int64_t n, const std::int32_t* acc,
                     std::int64_t ldacc, float a_scale, const float* col_scale,
                     const float* bias, float* out, std::int64_t ldout);

/// Fused requantize-to-grid epilogue (INT8-resident layer boundary): the
/// fp32 value fma(row_scale[i]*b_scale, acc[i,j], bias[i]) is immediately
/// re-quantized onto the NEXT consumer's static activation grid
/// (`out_scale`), optionally rectified ON THE CODES (`relu`: negative codes
/// clamp to 0), and stored as code * out_scale — the exact fp32 image of
/// the INT8 code the boundary holds, so the next static layer's pack
/// recovers the identical code and a conv->ReLU->conv chain never carries
/// more information than int8. quantize_unit semantics throughout
/// (round-nearest-even, NaN -> -127 -> relu 0, +-Inf saturate).
void requantize_rows_grid(std::int64_t m, std::int64_t n,
                          const std::int32_t* acc, std::int64_t ldacc,
                          const float* row_scale, float b_scale,
                          const float* bias, float out_scale, bool relu,
                          float* out, std::int64_t ldout);

/// Column-scale variant of requantize_rows_grid (the linear epilogue):
/// value = fma(a_scale*col_scale[j], acc[i,j], bias[j]).
void requantize_cols_grid(std::int64_t m, std::int64_t n,
                          const std::int32_t* acc, std::int64_t ldacc,
                          float a_scale, const float* col_scale,
                          const float* bias, float out_scale, bool relu,
                          float* out, std::int64_t ldout);

/// Narrow one float to 16-bit storage codes / widen back (exact).
inline std::uint16_t narrow16(float v, Storage16 fmt) {
  return fmt == Storage16::kFp16 ? f16_bits_from_float(v)
                                 : bf16_bits_from_float(v);
}
inline float widen16(std::uint16_t h, Storage16 fmt) {
  return fmt == Storage16::kFp16 ? float_from_f16_bits(h)
                                 : float_from_bf16_bits(h);
}

/// Round n floats through 16-bit storage: dst[i] = widen16(narrow16(src[i]))
/// — the exact fp32 image of each stored code. `dst` may equal `src`.
void round16(const float* src, std::int64_t n, Storage16 fmt, float* dst);

/// WeightPackCache's key digest of the exact bit patterns of n floats: 32
/// independent FNV-1a-64 lanes over interleaved elements (element i feeds
/// lane i mod 32; a tail shorter than 32 continues in lanes 0, 1, ...),
/// folded with FNV-1a-64 and mixed with n. Every lane step is a bijection
/// of the lane state and injective in the element, so a change confined to
/// one element always changes the digest. Plain integer arithmetic: every
/// compile gives the same value, with no ISA dispatch. It never leaves the
/// process — the persisted weight identity is kernels::fingerprint.
std::uint64_t pack_digest(const float* p, std::int64_t n);

/// Cached packs of one weight matrix: an fp32 slot (the blocked GEMM's
/// panels, optionally rounded once through a 16-bit storage format) and an
/// INT8 slot (per-row or per-column quantized panels). Each slot is reused
/// while its key — the pack_digest of the weights (folded with the
/// pack_digest of the scales for INT8), the panel side and shape, and the
/// rounding format — is unchanged. The key lives in memory only and its
/// digest is recomputed from every weight and scale on every lookup, so
/// mutation through tensor aliases (the library's injection mechanism) can
/// never serve a stale pack; invalidate() (called on every FaultInjector
/// weight-mutation path) drops both slots at once.
class WeightPackCache {
 public:
  /// fp32 A-side panels of w (logical MxK, contiguous). With `round` set,
  /// every packed element is rounded through that 16-bit format — the
  /// native fp16/bf16 weight operand, bit-equal to packing its codes and
  /// widening them.
  const PackedPanels& packed_a(std::int64_t m, std::int64_t k, const float* w,
                               std::int64_t lda, bool trans_a,
                               std::optional<Storage16> round = std::nullopt);

  /// fp32 B-side panels of w (logical KxN, contiguous).
  const PackedPanels& packed_b(std::int64_t k, std::int64_t n, const float* w,
                               std::int64_t ldb, bool trans_b,
                               std::optional<Storage16> round = std::nullopt);

  /// Per-row-quantized INT8 A-side panels (conv weights; row_scales size m).
  const PackedPanelsI8& packed_a_i8(std::int64_t m, std::int64_t k,
                                    const float* w, std::int64_t lda,
                                    bool trans_a, const float* row_scales);

  /// Per-column-quantized INT8 B-side panels (linear W^T; col_scales size n).
  const PackedPanelsI8& packed_b_i8(std::int64_t k, std::int64_t n,
                                    const float* w, std::int64_t ldb,
                                    bool trans_b, const float* col_scales);

  /// Drop both packs (weight mutated or about to be restored).
  void invalidate() {
    f32_key_.reset();
    i8_key_.reset();
  }

 private:
  /// What a cached pack was built from. `panel` is mr for A-side packs and
  /// kNR for B-side packs (mr is 6, kNR 16), so it also names the side.
  struct Key {
    std::uint64_t digest = 0;
    std::int64_t span = 0;
    std::int64_t k = 0;
    int panel = 0;
    std::optional<Storage16> round;
    bool operator==(const Key&) const = default;
  };

  PackedPanels f32_;
  std::optional<Key> f32_key_;
  PackedPanelsI8 i8_;
  std::optional<Key> i8_key_;
};

}  // namespace pfi::kernels
