// Symmetric per-tensor INT8 quantization of activations.
//
// The paper's Fig. 4 campaign runs "six networks with INT8 neuron-
// quantization [38]" and injects single-bit flips in the quantized domain.
// This module provides:
//   * calibration  -- pick a scale from the max-abs activation value,
//   * quantize / dequantize round trips,
//   * bit-flip in the INT8 representation of a single float value, the exact
//     error model of Sec. IV-A.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace pfi::quant {

/// Scale for symmetric INT8: real = q * scale, q in [-127, 127].
struct QuantParams {
  float scale = 1.0f;

  /// Real-valued range representable at this scale.
  float max_representable() const { return scale * 127.0f; }
};

/// Calibrate from the maximum absolute FINITE value of a tensor (the
/// native path's kernels::finite_absmax_i8): NaN and +-Inf contribute
/// nothing, and fake_quantize_ then saturates them (+-Inf -> +-127 codes,
/// NaN -> -127), because upstream faults can and do produce them. A tensor
/// with no finite nonzero value gets the 1/127 fallback scale.
QuantParams calibrate(const Tensor& t);

/// Calibrate from a known absolute bound.
QuantParams calibrate_absmax(float absmax);

/// Per-channel symmetric calibration along dim 0 (one QuantParams per
/// output channel — the native INT8 weight scheme). Unlike the per-tensor
/// calibrate, degenerate channels are REJECTED with a clear PFI_CHECK
/// rather than silently falling back: an empty channel or one with no
/// finite values (all NaN/Inf) has no meaningful scale, and emitting one
/// would let a campaign quantize garbage without noticing. An all-zero
/// channel still gets the standard 1/127 fallback scale — zero is a valid
/// calibration, just a degenerate range.
std::vector<QuantParams> calibrate_per_channel(const Tensor& t);

/// Quantize one value to INT8 (round-to-nearest, clamped to [-127, 127]).
std::int8_t quantize_value(float v, const QuantParams& qp);

/// Dequantize one INT8 code back to a float.
float dequantize_value(std::int8_t q, const QuantParams& qp);

/// Round-trip a value through INT8 (the quantization error a deployed
/// INT8 accelerator would exhibit).
float fake_quantize_value(float v, const QuantParams& qp);

/// Round-trip an entire tensor through INT8 in place
/// (kernels::fake_quantize_row): every element equals fake_quantize_value.
void fake_quantize_(Tensor& t, const QuantParams& qp);

/// Flip bit `bit` (0..7, 7 = sign) of v's INT8 representation and return the
/// dequantized corrupted value — the single-bit-flip neuron error model used
/// for the paper's Fig. 4.
float flip_bit_int8(float v, int bit, const QuantParams& qp);

}  // namespace pfi::quant
