// GemmLayer: the common base of Conv2d and Linear, the two layer classes
// whose forward is a GEMM against a weight matrix and the two the fault
// injector instruments.
//
// It owns everything the two share: the weight and bias parameters, the
// native low-precision mode with its frozen per-output INT8 scales, the
// static activation scales, the ReLU-fusion flag, and one weight-pack cache
// per group (Linear has one group). Callers that only need that state —
// the FaultInjector, persistent faults, ReLU fusion, IBP — reach it through
// this class and never ask which of the two a layer is. The forwards, and
// the relu_fused_output() gate that decides when fusion actually runs, stay
// in each subclass.
#pragma once

#include <vector>

#include "kernels/lowp.hpp"
#include "nn/module.hpp"

namespace pfi::nn {

class GemmLayer : public Module {
 public:
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }
  std::vector<Parameter*> local_parameters() override;

  /// Drop the cached packed-weight panels. Call after mutating the weight
  /// tensor (weight injection, restore) so repeated forwards never consume a
  /// stale pack; every forward also recomputes the cache's key digest
  /// (kernels::pack_digest) over the whole weight, so this is an
  /// eager-release hook, not the only line of defense.
  void invalidate_weight_packs() {
    for (auto& p : packs_) p.invalidate();
  }

  /// Switch the forward path to a native low-precision representation.
  /// kInt8 runs a GEMM over INT8 codes — per-output quantized weights
  /// against per-tensor quantized activations — and requantizes the exact
  /// i32 accumulators to fp32; kFp16/kBf16 round weights, activations and
  /// bias through 16-bit storage and run the fp32 kernels.
  /// `out_scales` optionally freezes the per-output weight scales (the
  /// FaultInjector passes golden-calibrated scales so a weight fault flips
  /// exactly one deployed code without re-calibrating its row); empty means
  /// calibrate lazily from the current weights at first pack. Backward is
  /// unchanged (fp32) — campaigns only run inference.
  void set_native_dtype(kernels::LowPrec native,
                        std::vector<float> out_scales = {});
  kernels::LowPrec native_dtype() const { return native_; }
  /// Per-output weight scales of the native INT8 path (empty until set or
  /// the first lazily-calibrated forward).
  const std::vector<float>& native_scales() const { return native_scales_; }

  /// Freeze the INT8 activation scales (static calibration,
  /// quant::StaticActQuant): `in_scale` quantizes the GEMM's activation
  /// operand — eliminating the per-forward absmax pass — and `out_scale` is
  /// the grid the fused epilogue re-quantizes the output onto, so the
  /// boundary carries exactly int8 information. Scales must be finite and
  /// positive; clear_static_act() returns to dynamic per-forward
  /// calibration.
  void set_static_act(float in_scale, float out_scale);
  void clear_static_act() { static_act_ = false; }
  bool has_static_act() const { return static_act_; }
  float static_in_scale() const { return static_in_scale_; }
  float static_out_scale() const { return static_out_scale_; }

  /// nn::fuse_relu marks this layer as immediately followed by a ReLU. The
  /// rectification then runs inside the GEMM epilogue whenever the
  /// subclass's relu_fused_output() gate is open; the downstream ReLU
  /// becomes a passthrough.
  void set_fuse_relu(bool on) { fuse_relu_ = on; }
  bool fuse_relu() const { return fuse_relu_; }

 protected:
  /// Allocate the weight (and, with `bias`, a zero bias of weight_shape[0]
  /// outputs) and one pack cache per group. Subclasses validate their
  /// geometry first, then call this, then initialize the weight.
  void init_parameters(const Shape& weight_shape, bool bias,
                       std::int64_t groups);

  /// The frozen per-output INT8 scales, calibrated from the current weight
  /// (viewed as [outputs, numel / outputs]) on first use when none are set.
  const std::vector<float>& int8_scales();

  /// The 16-bit format of a kFp16/kBf16 native mode.
  kernels::Storage16 storage16() const {
    return native_ == kernels::LowPrec::kFp16 ? kernels::Storage16::kFp16
                                              : kernels::Storage16::kBf16;
  }

  Parameter weight_;
  Parameter bias_;
  bool has_bias_ = false;
  std::vector<kernels::WeightPackCache> packs_;  // one per group
  kernels::LowPrec native_ = kernels::LowPrec::kNone;
  std::vector<float> native_scales_;
  bool static_act_ = false;
  float static_in_scale_ = 0.0f;
  float static_out_scale_ = 0.0f;
  bool fuse_relu_ = false;
};

}  // namespace pfi::nn
