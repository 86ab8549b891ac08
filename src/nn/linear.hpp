// Fully-connected layer: y = x W^T + b.
//
// Forward and backward route through pfi::kernels (see kernels/kernels.hpp).
// Weight, bias, the native INT8/fp16/bf16 mode, static activation scales,
// ReLU fusion and the cache of the packed W^T panels the blocked GEMM
// consumes live in the GemmLayer base (nn/gemm_layer.hpp), shared with
// Conv2d: a Linear is one group. A native fp16/bf16 W^T is rounded through
// its 16-bit format once, when its fp32 pack is built.
#pragma once

#include "nn/gemm_layer.hpp"
#include "util/rng.hpp"

namespace pfi::nn {

class Linear final : public GemmLayer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  std::string kind() const override { return "Linear"; }
  std::shared_ptr<Module> clone_structure() const override {
    Rng rng(0);  // throwaway init; clone_model overwrites the parameters
    return std::make_shared<Linear>(in_, out_, rng, has_bias_);
  }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

  /// Fusion gate: Linear only fuses on the static-INT8 path — the fp32
  /// epilogue set has no rectified kBiasCol, and classifier heads always
  /// carry bias.
  bool relu_fused_output() const override {
    return fuse_relu_ && !training_ && static_act_ &&
           native_ == kernels::LowPrec::kInt8;
  }

 private:
  Tensor forward_int8(const Tensor& input);

  std::int64_t in_ = 0;
  std::int64_t out_ = 0;
  Tensor cached_input_;
};

}  // namespace pfi::nn
