#include "nn/linear.hpp"

#include "nn/init.hpp"

namespace pfi::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias)
    : in_(in_features), out_(out_features) {
  PFI_CHECK(in_ > 0 && out_ > 0) << "Linear dims must be positive";
  init_parameters({out_, in_}, bias, 1);
  kaiming_normal_(weight_.value, in_, rng);
}

// Native INT8 forward: W^T is quantized per-out-feature (frozen scales as
// in Conv2d), the activation matrix gets one per-tensor scale — dynamic
// absmax, or the frozen static input scale (no absmax pass) — and the
// exact i32 GEMM is requantized as fma(sa * sw[o], acc, bias[o]); under
// static calibration the result lands directly on the frozen output grid
// (requantize_cols_grid, optionally rectified on codes).
Tensor Linear::forward_int8(const Tensor& input) {
  const auto n = input.size(0);
  Tensor output({n, out_});
  const auto* x = input.data().data();
  const auto* w = weight_.value.data().data();
  const auto& pb =
      packs_[0].packed_b_i8(in_, out_, w, in_, true, int8_scales().data());
  kernels::PackedPanelsI8 xa;
  if (static_act_) {
    kernels::quantize_pack_a_i8_static(n, in_, x, in_, false,
                                       kernels::block_config().mr,
                                       static_in_scale_, xa);
  } else {
    kernels::quantize_pack_a_i8_tensor(n, in_, x, in_, false,
                                       kernels::block_config().mr, xa);
  }
  std::vector<std::int32_t> acc(static_cast<std::size_t>(n * out_));
  kernels::gemm_i8(n, out_, in_, xa, pb, acc.data(), out_);
  const float* bp = has_bias_ ? bias_.value.data().data() : nullptr;
  if (static_act_) {
    kernels::requantize_cols_grid(n, out_, acc.data(), out_, xa.scale[0],
                                  pb.scale.data(), bp, static_out_scale_,
                                  relu_fused_output(), output.data().data(),
                                  out_);
  } else {
    kernels::requantize_cols(n, out_, acc.data(), out_, xa.scale[0],
                             pb.scale.data(), bp, output.data().data(), out_);
  }
  return output;
}

Tensor Linear::forward(const Tensor& input) {
  PFI_CHECK(input.dim() == 2 && input.size(1) == in_)
      << "Linear(" << in_ << " -> " << out_ << ") got " << input.to_string();
  cached_input_ = input;
  if (native_ == kernels::LowPrec::kInt8) return forward_int8(input);
  const auto n = input.size(0);
  Tensor output({n, out_});
  const float* x = input.data().data();
  const auto* w = weight_.value.data().data();
  auto* y = output.data().data();
  const float* bp = has_bias_ ? bias_.value.data().data() : nullptr;
  // Native fp16/bf16 is this fp32 forward over operands rounded through
  // the 16-bit format: W^T once, when its pack is built, activations and
  // bias on every forward.
  std::optional<kernels::Storage16> round;
  std::vector<float> x_r, bias_r;
  if (native_ != kernels::LowPrec::kNone) {
    round = storage16();
    x_r.resize(static_cast<std::size_t>(n * in_));
    kernels::round16(x, n * in_, *round, x_r.data());
    x = x_r.data();
    if (bp != nullptr) {
      bias_r.resize(static_cast<std::size_t>(out_));
      kernels::round16(bp, out_, *round, bias_r.data());
      bp = bias_r.data();
    }
  }
  // y = x W^T + b: the GEMM's B operand is W transposed, packed once and
  // cached until the weight bits change.
  const auto epilogue =
      has_bias_ ? kernels::Epilogue::kBiasCol : kernels::Epilogue::kZero;
  const auto& pb = packs_[0].packed_b(in_, out_, w, in_, true, round);
  kernels::gemm_prepacked_b(n, out_, in_, x, in_, false, pb, y, out_, epilogue,
                            bp);
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  PFI_CHECK(cached_input_.defined())
      << "Linear::backward without a preceding forward";
  const auto n = cached_input_.size(0);
  PFI_CHECK(grad_output.dim() == 2 && grad_output.size(0) == n &&
            grad_output.size(1) == out_)
      << "Linear::backward grad shape " << grad_output.to_string();

  Tensor grad_input({n, in_});
  const auto* x = cached_input_.data().data();
  const auto* g = grad_output.data().data();
  const auto* w = weight_.value.data().data();
  auto* gw = weight_.grad.data().data();
  auto* gx = grad_input.data().data();

  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float* gr = g + i * out_;
      for (std::int64_t o = 0; o < out_; ++o) bias_.grad[o] += gr[o];
    }
  }
  // grad_W += g^T x, grad_x = g W. No zero-skip: a zero gradient against an
  // injected Inf/NaN weight must still propagate NaN, as hardware would.
  kernels::gemm_blocked(out_, in_, n, g, out_, true, x, in_, false, gw, in_,
                        kernels::Epilogue::kAccumulate);
  kernels::gemm_blocked(n, in_, out_, g, out_, false, w, in_, false, gx, in_,
                        kernels::Epilogue::kZero);
  return grad_input;
}

}  // namespace pfi::nn
