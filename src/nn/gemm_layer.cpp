#include "nn/gemm_layer.hpp"

#include <cmath>

namespace pfi::nn {

void GemmLayer::init_parameters(const Shape& weight_shape, bool bias,
                                std::int64_t groups) {
  weight_.name = "weight";
  weight_.value = Tensor(weight_shape);
  weight_.grad = Tensor(weight_shape);
  has_bias_ = bias;
  if (bias) {
    bias_.name = "bias";
    bias_.value = Tensor({weight_shape[0]});
    bias_.grad = Tensor({weight_shape[0]});
  }
  packs_.resize(static_cast<std::size_t>(groups));
}

std::vector<Parameter*> GemmLayer::local_parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

void GemmLayer::set_native_dtype(kernels::LowPrec native,
                                 std::vector<float> out_scales) {
  const std::int64_t outputs = weight_.value.size(0);
  PFI_CHECK(out_scales.empty() || native == kernels::LowPrec::kInt8)
      << kind() << "::set_native_dtype: weight scales only apply to kInt8";
  PFI_CHECK(out_scales.empty() ||
            out_scales.size() == static_cast<std::size_t>(outputs))
      << kind() << "::set_native_dtype: got " << out_scales.size()
      << " weight scales for " << outputs << " outputs";
  for (const float s : out_scales) {
    PFI_CHECK(std::isfinite(s) && s > 0.0f)
        << kind() << "::set_native_dtype: weight scale " << s
        << " must be finite and positive";
  }
  native_ = native;
  native_scales_ = std::move(out_scales);
  invalidate_weight_packs();
}

void GemmLayer::set_static_act(float in_scale, float out_scale) {
  PFI_CHECK(std::isfinite(in_scale) && in_scale > 0.0f &&
            std::isfinite(out_scale) && out_scale > 0.0f)
      << kind() << "::set_static_act: scales in=" << in_scale
      << " out=" << out_scale << " must be finite and positive";
  static_act_ = true;
  static_in_scale_ = in_scale;
  static_out_scale_ = out_scale;
}

const std::vector<float>& GemmLayer::int8_scales() {
  if (native_scales_.empty()) {
    const std::int64_t rows = weight_.value.size(0);
    const std::int64_t cols = weight_.value.numel() / rows;
    native_scales_ = kernels::per_row_scales_i8(
        rows, cols, weight_.value.data().data(), cols, false);
  }
  return native_scales_;
}

}  // namespace pfi::nn
