#include "quant/quant.hpp"

#include <cmath>

#include "kernels/lowp.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace pfi::quant {

QuantParams calibrate(const Tensor& t) {
  PFI_CHECK(t.defined() && t.numel() > 0) << "calibrate on empty tensor";
  const auto data = t.data();
  return calibrate_absmax(kernels::finite_absmax_i8(
      data.data(), static_cast<std::int64_t>(data.size())));
}

QuantParams calibrate_absmax(float absmax) {
  PFI_CHECK(absmax >= 0.0f && std::isfinite(absmax))
      << "calibrate_absmax(" << absmax << ")";
  QuantParams qp;
  // A zero range would make every scale degenerate; fall back to 1.0 so that
  // quantize(0) == 0 and bit flips still produce representable values.
  qp.scale = absmax > 0.0f ? absmax / 127.0f : 1.0f / 127.0f;
  return qp;
}

std::vector<QuantParams> calibrate_per_channel(const Tensor& t) {
  PFI_CHECK(t.defined() && t.dim() >= 1)
      << "calibrate_per_channel needs a tensor with a channel dimension";
  const std::int64_t channels = t.size(0);
  PFI_CHECK(channels > 0) << "calibrate_per_channel on 0 channels";
  const std::int64_t per = t.numel() / channels;
  PFI_CHECK(per > 0) << "calibrate_per_channel: channel 0 is empty (0 "
                        "values per channel) — no scale exists for an empty "
                        "channel";
  const float* p = t.data().data();
  std::vector<QuantParams> out(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    float absmax = 0.0f;
    std::int64_t finite = 0;
    for (std::int64_t i = 0; i < per; ++i) {
      const float av = std::abs(p[c * per + i]);
      if (std::isfinite(av)) {
        ++finite;
        if (av > absmax) absmax = av;
      }
    }
    PFI_CHECK(finite > 0)
        << "calibrate_per_channel: channel " << c << " has no finite values ("
        << per << " entries, all NaN/Inf) — refusing to emit a degenerate "
        << "scale";
    out[static_cast<std::size_t>(c)] = calibrate_absmax(absmax);
  }
  return out;
}

std::int8_t quantize_value(float v, const QuantParams& qp) {
  PFI_CHECK(qp.scale > 0.0f) << "quantize with scale " << qp.scale;
  // Delegates to the kernel layer's quantizer so emulated codes and native
  // packed codes are bit-identical by construction.
  return kernels::quantize_unit(v, qp.scale);
}

float dequantize_value(std::int8_t q, const QuantParams& qp) {
  return kernels::dequantize_unit(q, qp.scale);
}

float fake_quantize_value(float v, const QuantParams& qp) {
  return dequantize_value(quantize_value(v, qp), qp);
}

void fake_quantize_(Tensor& t, const QuantParams& qp) {
  PFI_CHECK(qp.scale > 0.0f) << "quantize with scale " << qp.scale;
  const auto data = t.data();
  kernels::fake_quantize_row(data.data(), static_cast<std::int64_t>(data.size()),
                             qp.scale);
}

float flip_bit_int8(float v, int bit, const QuantParams& qp) {
  const std::int8_t q = quantize_value(v, qp);
  const std::int8_t corrupted = flip_int8_bit(q, bit);
  return dequantize_value(corrupted, qp);
}

}  // namespace pfi::quant
