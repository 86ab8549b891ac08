#include "nn/conv2d.hpp"

#include <algorithm>

#include "nn/init.hpp"

namespace pfi::nn {

Conv2d::Conv2d(Conv2dOptions opts, Rng& rng) : opts_(opts) {
  PFI_CHECK(opts_.in_channels > 0 && opts_.out_channels > 0)
      << "Conv2d channels must be positive";
  PFI_CHECK(opts_.kernel > 0 && opts_.stride > 0 && opts_.padding >= 0)
      << "Conv2d geometry invalid: k=" << opts_.kernel << " s=" << opts_.stride
      << " p=" << opts_.padding;
  PFI_CHECK(opts_.groups > 0 && opts_.in_channels % opts_.groups == 0 &&
            opts_.out_channels % opts_.groups == 0)
      << "Conv2d groups=" << opts_.groups << " must divide in="
      << opts_.in_channels << " and out=" << opts_.out_channels;

  const auto cin_g = opts_.in_channels / opts_.groups;
  init_parameters({opts_.out_channels, cin_g, opts_.kernel, opts_.kernel},
                  opts_.bias, opts_.groups);
  kaiming_normal_(weight_.value, cin_g * opts_.kernel * opts_.kernel, rng);
}

void Conv2d::im2col(const Tensor& input, std::int64_t n, std::int64_t group,
                    std::int64_t w_out, std::int64_t col0, std::int64_t w,
                    float* dst) const {
  const auto k = opts_.kernel, s = opts_.stride, p = opts_.padding;
  const auto h_in = input.size(2), w_in = input.size(3);
  const auto cin_g = opts_.in_channels / opts_.groups;
  const auto in_plane = h_in * w_in;
  const float* in = input.data().data() +
                    (n * input.size(1) + group * cin_g) * in_plane;
  const std::int64_t oh0 = col0 / w_out, ow0 = col0 % w_out;

  for (std::int64_t c = 0; c < cin_g; ++c) {
    const float* plane = in + c * in_plane;
    for (std::int64_t kh = 0; kh < k; ++kh) {
      for (std::int64_t kw = 0; kw < k; ++kw, dst += w) {
        // Walk the output rows the block spans, from (oh0, ow0).
        for (std::int64_t j = 0, oh = oh0, ow = ow0; j < w; ++oh, ow = 0) {
          const std::int64_t run = std::min(w_out - ow, w - j);
          const std::int64_t ih = oh * s - p + kh;
          float* d = dst + j;
          j += run;
          if (ih < 0 || ih >= h_in) {
            std::fill_n(d, run, 0.0f);
            continue;
          }
          const float* src_row = plane + ih * w_in;
          for (std::int64_t t = 0; t < run; ++t) {
            // One unsigned compare tests 0 <= iw < w_in.
            const auto iw = static_cast<std::uint64_t>((ow + t) * s - p + kw);
            d[t] = iw < static_cast<std::uint64_t>(w_in) ? src_row[iw] : 0.0f;
          }
        }
      }
    }
  }
}

void Conv2d::col2im(const Tensor& col, std::int64_t n, std::int64_t group,
                    std::int64_t h_out, std::int64_t w_out,
                    Tensor& grad_input) const {
  const auto k = opts_.kernel, s = opts_.stride, p = opts_.padding;
  const auto h_in = grad_input.size(2), w_in = grad_input.size(3);
  const auto cin_g = opts_.in_channels / opts_.groups;
  const auto c0 = group * cin_g;
  const auto* src = col.data().data();
  auto* dst = grad_input.data().data();
  const auto in_plane = h_in * w_in;
  const auto in_base = (n * grad_input.size(1) + c0) * in_plane;

  std::int64_t row = 0;
  for (std::int64_t c = 0; c < cin_g; ++c) {
    float* plane = dst + in_base + c * in_plane;
    for (std::int64_t kh = 0; kh < k; ++kh) {
      for (std::int64_t kw = 0; kw < k; ++kw, ++row) {
        const float* col_row = src + row * (h_out * w_out);
        for (std::int64_t oh = 0; oh < h_out; ++oh) {
          const std::int64_t ih = oh * s - p + kh;
          if (ih < 0 || ih >= h_in) continue;
          float* dst_row = plane + ih * w_in;
          for (std::int64_t ow = 0; ow < w_out; ++ow) {
            const std::int64_t iw = ow * s - p + kw;
            if (iw >= 0 && iw < w_in) dst_row[iw] += col_row[oh * w_out + ow];
          }
        }
      }
    }
  }
}

Tensor Conv2d::forward(const Tensor& input) {
  PFI_CHECK(input.dim() == 4) << kind() << " expects NCHW, got "
                              << input.to_string();
  PFI_CHECK(input.size(1) == opts_.in_channels)
      << kind() << " expects " << opts_.in_channels << " channels, got "
      << input.to_string();
  const auto n_batch = input.size(0);
  const auto h_out = out_size(input.size(2));
  const auto w_out = out_size(input.size(3));
  PFI_CHECK(h_out > 0 && w_out > 0)
      << kind() << " output would be empty for input " << input.to_string();

  cached_input_ = input;
  if (native_ == kernels::LowPrec::kInt8) {
    return forward_int8(input, h_out, w_out);
  }
  // Native fp16/bf16 is this fp32 forward over operands rounded through
  // the 16-bit format: the weight once, when its pack is built, the column
  // matrix and bias on every forward.
  // Rounding is exact, so the result equals the fp32 GEMM over pre-narrowed
  // operands and inherits the fp32 determinism guarantees.
  std::optional<kernels::Storage16> round;
  if (native_ != kernels::LowPrec::kNone) round = storage16();
  const auto g = opts_.groups;
  const auto cin_g = opts_.in_channels / g;
  const auto cout_g = opts_.out_channels / g;
  const auto col_rows = cin_g * opts_.kernel * opts_.kernel;

  const auto spatial = h_out * w_out;
  Tensor output({n_batch, opts_.out_channels, h_out, w_out});
  Tensor col({col_rows, spatial});
  // Weight viewed per group as [cout_g, col_rows]: the GEMM's A operand.
  const Tensor w_mat = weight_.value.reshape({opts_.out_channels, col_rows});
  // Fused conv->ReLU fast path: when the gate is open (no forward hook
  // needs the pre-activation, eval mode) the GEMM epilogue rectifies the
  // finished tiles and the downstream ReLU passes through — bit-identical
  // to the unfused pair (kernels.hpp, kReluZero).
  const bool fuse = relu_fused_output();
  const auto epilogue =
      has_bias_
          ? (fuse ? kernels::Epilogue::kReluBiasRow : kernels::Epilogue::kBiasRow)
          : (fuse ? kernels::Epilogue::kReluZero : kernels::Epilogue::kZero);
  std::vector<float> bias_r(static_cast<std::size_t>(round ? cout_g : 0));

  // Group-outer so the packed weight panels are looked up once per group
  // (cache hit: one pack_digest over the group's weights; miss: one repack)
  // and reused across the batch.
  for (std::int64_t grp = 0; grp < g; ++grp) {
    const auto* wp = w_mat.data().data() + grp * cout_g * col_rows;
    const float* bp =
        has_bias_ ? bias_.value.data().data() + grp * cout_g : nullptr;
    if (round && bp != nullptr) {
      kernels::round16(bp, cout_g, *round, bias_r.data());
      bp = bias_r.data();
    }
    const auto& pa = packs_[static_cast<std::size_t>(grp)].packed_a(
        cout_g, col_rows, wp, col_rows, false, round);
    for (std::int64_t n = 0; n < n_batch; ++n) {
      float* cp = col.data().data();
      im2col(input, n, grp, w_out, 0, spatial, cp);
      if (round) kernels::round16(cp, col_rows * spatial, *round, cp);
      auto* op = output.data().data() +
                 (n * opts_.out_channels + grp * cout_g) * spatial;
      kernels::gemm_prepacked_a(cout_g, spatial, col_rows, pa, cp, spatial,
                                false, op, spatial, epilogue, bp);
    }
  }
  return output;
}

// Native INT8 forward: weights carry frozen per-output-channel symmetric
// scales (golden-calibrated by the injector, or lazily calibrated here on
// first use); the im2col operand is quantized with either one dynamic
// per-tensor scale per (sample, group) or the frozen static input scale,
// and streamed tile-by-tile straight into the packed panels — the full
// col_rows x spatial column matrix is never materialized. The integer
// GEMM's exact i32 accumulators are requantized as fma(sw[oc] * sa, acc,
// bias[oc]); under static calibration the result is immediately re-quantized
// onto the frozen output grid (optionally rectified on codes — the fused
// conv->ReLU boundary), so chains of static layers carry exactly int8
// information. Everything downstream of the quantizers is integer
// arithmetic, so the output is bit-identical at any thread count, block
// config, or INT8 ISA.
Tensor Conv2d::forward_int8(const Tensor& input, std::int64_t h_out,
                            std::int64_t w_out) {
  const auto n_batch = input.size(0);
  const auto g = opts_.groups;
  const auto cin_g = opts_.in_channels / g;
  const auto cout_g = opts_.out_channels / g;
  const auto col_rows = cin_g * opts_.kernel * opts_.kernel;
  const auto spatial = h_out * w_out;

  Tensor output({n_batch, opts_.out_channels, h_out, w_out});
  const Tensor w_mat = weight_.value.reshape({opts_.out_channels, col_rows});
  const std::vector<float>& scales = int8_scales();
  const bool fuse = relu_fused_output();

  std::vector<std::int32_t> acc(static_cast<std::size_t>(cout_g * spatial));
  kernels::PackedPanelsI8 colq;
  for (std::int64_t grp = 0; grp < g; ++grp) {
    const auto* wp = w_mat.data().data() + grp * cout_g * col_rows;
    const float* bp =
        has_bias_ ? bias_.value.data().data() + grp * cout_g : nullptr;
    const auto& pa = packs_[static_cast<std::size_t>(grp)].packed_a_i8(
        cout_g, col_rows, wp, col_rows, false, scales.data() + grp * cout_g);
    for (std::int64_t n = 0; n < n_batch; ++n) {
      const kernels::BTileFn tile = [&](std::int64_t col0, int w, float* dst) {
        im2col(input, n, grp, w_out, col0, w, dst);
      };
      // Dynamic calibration pays one extra streaming pass for the absmax;
      // static calibration skips it entirely — that pass is the cost the
      // frozen scales exist to eliminate.
      const float in_scale =
          static_act_
              ? static_in_scale_
              : kernels::scale_from_absmax(
                    kernels::finite_absmax_stream(col_rows, spatial, tile));
      kernels::quantize_pack_b_i8_stream(col_rows, spatial, in_scale, tile,
                                         colq);
      kernels::gemm_i8(cout_g, spatial, col_rows, pa, colq, acc.data(),
                       spatial);
      auto* op = output.data().data() +
                 (n * opts_.out_channels + grp * cout_g) * spatial;
      if (static_act_) {
        kernels::requantize_rows_grid(cout_g, spatial, acc.data(), spatial,
                                      pa.scale.data(), in_scale, bp,
                                      static_out_scale_, fuse, op, spatial);
      } else {
        kernels::requantize_rows(cout_g, spatial, acc.data(), spatial,
                                 pa.scale.data(), in_scale, bp, op, spatial);
      }
    }
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  PFI_CHECK(cached_input_.defined())
      << kind() << "::backward without a preceding forward";
  const Tensor& input = cached_input_;
  const auto n_batch = input.size(0);
  const auto h_out = grad_output.size(2);
  const auto w_out = grad_output.size(3);
  PFI_CHECK(grad_output.size(0) == n_batch &&
            grad_output.size(1) == opts_.out_channels)
      << kind() << "::backward grad shape " << grad_output.to_string();

  const auto g = opts_.groups;
  const auto cin_g = opts_.in_channels / g;
  const auto cout_g = opts_.out_channels / g;
  const auto col_rows = cin_g * opts_.kernel * opts_.kernel;
  const auto spatial = h_out * w_out;

  Tensor grad_input(input.shape());
  Tensor col({col_rows, spatial});
  Tensor grad_col({col_rows, spatial});
  const Tensor w_mat = weight_.value.reshape({opts_.out_channels, col_rows});
  Tensor gw_mat = weight_.grad.reshape({opts_.out_channels, col_rows});

  for (std::int64_t n = 0; n < n_batch; ++n) {
    for (std::int64_t grp = 0; grp < g; ++grp) {
      float* cp = col.data().data();
      im2col(input, n, grp, w_out, 0, spatial, cp);
      const auto* go = grad_output.data().data() +
                       (n * opts_.out_channels + grp * cout_g) * spatial;
      const auto* wp = w_mat.data().data() + grp * cout_g * col_rows;
      auto* gwp = gw_mat.data().data() + grp * cout_g * col_rows;

      // grad_weight += grad_out x col^T (GEMM-T: B is the transposed column
      // matrix); grad_bias += sum(grad_out).
      kernels::gemm_blocked(cout_g, col_rows, spatial, go, spatial, false, cp,
                            spatial, true, gwp, col_rows,
                            kernels::Epilogue::kAccumulate);
      if (has_bias_) {
        for (std::int64_t oc = 0; oc < cout_g; ++oc) {
          const float* grow = go + oc * spatial;
          float acc = 0.0f;
          for (std::int64_t j = 0; j < spatial; ++j) acc += grow[j];
          bias_.grad[grp * cout_g + oc] += acc;
        }
      }

      // grad_col = W^T x grad_out, then scatter back to grad_input.
      auto* gcp = grad_col.data().data();
      kernels::gemm_blocked(col_rows, spatial, cout_g, wp, col_rows, true, go,
                            spatial, false, gcp, spatial,
                            kernels::Epilogue::kZero);
      col2im(grad_col, n, grp, h_out, w_out, grad_input);
    }
  }
  return grad_input;
}

}  // namespace pfi::nn
