// 2-D convolution with stride, zero padding, and groups.
//
// Convolutions are the layer class the paper instruments: "PyTorchFI allows
// users to perform neural network perturbations in weights and/or neurons in
// convolutional operations of DNNs during execution" (Sec. I). Groups are
// supported because the Fig. 3 model zoo includes grouped (ResNeXt) and
// depthwise (MobileNet) convolutions.
//
// Implementation: im2col + GEMM per (sample, group), routed through
// pfi::kernels (cache-blocked, register-tiled, deterministic at any thread
// count; see kernels/kernels.hpp). One patch gather, im2col, writes any
// column range of the patch matrix: the fp32 forward and backward's weight
// gradient gather every column into a buffer, and the INT8 forward streams
// kNR-column tiles straight into its packed panels, so it never holds the
// whole matrix. Weight, bias, the native INT8/fp16/bf16 mode, static
// activation scales, ReLU fusion and the per-group weight-pack caches live
// in the GemmLayer base (nn/gemm_layer.hpp), shared with Linear. A native
// fp16/bf16 weight is rounded through its 16-bit format once, when the
// group's fp32 pack is built. Backward recomputes the column matrix rather
// than caching it, trading FLOPs for memory.
#pragma once

#include "nn/gemm_layer.hpp"
#include "util/rng.hpp"

namespace pfi::nn {

/// Convolution hyperparameters.
struct Conv2dOptions {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  std::int64_t groups = 1;
  bool bias = true;
};

class Conv2d final : public GemmLayer {
 public:
  Conv2d(Conv2dOptions opts, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  std::string kind() const override { return "Conv2d"; }
  std::shared_ptr<Module> clone_structure() const override {
    Rng rng(0);  // throwaway init; clone_model overwrites the parameters
    return std::make_shared<Conv2d>(opts_, rng);
  }

  const Conv2dOptions& options() const { return opts_; }

  /// Output spatial size for a given input spatial size.
  std::int64_t out_size(std::int64_t in) const {
    return (in + 2 * opts_.padding - opts_.kernel) / opts_.stride + 1;
  }

  /// Fusion gate, re-evaluated per forward: fp32 fuses only when no forward
  /// hook observes the pre-activation; the static-INT8 path fuses
  /// unconditionally (the hook's injection domain IS the post-ReLU
  /// resident codes — see FaultInjector). Dynamic INT8 and fp16/bf16 never
  /// fuse.
  bool relu_fused_output() const override {
    if (!fuse_relu_ || training_) return false;
    if (native_ == kernels::LowPrec::kInt8) return static_act_;
    return native_ == kernels::LowPrec::kNone && forward_hook_count() == 0;
  }

 private:
  /// Write columns [col0, col0 + w) of one sample's group-slice patch
  /// matrix to `dst` with row stride w: dst[row * w + c] = col(row, col0 + c),
  /// where row walks (c, kh, kw) and column j is output pixel
  /// (j / w_out, j % w_out); a padding tap reads 0. The one copy of the tap
  /// mapping: the fp32 forward and the weight gradient take every column,
  /// the INT8 forward one kNR-column tile at a time.
  void im2col(const Tensor& input, std::int64_t n, std::int64_t group,
              std::int64_t w_out, std::int64_t col0, std::int64_t w,
              float* dst) const;
  /// Scatter-add a column matrix back into one sample's group-slice.
  void col2im(const Tensor& col, std::int64_t n, std::int64_t group,
              std::int64_t h_out, std::int64_t w_out, Tensor& grad_input) const;

  Tensor forward_int8(const Tensor& input, std::int64_t h_out,
                      std::int64_t w_out);

  Conv2dOptions opts_;
  Tensor cached_input_;
};

}  // namespace pfi::nn
