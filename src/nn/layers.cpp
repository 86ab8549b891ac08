#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.hpp"

namespace pfi::nn {

// ---------------------------------------------------------------- ReLU ------

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  // Fused producer: the rectification already ran inside the producer's
  // GEMM epilogue, so the input IS the ReLU output. backward stays correct
  // — the cached (rectified) input has v > 0 exactly where the pre-image
  // did, so the gradient mask is unchanged.
  if (producer_ != nullptr && producer_->relu_fused_output()) return input;
  Tensor out = input.clone();
  out.apply_([](float v) { return v > 0.0f ? v : 0.0f; });
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  PFI_CHECK(cached_input_.defined()) << "ReLU::backward before forward";
  Tensor grad = grad_output.clone();
  auto g = grad.data();
  auto x = cached_input_.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
  return grad;
}

// ----------------------------------------------------------- LeakyReLU ------

Tensor LeakyReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out = input.clone();
  const float s = slope_;
  out.apply_([s](float v) { return v > 0.0f ? v : s * v; });
  return out;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  PFI_CHECK(cached_input_.defined()) << "LeakyReLU::backward before forward";
  Tensor grad = grad_output.clone();
  auto g = grad.data();
  auto x = cached_input_.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (x[i] <= 0.0f) g[i] *= slope_;
  }
  return grad;
}

// ------------------------------------------------------------- Sigmoid ------

Tensor Sigmoid::forward(const Tensor& input) {
  Tensor out = input.clone();
  out.apply_([](float v) { return 1.0f / (1.0f + std::exp(-v)); });
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  PFI_CHECK(cached_output_.defined()) << "Sigmoid::backward before forward";
  Tensor grad = grad_output.clone();
  auto g = grad.data();
  auto y = cached_output_.data();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= y[i] * (1.0f - y[i]);
  return grad;
}

// ------------------------------------------------------------- Softmax ------

Tensor Softmax::forward(const Tensor& input) {
  PFI_CHECK(input.dim() == 2) << "Softmax expects [N, C], got "
                              << input.to_string();
  Tensor out = input.clone();
  const auto n = input.size(0), c = input.size(1);
  auto d = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = d.data() + i * c;
    float mx = row[0];
    for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < c; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    // A fully non-finite row (e.g. after a NaN injection) sums to NaN; the
    // division then propagates NaN, which downstream Top-1 logic treats as
    // a corruption, matching the paper's observable-corruption accounting.
    for (std::int64_t j = 0; j < c; ++j) row[j] /= sum;
  }
  cached_output_ = out;
  return out;
}

Tensor Softmax::backward(const Tensor& grad_output) {
  PFI_CHECK(cached_output_.defined()) << "Softmax::backward before forward";
  const auto n = cached_output_.size(0), c = cached_output_.size(1);
  Tensor grad({n, c});
  auto y = cached_output_.data();
  auto g = grad_output.data();
  auto out = grad.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* yr = y.data() + i * c;
    const float* gr = g.data() + i * c;
    float dot = 0.0f;
    for (std::int64_t j = 0; j < c; ++j) dot += yr[j] * gr[j];
    float* orow = out.data() + i * c;
    for (std::int64_t j = 0; j < c; ++j) orow[j] = yr[j] * (gr[j] - dot);
  }
  return grad;
}

// ----------------------------------------------------------- MaxPool2d ------

namespace {

kernels::PoolShape pool_shape(const Shape& input, std::int64_t kernel,
                              std::int64_t stride, std::int64_t padding) {
  return {.planes = input[0] * input[1], .h = input[2], .w = input[3],
          .kernel = kernel, .stride = stride, .padding = padding};
}

}  // namespace

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride,
                     std::int64_t padding)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride),
      padding_(padding) {
  PFI_CHECK(kernel_ > 0 && stride_ > 0 && padding_ >= 0 && kernel_ <= 16 &&
            padding_ <= kernel_ / 2)
      << "MaxPool2d(kernel=" << kernel_ << ", stride=" << stride_
      << ", padding=" << padding_
      << ") refused: needs kernel in [1, 16] (its window offsets are one "
         "byte), stride >= 1 and 0 <= 2 * padding <= kernel (so no window "
         "holds only padding)";
}

Tensor MaxPool2d::forward(const Tensor& input) {
  PFI_CHECK(input.dim() == 4) << "MaxPool2d expects NCHW, got "
                              << input.to_string();
  input_shape_ = input.shape();
  const auto s = pool_shape(input_shape_, kernel_, stride_, padding_);
  PFI_CHECK(s.out_h() > 0 && s.out_w() > 0)
      << "MaxPool2d output empty for " << input.to_string();
  Tensor out({input.size(0), input.size(1), s.out_h(), s.out_w()});
  argmax_.resize(static_cast<std::size_t>(out.numel()));
  kernels::max_pool2d(s, input.data().data(), out.data().data(),
                      argmax_.data());
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  PFI_CHECK(!input_shape_.empty()) << "MaxPool2d::backward before forward";
  Tensor grad_input(input_shape_);
  auto gi = grad_input.data();
  auto go = grad_output.data();
  PFI_CHECK(go.size() == argmax_.size())
      << "MaxPool2d::backward grad shape " << grad_output.to_string();
  const auto s = pool_shape(input_shape_, kernel_, stride_, padding_);
  // Flat input index = the window's top-left corner (which may sit in the
  // padding) + the stored offset's displacement. Outputs scatter in order,
  // so overlapping windows always accumulate in the same order.
  std::vector<std::int64_t> shift(static_cast<std::size_t>(kernel_ * kernel_));
  for (std::int64_t o = 0; o < kernel_ * kernel_; ++o) {
    shift[static_cast<std::size_t>(o)] = (o / kernel_) * s.w + o % kernel_;
  }
  std::size_t i = 0;
  for (std::int64_t p = 0; p < s.planes; ++p) {
    for (std::int64_t oh = 0; oh < s.out_h(); ++oh) {
      const std::int64_t row =
          p * s.h * s.w + (oh * stride_ - padding_) * s.w - padding_;
      for (std::int64_t ow = 0; ow < s.out_w(); ++ow, ++i) {
        const std::int64_t at = row + ow * stride_ + shift[argmax_[i]];
        gi[static_cast<std::size_t>(at)] += go[i];
      }
    }
  }
  return grad_input;
}

// ----------------------------------------------------------- AvgPool2d ------

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  PFI_CHECK(kernel_ > 0 && stride_ > 0) << "AvgPool2d geometry invalid";
}

Tensor AvgPool2d::forward(const Tensor& input) {
  PFI_CHECK(input.dim() == 4) << "AvgPool2d expects NCHW";
  input_shape_ = input.shape();
  const auto n = input.size(0), c = input.size(1), h = input.size(2),
             w = input.size(3);
  const auto ho = (h - kernel_) / stride_ + 1;
  const auto wo = (w - kernel_) / stride_ + 1;
  PFI_CHECK(ho > 0 && wo > 0) << "AvgPool2d output empty for "
                              << input.to_string();
  Tensor out({n, c, ho, wo});
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  const auto* in = input.data().data();
  auto* o = out.data().data();
  std::int64_t oi = 0;
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* plane = in + (ni * c + ci) * h * w;
      for (std::int64_t oh = 0; oh < ho; ++oh) {
        for (std::int64_t ow = 0; ow < wo; ++ow, ++oi) {
          float acc = 0.0f;
          for (std::int64_t kh = 0; kh < kernel_; ++kh) {
            for (std::int64_t kw = 0; kw < kernel_; ++kw) {
              acc += plane[(oh * stride_ + kh) * w + (ow * stride_ + kw)];
            }
          }
          o[oi] = acc * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  PFI_CHECK(!input_shape_.empty()) << "AvgPool2d::backward before forward";
  Tensor grad_input(input_shape_);
  const auto n = input_shape_[0], c = input_shape_[1], h = input_shape_[2],
             w = input_shape_[3];
  const auto ho = grad_output.size(2), wo = grad_output.size(3);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  const auto* go = grad_output.data().data();
  auto* gi = grad_input.data().data();
  std::int64_t oi = 0;
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      float* plane = gi + (ni * c + ci) * h * w;
      for (std::int64_t oh = 0; oh < ho; ++oh) {
        for (std::int64_t ow = 0; ow < wo; ++ow, ++oi) {
          const float g = go[oi] * inv;
          for (std::int64_t kh = 0; kh < kernel_; ++kh) {
            for (std::int64_t kw = 0; kw < kernel_; ++kw) {
              plane[(oh * stride_ + kh) * w + (ow * stride_ + kw)] += g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

// ------------------------------------------------------- GlobalAvgPool ------

Tensor GlobalAvgPool::forward(const Tensor& input) {
  PFI_CHECK(input.dim() == 4) << "GlobalAvgPool expects NCHW";
  input_shape_ = input.shape();
  const auto n = input.size(0), c = input.size(1);
  const auto hw = input.size(2) * input.size(3);
  Tensor out({n, c, 1, 1});
  const auto* in = input.data().data();
  auto* o = out.data().data();
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::int64_t i = 0; i < n * c; ++i) {
    float acc = 0.0f;
    const float* plane = in + i * hw;
    for (std::int64_t j = 0; j < hw; ++j) acc += plane[j];
    o[i] = acc * inv;
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  PFI_CHECK(!input_shape_.empty()) << "GlobalAvgPool::backward before forward";
  Tensor grad_input(input_shape_);
  const auto n = input_shape_[0], c = input_shape_[1];
  const auto hw = input_shape_[2] * input_shape_[3];
  const float inv = 1.0f / static_cast<float>(hw);
  const auto* go = grad_output.data().data();
  auto* gi = grad_input.data().data();
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float g = go[i] * inv;
    float* plane = gi + i * hw;
    for (std::int64_t j = 0; j < hw; ++j) plane[j] = g;
  }
  return grad_input;
}

// ------------------------------------------------------------- Flatten ------

Tensor Flatten::forward(const Tensor& input) {
  PFI_CHECK(input.dim() >= 2) << "Flatten expects rank >= 2";
  input_shape_ = input.shape();
  return input.reshape({input.size(0), input.numel() / input.size(0)});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  PFI_CHECK(!input_shape_.empty()) << "Flatten::backward before forward";
  return grad_output.reshape(input_shape_);
}

// ------------------------------------------------------------- Dropout ------

Dropout::Dropout(float p, Rng& rng) : p_(p), rng_(rng.split()) {
  PFI_CHECK(p >= 0.0f && p < 1.0f) << "Dropout p=" << p;
}

Tensor Dropout::forward(const Tensor& input) {
  if (!is_training() || p_ == 0.0f) {
    mask_ = Tensor();
    return input;
  }
  mask_ = Tensor(input.shape());
  const float keep = 1.0f - p_;
  const float scale = 1.0f / keep;
  auto m = mask_.data();
  for (auto& v : m) v = rng_.bernoulli(keep) ? scale : 0.0f;
  return mul(input, mask_);
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!mask_.defined()) return grad_output;
  return mul(grad_output, mask_);
}

// ------------------------------------------------------ ChannelShuffle ------

ChannelShuffle::ChannelShuffle(std::int64_t groups) : groups_(groups) {
  PFI_CHECK(groups_ > 0) << "ChannelShuffle groups=" << groups_;
}

Tensor ChannelShuffle::shuffle(const Tensor& x, std::int64_t groups) const {
  const auto n = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  PFI_CHECK(c % groups == 0)
      << "ChannelShuffle: channels " << c << " not divisible by " << groups;
  const auto per = c / groups;
  Tensor out(x.shape());
  const auto* in = x.data().data();
  auto* o = out.data().data();
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t g = 0; g < groups; ++g) {
      for (std::int64_t i = 0; i < per; ++i) {
        const auto src = (ni * c + g * per + i) * hw;
        const auto dst = (ni * c + i * groups + g) * hw;
        std::copy(in + src, in + src + hw, o + dst);
      }
    }
  }
  return out;
}

Tensor ChannelShuffle::forward(const Tensor& input) {
  PFI_CHECK(input.dim() == 4) << "ChannelShuffle expects NCHW";
  return shuffle(input, groups_);
}

Tensor ChannelShuffle::backward(const Tensor& grad_output) {
  // The inverse of an (groups x per) interleave is a (per x groups) one.
  return shuffle(grad_output, grad_output.size(1) / groups_);
}

}  // namespace pfi::nn
