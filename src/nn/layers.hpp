// Small stateless / lightly-stateful layers: activations, pooling, flatten,
// dropout, channel shuffle, softmax.
#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace pfi::nn {

/// Rectified linear unit. The paper highlights ReLU as the main source of
/// error masking ("it either gets masked out entirely, e.g., due to
/// activation functions such as ReLU layers", Sec. I).
class ReLU final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "ReLU"; }
  std::shared_ptr<Module> clone_structure() const override {
    return std::make_shared<ReLU>();
  }

  /// nn::fuse_relu wires the immediately-preceding module here. When that
  /// producer reports relu_fused_output() — its GEMM epilogue already
  /// applied the rectification — forward passes the input through unchanged
  /// (Identity-style aliasing). The producer re-evaluates its fusion gate
  /// every forward, so a hooked or training-mode producer falls back to the
  /// real rectification automatically.
  void set_producer(Module* producer) { producer_ = producer; }
  Module* producer() const { return producer_; }

 private:
  Module* producer_ = nullptr;
  Tensor cached_input_;
};

/// Leaky ReLU (used by the YOLO-style detector backbone).
class LeakyReLU final : public Module {
 public:
  explicit LeakyReLU(float negative_slope = 0.1f) : slope_(negative_slope) {}
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "LeakyReLU"; }
  std::shared_ptr<Module> clone_structure() const override {
    return std::make_shared<LeakyReLU>(slope_);
  }

 private:
  float slope_;
  Tensor cached_input_;
};

/// Logistic sigmoid.
class Sigmoid final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "Sigmoid"; }
  std::shared_ptr<Module> clone_structure() const override {
    return std::make_shared<Sigmoid>();
  }

 private:
  Tensor cached_output_;
};

/// Row-wise softmax over a [N, C] tensor (the classification head's final
/// probability distribution, paper Sec. II-A).
class Softmax final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "Softmax"; }
  std::shared_ptr<Module> clone_structure() const override {
    return std::make_shared<Softmax>();
  }

 private:
  Tensor cached_output_;
};

/// Max pooling via kernels::max_pool2d (its header states the NaN-aware
/// selection rule). Every forward, eval mode included, keeps each output's
/// argmax as a one-byte window offset kh * kernel + kw; backward rebuilds
/// the flat input index from it, so Grad-CAM can backprop after an eval
/// forward. Refuses kernel > 16 (the offset must fit in a byte) and
/// 2 * padding > kernel (a window could then hold only padding).
class MaxPool2d final : public Module {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride = 0,
            std::int64_t padding = 0);
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "MaxPool2d"; }
  std::shared_ptr<Module> clone_structure() const override {
    return std::make_shared<MaxPool2d>(kernel_, stride_, padding_);
  }

  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return padding_; }

 private:
  std::int64_t kernel_, stride_, padding_;
  Shape input_shape_;
  std::vector<std::uint8_t> argmax_;  // window offset per output element
};

/// Average pooling.
class AvgPool2d final : public Module {
 public:
  AvgPool2d(std::int64_t kernel, std::int64_t stride = 0);
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "AvgPool2d"; }
  std::shared_ptr<Module> clone_structure() const override {
    return std::make_shared<AvgPool2d>(kernel_, stride_);
  }

 private:
  std::int64_t kernel_, stride_;
  Shape input_shape_;
};

/// Global average pooling: [N, C, H, W] -> [N, C, 1, 1].
class GlobalAvgPool final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "GlobalAvgPool"; }
  std::shared_ptr<Module> clone_structure() const override {
    return std::make_shared<GlobalAvgPool>();
  }

 private:
  Shape input_shape_;
};

/// Collapse [N, C, H, W] -> [N, C*H*W] between conv features and FC head.
class Flatten final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "Flatten"; }
  std::shared_ptr<Module> clone_structure() const override {
    return std::make_shared<Flatten>();
  }

 private:
  Shape input_shape_;
};

/// Inverted dropout; identity in eval mode.
class Dropout final : public Module {
 public:
  Dropout(float p, Rng& rng);
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "Dropout"; }
  /// Draws a fresh mask per training forward; identity (pure) in eval.
  bool deterministic_forward() const override {
    return !is_training() || p_ == 0.0f;
  }
  std::shared_ptr<Module> clone_structure() const override {
    Rng rng = rng_;  // same stream state as the source
    return std::make_shared<Dropout>(p_, rng);
  }

 private:
  float p_;
  Rng rng_;
  Tensor mask_;
};

/// ShuffleNet channel shuffle: regroup channels across group convolutions.
class ChannelShuffle final : public Module {
 public:
  explicit ChannelShuffle(std::int64_t groups);
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "ChannelShuffle"; }
  std::shared_ptr<Module> clone_structure() const override {
    return std::make_shared<ChannelShuffle>(groups_);
  }

 private:
  Tensor shuffle(const Tensor& x, std::int64_t groups) const;
  std::int64_t groups_;
};

/// Identity layer (useful as a no-op shortcut branch).
class Identity final : public Module {
 public:
  Tensor forward(const Tensor& input) override { return input; }
  Tensor backward(const Tensor& grad_output) override { return grad_output; }
  std::string kind() const override { return "Identity"; }
  std::shared_ptr<Module> clone_structure() const override {
    return std::make_shared<Identity>();
  }
};

}  // namespace pfi::nn
