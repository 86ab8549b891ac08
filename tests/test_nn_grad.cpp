// Numerical gradient checks for every differentiable module.
//
// Strategy: define L = sum(R .* module(x)) for a fixed random tensor R.
// Then dL/d(output) = R, and analytic input/parameter gradients from
// backward() must match central finite differences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "nn/nn.hpp"

namespace pfi::nn {
namespace {

/// Central-difference gradient of L(x) = sum(R .* f(x)) wrt tensor `t`.
Tensor numeric_grad(const std::function<Tensor()>& run, Tensor& t,
                    const Tensor& r, float eps = 1e-3f) {
  Tensor grad(t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float orig = t[i];
    t[i] = orig + eps;
    const Tensor yp = run().clone();  // clone: output may alias the input
    t[i] = orig - eps;
    const Tensor ym = run().clone();
    t[i] = orig;
    double acc = 0.0;
    auto p = yp.data();
    auto m = ym.data();
    auto rr = r.data();
    for (std::size_t j = 0; j < p.size(); ++j) {
      acc += static_cast<double>(rr[j]) * (p[j] - m[j]);
    }
    grad[i] = static_cast<float>(acc / (2.0 * eps));
  }
  return grad;
}

/// Check input + parameter gradients of `m` at input `x`.
void check_gradients(Module& m, Tensor x, float tol = 2e-2f,
                     std::uint64_t seed = 99) {
  Rng rng(seed);
  // Forward once to learn the output shape.
  const Tensor y0 = m(x);
  const Tensor r = Tensor::rand(y0.shape(), rng, -1.0f, 1.0f);

  auto run = [&]() { return m(x); };

  // Analytic gradients.
  m.zero_grad();
  m(x);
  const Tensor gx = m.backward(r);

  // Input gradient.
  const Tensor gx_num = numeric_grad(run, x, r);
  EXPECT_LE(gx.max_abs_diff(gx_num), tol)
      << m.kind() << " input gradient mismatch";

  // Parameter gradients. backward() above accumulated them once.
  for (Parameter* p : m.parameters()) {
    const Tensor gp_num = numeric_grad(run, p->value, r);
    EXPECT_LE(p->grad.max_abs_diff(gp_num), tol)
        << m.kind() << " gradient mismatch for parameter " << p->name;
  }
}

TEST(Grad, Linear) {
  Rng rng(1);
  Linear fc(5, 3, rng);
  check_gradients(fc, Tensor::rand({2, 5}, rng, -1.0f, 1.0f));
}

TEST(Grad, LinearNoBias) {
  Rng rng(2);
  Linear fc(4, 4, rng, false);
  check_gradients(fc, Tensor::rand({3, 4}, rng, -1.0f, 1.0f));
}

TEST(Grad, Conv2dBasic) {
  Rng rng(3);
  Conv2d conv(
      Conv2dOptions{.in_channels = 2, .out_channels = 3, .kernel = 3,
                    .padding = 1},
      rng);
  check_gradients(conv, Tensor::rand({2, 2, 4, 4}, rng, -1.0f, 1.0f));
}

TEST(Grad, Conv2dStridedNoPad) {
  Rng rng(4);
  Conv2d conv(
      Conv2dOptions{.in_channels = 3, .out_channels = 2, .kernel = 2,
                    .stride = 2},
      rng);
  check_gradients(conv, Tensor::rand({1, 3, 6, 6}, rng, -1.0f, 1.0f));
}

TEST(Grad, Conv2dGrouped) {
  Rng rng(5);
  Conv2d conv(
      Conv2dOptions{.in_channels = 4, .out_channels = 4, .kernel = 3,
                    .padding = 1, .groups = 2},
      rng);
  check_gradients(conv, Tensor::rand({2, 4, 3, 3}, rng, -1.0f, 1.0f));
}

TEST(Grad, Conv2dDepthwise) {
  Rng rng(6);
  Conv2d conv(
      Conv2dOptions{.in_channels = 3, .out_channels = 3, .kernel = 3,
                    .padding = 1, .groups = 3, .bias = false},
      rng);
  check_gradients(conv, Tensor::rand({1, 3, 4, 4}, rng, -1.0f, 1.0f));
}

// --- kernel-routed backward coverage (PR 3) -------------------------------
// Conv2d/Linear backward now runs through pfi::kernels GEMMs; these cases
// exercise every routing: grad-weight GEMM-T, accumulate epilogue, the k=7
// and 1x1 im2col shapes, and stride+groups combined.

TEST(Grad, Conv2dKernel7WidePadding) {
  Rng rng(31);
  Conv2d conv(
      Conv2dOptions{.in_channels = 2, .out_channels = 2, .kernel = 7,
                    .padding = 3},
      rng);
  check_gradients(conv, Tensor::rand({1, 2, 8, 8}, rng, -1.0f, 1.0f));
}

TEST(Grad, Conv2dOneByOne) {
  Rng rng(32);
  Conv2d conv(
      Conv2dOptions{.in_channels = 3, .out_channels = 4, .kernel = 1}, rng);
  check_gradients(conv, Tensor::rand({2, 3, 3, 3}, rng, -1.0f, 1.0f));
}

TEST(Grad, Conv2dStridedGrouped) {
  Rng rng(33);
  Conv2d conv(
      Conv2dOptions{.in_channels = 4, .out_channels = 6, .kernel = 3,
                    .stride = 2, .padding = 1, .groups = 2},
      rng);
  check_gradients(conv, Tensor::rand({2, 4, 5, 5}, rng, -1.0f, 1.0f));
}

TEST(Grad, LinearWide) {
  Rng rng(34);
  Linear fc(17, 11, rng);
  check_gradients(fc, Tensor::rand({4, 17}, rng, -1.0f, 1.0f));
}

TEST(Grad, KernelImplsAgreeOnGradients) {
  // The analytic gradients the blocked GEMMs compute must agree with the
  // convolution's gradients written as direct loops (in double).
  Rng rng(35);
  Conv2d conv(
      Conv2dOptions{.in_channels = 3, .out_channels = 4, .kernel = 3,
                    .padding = 1, .groups = 1},
      rng);
  const Tensor x = Tensor::rand({2, 3, 5, 5}, rng, -1.0f, 1.0f);
  const Tensor y0 = conv(x);
  const Tensor r = Tensor::rand(y0.shape(), rng, -1.0f, 1.0f);

  conv.zero_grad();
  const Tensor gx_blocked = conv.backward(r).clone();
  const Tensor gw_blocked = conv.weight().grad.clone();

  // dL/dx[n,c,ih,iw] and dL/dw[o,c,kh,kw] accumulate r[n,o,oh,ow] times the
  // weight and the input each output tap pairs (stride 1, padding 1).
  const Tensor& w = conv.weight().value;
  std::vector<double> gx(static_cast<std::size_t>(x.numel()), 0.0);
  std::vector<double> gw(static_cast<std::size_t>(w.numel()), 0.0);
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t o = 0; o < 4; ++o) {
      for (std::int64_t oh = 0; oh < 5; ++oh) {
        for (std::int64_t ow = 0; ow < 5; ++ow) {
          const double g = r.at(n, o, oh, ow);
          for (std::int64_t c = 0; c < 3; ++c) {
            for (std::int64_t kh = 0; kh < 3; ++kh) {
              for (std::int64_t kw = 0; kw < 3; ++kw) {
                const std::int64_t ih = oh - 1 + kh, iw = ow - 1 + kw;
                if (ih < 0 || ih >= 5 || iw < 0 || iw >= 5) continue;
                gx[static_cast<std::size_t>(((n * 3 + c) * 5 + ih) * 5 + iw)] +=
                    g * w.at(o, c, kh, kw);
                gw[static_cast<std::size_t>(((o * 3 + c) * 3 + kh) * 3 + kw)] +=
                    g * x.at(n, c, ih, iw);
              }
            }
          }
        }
      }
    }
  }
  const auto max_diff = [](const Tensor& t, const std::vector<double>& ref) {
    double d = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      d = std::max(d, std::abs(t[i] - ref[static_cast<std::size_t>(i)]));
    }
    return d;
  };
  EXPECT_LE(max_diff(gx_blocked, gx), 1e-5);
  EXPECT_LE(max_diff(gw_blocked, gw), 1e-5);
}

TEST(Grad, ReLUAwayFromKink) {
  Rng rng(7);
  ReLU relu;
  // Keep inputs away from 0 where ReLU is non-differentiable.
  Tensor x = Tensor::rand({2, 3, 3, 3}, rng, 0.2f, 1.0f);
  for (std::int64_t i = 0; i < x.numel(); i += 2) x[i] = -x[i];
  check_gradients(relu, x);
}

TEST(Grad, LeakyReLU) {
  Rng rng(8);
  LeakyReLU lr(0.2f);
  Tensor x = Tensor::rand({2, 8}, rng, 0.2f, 1.0f);
  for (std::int64_t i = 0; i < x.numel(); i += 2) x[i] = -x[i];
  check_gradients(lr, x);
}

TEST(Grad, Sigmoid) {
  Rng rng(9);
  Sigmoid s;
  check_gradients(s, Tensor::rand({3, 4}, rng, -2.0f, 2.0f));
}

TEST(Grad, Softmax) {
  Rng rng(10);
  Softmax sm;
  check_gradients(sm, Tensor::rand({2, 5}, rng, -1.0f, 1.0f));
}

TEST(Grad, MaxPool) {
  Rng rng(11);
  MaxPool2d mp(2);
  // Distinct values so the argmax is stable under +-eps.
  Tensor x({1, 2, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>((i * 7919) % 97) * 0.1f;
  }
  check_gradients(mp, x);
}

TEST(Grad, AvgPool) {
  Rng rng(12);
  AvgPool2d ap(2);
  check_gradients(ap, Tensor::rand({2, 2, 4, 4}, rng, -1.0f, 1.0f));
}

TEST(Grad, GlobalAvgPool) {
  Rng rng(13);
  GlobalAvgPool gap;
  check_gradients(gap, Tensor::rand({2, 3, 4, 4}, rng, -1.0f, 1.0f));
}

TEST(Grad, Flatten) {
  Rng rng(14);
  Flatten f;
  check_gradients(f, Tensor::rand({2, 3, 2, 2}, rng, -1.0f, 1.0f));
}

TEST(Grad, BatchNormTraining) {
  Rng rng(15);
  BatchNorm2d bn(3);
  bn.train();
  check_gradients(bn, Tensor::rand({4, 3, 3, 3}, rng, -1.0f, 1.0f), 3e-2f);
}

TEST(Grad, BatchNormEvalInputGradient) {
  // Eval mode is a per-channel affine map with running statistics; the
  // eval backward (used by Grad-CAM on deployed models) must match the
  // numeric input gradient. Parameter gradients are intentionally not
  // accumulated in eval mode.
  Rng rng(21);
  BatchNorm2d bn(2);
  bn.running_mean()[0] = 0.5f;
  bn.running_mean()[1] = -1.0f;
  bn.running_var()[0] = 4.0f;
  bn.running_var()[1] = 0.25f;
  bn.gamma().value[0] = 2.0f;
  bn.gamma().value[1] = -0.5f;
  bn.eval();

  Tensor x = Tensor::rand({2, 2, 3, 3}, rng, -1.0f, 1.0f);
  const Tensor y0 = bn(x);
  const Tensor r = Tensor::rand(y0.shape(), rng, -1.0f, 1.0f);
  const Tensor gx = bn.backward(r);
  auto run = [&]() { return bn(x); };
  const Tensor gx_num = numeric_grad(run, x, r);
  EXPECT_LE(gx.max_abs_diff(gx_num), 2e-2f);
  // Parameter grads untouched.
  EXPECT_EQ(bn.gamma().grad.squared_norm(), 0.0f);
  EXPECT_EQ(bn.beta().grad.squared_norm(), 0.0f);
}

TEST(Grad, SequentialConvReluPoolLinear) {
  Rng rng(16);
  auto seq = std::make_shared<Sequential>();
  seq->emplace<Conv2d>(
      Conv2dOptions{.in_channels = 1, .out_channels = 2, .kernel = 3,
                    .padding = 1},
      rng);
  seq->emplace<ReLU>();
  seq->emplace<MaxPool2d>(2);
  seq->emplace<Flatten>();
  seq->emplace<Linear>(2 * 2 * 2, 3, rng);
  check_gradients(*seq, Tensor::rand({2, 1, 4, 4}, rng, -1.0f, 1.0f), 3e-2f);
}

TEST(Grad, ResidualBlock) {
  Rng rng(17);
  auto main = std::make_shared<Sequential>();
  main->emplace<Conv2d>(
      Conv2dOptions{.in_channels = 2, .out_channels = 2, .kernel = 3,
                    .padding = 1},
      rng);
  main->emplace<Sigmoid>();
  auto res = std::make_shared<Residual>(main, std::make_shared<Identity>());
  check_gradients(*res, Tensor::rand({1, 2, 3, 3}, rng, -1.0f, 1.0f));
}

TEST(Grad, ConcatBranches) {
  Rng rng(18);
  auto b0 = std::make_shared<Conv2d>(
      Conv2dOptions{.in_channels = 2, .out_channels = 2, .kernel = 1}, rng);
  auto b1 = std::make_shared<Conv2d>(
      Conv2dOptions{.in_channels = 2, .out_channels = 3, .kernel = 1}, rng);
  Concat cat({b0, b1});
  check_gradients(cat, Tensor::rand({2, 2, 2, 2}, rng, -1.0f, 1.0f));
}

TEST(Grad, ChannelShuffle) {
  Rng rng(19);
  ChannelShuffle cs(2);
  check_gradients(cs, Tensor::rand({1, 4, 2, 2}, rng, -1.0f, 1.0f));
}

TEST(Grad, CrossEntropyMatchesNumeric) {
  Rng rng(20);
  Tensor logits = Tensor::rand({3, 4}, rng, -1.0f, 1.0f);
  const std::vector<std::int64_t> targets{0, 2, 3};
  CrossEntropyLoss ce;
  ce.forward(logits, targets);
  const Tensor g = ce.backward();

  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    const float orig = logits[i];
    CrossEntropyLoss probe;
    logits[i] = orig + eps;
    const float lp = probe.forward(logits, targets);
    logits[i] = orig - eps;
    const float lm = probe.forward(logits, targets);
    logits[i] = orig;
    EXPECT_NEAR(g[i], (lp - lm) / (2.0f * eps), 1e-2f) << "logit " << i;
  }
}

}  // namespace
}  // namespace pfi::nn
