// Unit tests for nn forward semantics, the module tree, and — centrally for
// this paper — forward hooks.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/nn.hpp"

namespace pfi::nn {
namespace {

Rng& test_rng() {
  static Rng rng(1234);
  return rng;
}

// ----------------------------------------------------------------- hooks ----

TEST(Hooks, ForwardHookSeesAndMutatesOutput) {
  ReLU relu;
  bool called = false;
  relu.register_forward_hook([&](Module& m, const Tensor& in, Tensor& out) {
    called = true;
    EXPECT_EQ(m.kind(), "ReLU");
    EXPECT_EQ(in.numel(), 4);
    out[0] = 99.0f;  // the paper's injection mechanism: mutate in place
  });
  Tensor x({4}, std::vector<float>{-1.0f, 1.0f, 2.0f, -3.0f});
  Tensor y = relu(x);
  EXPECT_TRUE(called);
  EXPECT_EQ(y[0], 99.0f);   // corrupted by hook
  EXPECT_EQ(y[1], 1.0f);    // untouched
  EXPECT_EQ(y[3], 0.0f);    // normal ReLU masking
}

TEST(Hooks, PreHookMutatesInputBeforeForward) {
  ReLU relu;
  relu.register_forward_pre_hook([](Module&, Tensor& in) { in[0] = 5.0f; });
  Tensor x({2}, std::vector<float>{-1.0f, -1.0f});
  Tensor y = relu(x);
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 0.0f);
}

TEST(Hooks, MultipleHooksRunInRegistrationOrder) {
  Identity id;
  std::vector<int> order;
  id.register_forward_hook(
      [&](Module&, const Tensor&, Tensor&) { order.push_back(1); });
  id.register_forward_hook(
      [&](Module&, const Tensor&, Tensor&) { order.push_back(2); });
  id(Tensor({1}));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Hooks, RemoveHookStopsFiring) {
  Identity id;
  int count = 0;
  const auto h = id.register_forward_hook(
      [&](Module&, const Tensor&, Tensor&) { ++count; });
  id(Tensor({1}));
  EXPECT_TRUE(id.remove_hook(h));
  EXPECT_FALSE(id.remove_hook(h));  // already gone
  id(Tensor({1}));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(id.forward_hook_count(), 0u);
}

TEST(Hooks, HooksFireOnNestedChildren) {
  // The injector instruments convs buried inside containers; hook dispatch
  // must happen when the container invokes the child.
  auto seq = std::make_shared<Sequential>();
  auto conv = seq->emplace<Conv2d>(
      Conv2dOptions{.in_channels = 1, .out_channels = 1, .kernel = 1},
      test_rng());
  seq->emplace<ReLU>();
  int fired = 0;
  conv->register_forward_hook(
      [&](Module&, const Tensor&, Tensor&) { ++fired; });
  (*seq)(Tensor({1, 1, 2, 2}, 1.0f));
  EXPECT_EQ(fired, 1);
}

TEST(Hooks, NoHooksMeansIdenticalOutput) {
  // Overhead / semantics sanity: an inactive module behaves identically
  // before and after registering-then-removing a hook.
  Rng rng(7);
  Conv2d conv(
      Conv2dOptions{.in_channels = 2, .out_channels = 3, .kernel = 3,
                    .padding = 1},
      rng);
  Tensor x = Tensor::rand({1, 2, 5, 5}, rng, -1.0f, 1.0f);
  const Tensor y0 = conv(x);
  const auto h = conv.register_forward_hook(
      [](Module&, const Tensor&, Tensor& out) { out[0] += 1.0f; });
  conv.remove_hook(h);
  const Tensor y1 = conv(x);
  EXPECT_TRUE(allclose(y0, y1, 0.0f));
}

TEST(Hooks, LastOutputShapeRecordedForProfiling) {
  ReLU relu;
  EXPECT_TRUE(relu.last_output_shape().empty());
  relu(Tensor({2, 3, 4, 4}));
  EXPECT_EQ(relu.last_output_shape(), (Shape{2, 3, 4, 4}));
}

// ------------------------------------------------------------ module tree ----

TEST(ModuleTree, ModulesIsPreOrder) {
  auto seq = std::make_shared<Sequential>();
  seq->emplace<Conv2d>(
      Conv2dOptions{.in_channels = 1, .out_channels = 2, .kernel = 3},
      test_rng());
  auto inner = std::make_shared<Sequential>();
  inner->emplace<ReLU>();
  seq->push(inner);
  const auto mods = seq->modules();
  ASSERT_EQ(mods.size(), 4u);
  EXPECT_EQ(mods[0]->kind(), "Sequential");
  EXPECT_EQ(mods[1]->kind(), "Conv2d");
  EXPECT_EQ(mods[2]->kind(), "Sequential");
  EXPECT_EQ(mods[3]->kind(), "ReLU");
}

TEST(ModuleTree, ParameterNamesAreDottedPaths) {
  auto seq = std::make_shared<Sequential>();
  seq->emplace<Conv2d>(
      Conv2dOptions{.in_channels = 1, .out_channels = 2, .kernel = 3},
      test_rng());
  seq->emplace<Linear>(4, 2, test_rng());
  const auto params = seq->parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->name, "0.weight");
  EXPECT_EQ(params[1]->name, "0.bias");
  EXPECT_EQ(params[2]->name, "1.weight");
  EXPECT_EQ(params[3]->name, "1.bias");
}

TEST(ModuleTree, ParameterCountConv) {
  Conv2d conv(
      Conv2dOptions{.in_channels = 3, .out_channels = 8, .kernel = 3},
      test_rng());
  EXPECT_EQ(conv.parameter_count(), 8 * 3 * 3 * 3 + 8);
}

TEST(ModuleTree, TrainEvalPropagates) {
  auto seq = std::make_shared<Sequential>();
  auto bn = seq->emplace<BatchNorm2d>(4);
  seq->eval();
  EXPECT_FALSE(bn->is_training());
  seq->train();
  EXPECT_TRUE(bn->is_training());
}

// ----------------------------------------------------------------- layers ----

TEST(Layers, ReLUMasksNegative) {
  ReLU relu;
  Tensor y = relu(Tensor({3}, std::vector<float>{-1.0f, 0.0f, 2.0f}));
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
}

TEST(Layers, LeakyReLUSlope) {
  LeakyReLU lr(0.1f);
  Tensor y = lr(Tensor({2}, std::vector<float>{-10.0f, 10.0f}));
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], 10.0f);
}

TEST(Layers, SigmoidRangeAndCenter) {
  Sigmoid s;
  Tensor y = s(Tensor({3}, std::vector<float>{-100.0f, 0.0f, 100.0f}));
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_NEAR(y[2], 1.0f, 1e-6f);
}

TEST(Layers, SoftmaxRowsSumToOne) {
  Softmax sm;
  Rng rng(3);
  Tensor y = sm(Tensor::rand({4, 7}, rng, -5.0f, 5.0f));
  for (std::int64_t i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (std::int64_t j = 0; j < 7; ++j) sum += y.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Layers, SoftmaxInvariantToShift) {
  Softmax sm;
  Tensor a({1, 3}, std::vector<float>{1.0f, 2.0f, 3.0f});
  Tensor b({1, 3}, std::vector<float>{101.0f, 102.0f, 103.0f});
  EXPECT_TRUE(allclose(sm(a), sm(b), 1e-6f));
}

TEST(Layers, MaxPoolPicksWindowMax) {
  MaxPool2d mp(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1.0f, 5.0f, 3.0f, 2.0f});
  Tensor y = mp(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_EQ(y[0], 5.0f);
}

TEST(Layers, MaxPoolPropagatesNaN) {
  MaxPool2d mp(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1.0f, NAN, 3.0f, 2.0f});
  Tensor y = mp(x);
  EXPECT_TRUE(std::isnan(y[0]));
}

TEST(Layers, MaxPoolStrideAndPadding) {
  MaxPool2d mp(3, 2, 1);
  Tensor x = Tensor::ones({1, 1, 5, 5});
  Tensor y = mp(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
}

TEST(Layers, MaxPoolRefusesAllPaddingWindows) {
  // With 2 * padding > kernel an edge window can hold only padding: it has
  // no element to pick, so backward would have no input index to route to.
  for (const auto& [k, s, p] : {std::tuple{2, 2, 2}, std::tuple{3, 1, 2}}) {
    try {
      MaxPool2d mp(k, s, p);
      ADD_FAILURE() << "MaxPool2d(" << k << ", " << s << ", " << p
                    << ") accepted";
    } catch (const Error& e) {
      const std::string geometry = "kernel=" + std::to_string(k) +
                                   ", stride=" + std::to_string(s) +
                                   ", padding=" + std::to_string(p);
      EXPECT_NE(std::string(e.what()).find(geometry), std::string::npos)
          << e.what();
    }
  }
  for (const auto& [k, s, p] : {std::tuple{3, 1, 1}, std::tuple{2, 2, 1}}) {
    MaxPool2d mp(k, s, p);
    const Tensor x = Tensor::ones({1, 1, 5, 5});
    Tensor g = Tensor::ones(mp(x).shape());
    EXPECT_EQ(mp.backward(g).sum(), static_cast<float>(g.numel()));
  }
}

TEST(Layers, MaxPoolRefusesKernelsPastAByte) {
  // Window offsets kh * kernel + kw are stored in one byte.
  EXPECT_NO_THROW(MaxPool2d(16));
  EXPECT_THROW(MaxPool2d(17), Error);
}

TEST(Layers, AvgPoolAverages) {
  AvgPool2d ap(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1.0f, 2.0f, 3.0f, 6.0f});
  EXPECT_FLOAT_EQ(ap(x)[0], 3.0f);
}

TEST(Layers, GlobalAvgPoolShapeAndValue) {
  GlobalAvgPool gap;
  Tensor x = Tensor::full({2, 3, 4, 4}, 2.0f);
  Tensor y = gap(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
}

TEST(Layers, FlattenShape) {
  Flatten f;
  Tensor y = f(Tensor({2, 3, 4, 5}));
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
}

TEST(Layers, DropoutEvalIsIdentityTrainScales) {
  Rng rng(5);
  Dropout d(0.5f, rng);
  Tensor x = Tensor::ones({10000});
  d.eval();
  EXPECT_TRUE(allclose(d(x), x, 0.0f));
  d.train();
  Tensor y = d(x);
  // Inverted dropout: survivors are scaled by 1/keep, mean stays ~1.
  EXPECT_NEAR(y.mean(), 1.0f, 0.05f);
  int zeros = 0;
  for (float v : y.data()) zeros += v == 0.0f ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.05);
}

TEST(Layers, ChannelShuffleInterleaves) {
  ChannelShuffle cs(2);
  // 4 channels, 1x1 spatial: [c0 c1 | c2 c3] -> [c0 c2 c1 c3].
  Tensor x({1, 4, 1, 1}, std::vector<float>{0.0f, 1.0f, 2.0f, 3.0f});
  Tensor y = cs(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  EXPECT_EQ(y[2], 1.0f);
  EXPECT_EQ(y[3], 3.0f);
}

TEST(Layers, ChannelShuffleBackwardIsInverse) {
  ChannelShuffle cs(3);
  Rng rng(8);
  Tensor x = Tensor::rand({2, 6, 2, 2}, rng);
  Tensor y = cs(x);
  Tensor back = cs.backward(y);
  EXPECT_TRUE(allclose(back, x, 0.0f));
}

// ------------------------------------------------------------------ conv ----

TEST(Conv, IdentityKernelReproducesInput) {
  Rng rng(2);
  Conv2d conv(
      Conv2dOptions{.in_channels = 1, .out_channels = 1, .kernel = 3,
                    .padding = 1},
      rng);
  conv.weight().value.fill(0.0f);
  conv.weight().value.at(0, 0, 1, 1) = 1.0f;  // center tap
  conv.bias().value.fill(0.0f);
  Tensor x = Tensor::rand({1, 1, 6, 6}, rng, -1.0f, 1.0f);
  EXPECT_TRUE(allclose(conv(x), x, 1e-6f));
}

TEST(Conv, KnownConvolution) {
  Rng rng(2);
  Conv2d conv(
      Conv2dOptions{.in_channels = 1, .out_channels = 1, .kernel = 2,
                    .bias = false},
      rng);
  conv.weight().value =
      Tensor({1, 1, 2, 2}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  Tensor x({1, 1, 3, 3},
           std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = conv(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  // Cross-correlation: w00*x(i,j) + w01*x(i,j+1) + w10*x(i+1,j) + w11*x(i+1,j+1)
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1 * 1 + 2 * 2 + 3 * 4 + 4 * 5);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 1 * 5 + 2 * 6 + 3 * 8 + 4 * 9);
}

TEST(Conv, StrideHalvesSpatial) {
  Rng rng(3);
  Conv2d conv(
      Conv2dOptions{.in_channels = 3, .out_channels = 8, .kernel = 3,
                    .stride = 2, .padding = 1},
      rng);
  Tensor y = conv(Tensor({2, 3, 8, 8}));
  EXPECT_EQ(y.shape(), (Shape{2, 8, 4, 4}));
}

TEST(Conv, GroupedConvIsBlockDiagonal) {
  // With groups=2, output channel 0 must not depend on input channel 1.
  Rng rng(4);
  Conv2d conv(
      Conv2dOptions{.in_channels = 2, .out_channels = 2, .kernel = 1,
                    .groups = 2, .bias = false},
      rng);
  Tensor x({1, 2, 1, 1}, std::vector<float>{1.0f, 1.0f});
  Tensor y0 = conv(x);
  x.at(0, 1, 0, 0) = 100.0f;  // perturb the other group's input
  Tensor y1 = conv(x);
  EXPECT_EQ(y0.at(0, 0, 0, 0), y1.at(0, 0, 0, 0));
  EXPECT_NE(y0.at(0, 1, 0, 0), y1.at(0, 1, 0, 0));
}

TEST(Conv, DepthwiseMatchesManual) {
  Rng rng(5);
  Conv2d conv(
      Conv2dOptions{.in_channels = 2, .out_channels = 2, .kernel = 1,
                    .groups = 2, .bias = false},
      rng);
  conv.weight().value = Tensor({2, 1, 1, 1}, std::vector<float>{2.0f, 3.0f});
  Tensor x({1, 2, 1, 1}, std::vector<float>{10.0f, 10.0f});
  Tensor y = conv(x);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 20.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 30.0f);
}

TEST(Conv, ValidatesInput) {
  Rng rng(6);
  Conv2d conv(
      Conv2dOptions{.in_channels = 3, .out_channels = 4, .kernel = 3}, rng);
  EXPECT_THROW(conv(Tensor({1, 2, 8, 8})), Error);  // wrong channels
  EXPECT_THROW(conv(Tensor({3, 8, 8})), Error);     // wrong rank
  EXPECT_THROW(conv(Tensor({1, 3, 2, 2})), Error);  // output would be empty
}

TEST(Conv, ValidatesConstruction) {
  Rng rng(6);
  EXPECT_THROW(Conv2d(Conv2dOptions{.in_channels = 3, .out_channels = 4,
                                    .kernel = 3, .groups = 2},
                      rng),
               Error);
}

// ---------------------------------------------------------------- linear ----

TEST(Linear, KnownValues) {
  Rng rng(7);
  Linear fc(2, 2, rng);
  fc.weight().value = Tensor({2, 2}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  fc.bias().value = Tensor({2}, std::vector<float>{0.5f, -0.5f});
  Tensor x({1, 2}, std::vector<float>{10.0f, 20.0f});
  Tensor y = fc(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 10.0f + 40.0f + 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 30.0f + 80.0f - 0.5f);
}

TEST(Linear, ValidatesInput) {
  Rng rng(7);
  Linear fc(4, 2, rng);
  EXPECT_THROW(fc(Tensor({1, 3})), Error);
}

// ------------------------------------------------------------- batchnorm ----

TEST(BatchNorm, TrainingNormalizesBatch) {
  Rng rng(9);
  BatchNorm2d bn(3);
  bn.train();
  Tensor x = Tensor::rand({8, 3, 4, 4}, rng, 5.0f, 9.0f);
  Tensor y = bn(x);
  // Per channel: mean ~0, var ~1 after normalization with gamma=1, beta=0.
  for (std::int64_t c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    const std::int64_t cnt = 8 * 4 * 4;
    for (std::int64_t n = 0; n < 8; ++n)
      for (std::int64_t h = 0; h < 4; ++h)
        for (std::int64_t w = 0; w < 4; ++w) mean += y.at(n, c, h, w);
    mean /= cnt;
    for (std::int64_t n = 0; n < 8; ++n)
      for (std::int64_t h = 0; h < 4; ++h)
        for (std::int64_t w = 0; w < 4; ++w) {
          const double d = y.at(n, c, h, w) - mean;
          var += d * d;
        }
    var /= cnt;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  bn.eval();
  bn.running_mean()[0] = 2.0f;
  bn.running_var()[0] = 4.0f;
  Tensor x = Tensor::full({1, 1, 1, 1}, 6.0f);
  // (6 - 2) / sqrt(4 + eps) ~ 2.
  EXPECT_NEAR(bn(x)[0], 2.0f, 1e-3f);
}

TEST(BatchNorm, RunningStatsUpdateTowardBatch) {
  Rng rng(10);
  BatchNorm2d bn(1, 1e-5f, 0.5f);
  bn.train();
  Tensor x = Tensor::full({4, 1, 2, 2}, 10.0f);
  bn(x);
  // mean moves half-way from 0 to 10.
  EXPECT_NEAR(bn.running_mean()[0], 5.0f, 1e-5f);
}

// -------------------------------------------------------------- containers ----

TEST(Containers, SequentialChains) {
  auto seq = std::make_shared<Sequential>();
  seq->emplace<ReLU>();
  seq->emplace<Flatten>();
  Tensor y = (*seq)(Tensor({2, 3, 2, 2}, -1.0f));
  EXPECT_EQ(y.shape(), (Shape{2, 12}));
  EXPECT_EQ(y[0], 0.0f);
}

TEST(Containers, ResidualAddsBranches) {
  auto main = std::make_shared<Identity>();
  auto sc = std::make_shared<Identity>();
  Residual res(main, sc);
  Tensor x = Tensor::full({1, 2, 2, 2}, 3.0f);
  EXPECT_FLOAT_EQ(res(x)[0], 6.0f);
}

TEST(Containers, ResidualShapeMismatchThrows) {
  Rng rng(11);
  auto main = std::make_shared<Conv2d>(
      Conv2dOptions{.in_channels = 2, .out_channels = 4, .kernel = 1}, rng);
  auto sc = std::make_shared<Identity>();
  Residual res(main, sc);
  EXPECT_THROW(res(Tensor({1, 2, 2, 2})), Error);
}

TEST(Containers, ConcatStacksChannels) {
  auto b0 = std::make_shared<Identity>();
  auto b1 = std::make_shared<Identity>();
  Concat cat({b0, b1});
  Tensor x({1, 2, 1, 1}, std::vector<float>{1.0f, 2.0f});
  Tensor y = cat(x);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 1, 1}));
  EXPECT_EQ(y[0], 1.0f);
  EXPECT_EQ(y[2], 1.0f);
}

TEST(Containers, DenseStyleConcatGrowsChannels) {
  // DenseNet connectivity: out = concat(x, f(x)).
  Rng rng(12);
  auto growth = std::make_shared<Conv2d>(
      Conv2dOptions{.in_channels = 4, .out_channels = 2, .kernel = 3,
                    .padding = 1},
      rng);
  Concat cat({std::make_shared<Identity>(), growth});
  Tensor y = cat(Tensor({1, 4, 4, 4}));
  EXPECT_EQ(y.shape(), (Shape{1, 6, 4, 4}));
}

// ------------------------------------------------------------------ loss ----

TEST(Loss, CrossEntropyUniformLogits) {
  CrossEntropyLoss ce;
  Tensor logits({2, 4});
  const std::vector<std::int64_t> t{0, 3};
  EXPECT_NEAR(ce.forward(logits, t), std::log(4.0f), 1e-5f);
}

TEST(Loss, CrossEntropyConfidentCorrectIsSmall) {
  CrossEntropyLoss ce;
  Tensor logits({1, 3}, std::vector<float>{100.0f, 0.0f, 0.0f});
  const std::vector<std::int64_t> t{0};
  EXPECT_LT(ce.forward(logits, t), 1e-4f);
}

TEST(Loss, CrossEntropyGradientSignsPushTowardTarget) {
  CrossEntropyLoss ce;
  Tensor logits({1, 3}, std::vector<float>{1.0f, 2.0f, 3.0f});
  const std::vector<std::int64_t> t{0};
  ce.forward(logits, t);
  Tensor g = ce.backward();
  EXPECT_LT(g.at(0, 0), 0.0f);  // increase target logit
  EXPECT_GT(g.at(0, 1), 0.0f);
  EXPECT_GT(g.at(0, 2), 0.0f);
}

TEST(Loss, CrossEntropyValidatesTargets) {
  CrossEntropyLoss ce;
  Tensor logits({1, 3});
  const std::vector<std::int64_t> bad{5};
  EXPECT_THROW(ce.forward(logits, bad), Error);
}

TEST(Loss, MSEKnownValue) {
  MSELoss mse;
  Tensor a({2}, std::vector<float>{1.0f, 3.0f});
  Tensor b({2}, std::vector<float>{0.0f, 0.0f});
  EXPECT_FLOAT_EQ(mse.forward(a, b), (1.0f + 9.0f) / 2.0f);
}

TEST(Loss, Metrics) {
  Tensor logits({2, 3},
                std::vector<float>{0.1f, 0.9f, 0.0f, 0.8f, 0.1f, 0.1f});
  const std::vector<std::int64_t> t{1, 2};
  EXPECT_EQ(argmax_rows(logits), (std::vector<std::int64_t>{1, 0}));
  EXPECT_DOUBLE_EQ(top1_accuracy(logits, t), 0.5);
  EXPECT_TRUE(in_top_k(logits, 1, 2, 3));
  EXPECT_FALSE(in_top_k(logits, 1, 2, 1));
}

// ------------------------------------------------------------------- sgd ----

TEST(Sgd, PlainStepMovesAgainstGradient) {
  Rng rng(13);
  Linear fc(2, 1, rng, /*bias=*/false);
  fc.weight().value.fill(1.0f);
  fc.weight().grad.fill(0.5f);
  Sgd opt({&fc.weight()}, {.lr = 0.1f, .momentum = 0.0f});
  opt.step();
  EXPECT_FLOAT_EQ(fc.weight().value[0], 1.0f - 0.05f);
}

TEST(Sgd, MomentumAccumulates) {
  Rng rng(13);
  Linear fc(1, 1, rng, false);
  fc.weight().value.fill(0.0f);
  Sgd opt({&fc.weight()}, {.lr = 1.0f, .momentum = 0.5f});
  fc.weight().grad.fill(1.0f);
  opt.step();  // v=1, w=-1
  fc.weight().grad.fill(1.0f);
  opt.step();  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(fc.weight().value[0], -2.5f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Rng rng(13);
  Linear fc(1, 1, rng, false);
  fc.weight().value.fill(2.0f);
  fc.weight().grad.fill(0.0f);
  Sgd opt({&fc.weight()}, {.lr = 0.1f, .momentum = 0.0f, .weight_decay = 0.5f});
  opt.step();
  EXPECT_FLOAT_EQ(fc.weight().value[0], 2.0f - 0.1f * 0.5f * 2.0f);
}

TEST(Sgd, TrainsLinearRegression) {
  // End-to-end sanity: fit y = 2x with MSE.
  Rng rng(14);
  Linear fc(1, 1, rng, false);
  Sgd opt({&fc.weight()}, {.lr = 0.05f, .momentum = 0.9f});
  MSELoss mse;
  for (int epoch = 0; epoch < 200; ++epoch) {
    Tensor x = Tensor::rand({8, 1}, rng, -1.0f, 1.0f);
    Tensor target = x.clone();
    target.scale_(2.0f);
    Tensor y = fc(x);
    mse.forward(y, target);
    opt.zero_grad();
    fc.backward(mse.backward());
    opt.step();
  }
  EXPECT_NEAR(fc.weight().value[0], 2.0f, 1e-2f);
}

}  // namespace
}  // namespace pfi::nn
