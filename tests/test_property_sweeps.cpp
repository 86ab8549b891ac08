// Parameterized property sweeps (TEST_P) across module configurations:
// conv geometry, injector dtypes, pooling geometry, and error-model
// invariants. Each suite states an invariant and sweeps it over a grid.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include "core/campaign.hpp"
#include "models/zoo.hpp"
#include "nn/nn.hpp"
#include "util/bits.hpp"

namespace pfi {
namespace {

using namespace pfi::nn;

// ---------------------------------------------------- conv geometry sweep ----

struct ConvCase {
  std::int64_t kernel, stride, padding, groups;
};

class ConvGeometry : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometry, OutputShapeMatchesFormulaAndGradChecks) {
  const auto p = GetParam();
  Rng rng(1);
  const std::int64_t cin = 4, cout = 4, size = 9;
  Conv2d conv(
      Conv2dOptions{.in_channels = cin, .out_channels = cout,
                    .kernel = p.kernel, .stride = p.stride,
                    .padding = p.padding, .groups = p.groups},
      rng);
  Tensor x = Tensor::rand({2, cin, size, size}, rng, -1.0f, 1.0f);
  const Tensor y = conv(x);
  const std::int64_t expect =
      (size + 2 * p.padding - p.kernel) / p.stride + 1;
  ASSERT_EQ(y.shape(), (Shape{2, cout, expect, expect}));

  // Backward smoke: gradient shapes must match and be finite.
  conv.zero_grad();
  const Tensor gx = conv.backward(Tensor::ones(y.shape()));
  ASSERT_EQ(gx.shape(), x.shape());
  for (const float v : gx.data()) ASSERT_TRUE(std::isfinite(v));
  for (const float v : conv.weight().grad.data()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_P(ConvGeometry, LinearityInInput) {
  // Convolution (with bias b): f(2x) - f(x) == f(x) - f(0). Holds for any
  // geometry — a strong algebraic property of the im2col path.
  const auto p = GetParam();
  Rng rng(2);
  Conv2d conv(
      Conv2dOptions{.in_channels = 2, .out_channels = 3, .kernel = p.kernel,
                    .stride = p.stride, .padding = p.padding,
                    .groups = 1},
      rng);
  Tensor x = Tensor::rand({1, 2, 9, 9}, rng, -1.0f, 1.0f);
  Tensor x2 = x.clone();
  x2.scale_(2.0f);
  const Tensor f0 = conv(Tensor({1, 2, 9, 9})).clone();
  const Tensor f1 = conv(x).clone();
  const Tensor f2 = conv(x2).clone();
  Tensor lhs = f2.clone();
  lhs.add_(f1, -1.0f);
  Tensor rhs = f1.clone();
  rhs.add_(f0, -1.0f);
  EXPECT_TRUE(allclose(lhs, rhs, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvGeometry,
    ::testing::Values(ConvCase{1, 1, 0, 1}, ConvCase{3, 1, 1, 1},
                      ConvCase{3, 2, 1, 1}, ConvCase{5, 1, 2, 1},
                      ConvCase{5, 2, 2, 1}, ConvCase{3, 1, 0, 1},
                      ConvCase{3, 1, 1, 2}, ConvCase{3, 1, 1, 4},
                      ConvCase{1, 1, 0, 4}, ConvCase{7, 3, 3, 1}),
    [](const auto& info) {
      // Appended piecewise: "k" + std::to_string(...) trips a false GCC 12
      // -Wrestrict warning.
      std::string name = "k";
      name += std::to_string(info.param.kernel) + "s";
      name += std::to_string(info.param.stride) + "p";
      name += std::to_string(info.param.padding) + "g";
      name += std::to_string(info.param.groups);
      return name;
    });

// ------------------------------------------------------ pooling geometry ----

class PoolGeometry
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(PoolGeometry, MaxPoolNeverInventsValues) {
  // Every output of max pooling must be an element of the input.
  const auto [kernel, stride] = GetParam();
  Rng rng(3);
  MaxPool2d mp(kernel, stride);
  const Tensor x = Tensor::rand({1, 2, 12, 12}, rng, -1.0f, 1.0f);
  const Tensor y = mp(x);
  for (const float v : y.data()) {
    bool found = false;
    for (const float xv : x.data()) found |= xv == v;
    ASSERT_TRUE(found);
  }
}

TEST_P(PoolGeometry, AvgPoolBoundedByExtremes) {
  const auto [kernel, stride] = GetParam();
  Rng rng(4);
  AvgPool2d ap(kernel, stride);
  const Tensor x = Tensor::rand({1, 2, 12, 12}, rng, -1.0f, 1.0f);
  const Tensor y = ap(x);
  EXPECT_GE(y.min(), x.min() - 1e-6f);
  EXPECT_LE(y.max(), x.max() + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Grid, PoolGeometry,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(1, 2, 3)),
                         [](const auto& info) {
                           std::string name = "k";
                           name += std::to_string(std::get<0>(info.param));
                           name += "s";
                           name += std::to_string(std::get<1>(info.param));
                           return name;
                         });

// --------------------------------------------------------- injector dtype ----

class InjectorDtype : public ::testing::TestWithParam<core::DType> {};

TEST_P(InjectorDtype, GoldenRunsAreDeterministic) {
  Rng rng(5);
  auto model = models::make_model("squeezenet", {.num_classes = 10}, rng);
  model->eval();
  core::FiConfig cfg{.input_shape = {3, 32, 32}, .batch_size = 1};
  cfg.dtype = GetParam();
  core::FaultInjector fi(model, cfg);
  Rng drng(6);
  const Tensor x = Tensor::rand({1, 3, 32, 32}, drng, -1.0f, 1.0f);
  const Tensor a = fi.forward(x).clone();
  const Tensor b = fi.forward(x);
  EXPECT_TRUE(allclose(a, b, 0.0f));
}

TEST_P(InjectorDtype, BitFlipAlwaysChangesTheTargetNeuron) {
  // Whatever the dtype, a declared single-bit flip must change the value of
  // the target neuron (a flip is never the identity).
  Rng rng(7);
  auto model = models::make_model("squeezenet", {.num_classes = 10}, rng);
  model->eval();
  core::FiConfig cfg{.input_shape = {3, 32, 32}, .batch_size = 1};
  cfg.dtype = GetParam();
  core::FaultInjector fi(model, cfg);

  Tensor golden_probe, faulty_probe;
  Tensor* sink = &golden_probe;
  fi.layer(0).register_forward_hook(
      [&](nn::Module&, const Tensor&, Tensor& out) { *sink = out.clone(); });

  Rng drng(8);
  const Tensor x = Tensor::rand({1, 3, 32, 32}, drng, -1.0f, 1.0f);
  fi.forward(x);
  sink = &faulty_probe;
  // Flip the most-significant magnitude bit for a guaranteed visible change
  // (bit 6 for int8; bit 30 for fp32; bit 14 for fp16 exponent MSB).
  const int bit = GetParam() == core::DType::kInt8
                      ? 6
                      : GetParam() == core::DType::kFloat16 ? 13 : 29;
  fi.declare_neuron_fault({.layer = 0, .batch = 0, .c = 0, .h = 3, .w = 3},
                          core::single_bit_flip(bit));
  fi.forward(x);
  fi.clear();
  EXPECT_NE(golden_probe.at(0, 0, 3, 3), faulty_probe.at(0, 0, 3, 3));
}

INSTANTIATE_TEST_SUITE_P(AllDtypes, InjectorDtype,
                         ::testing::Values(core::DType::kFloat32,
                                           core::DType::kFloat16,
                                           core::DType::kInt8),
                         [](const auto& info) {
                           return core::dtype_name(info.param);
                         });

// ------------------------------------------------------ error model sweep ----

class ErrorModelSweep : public ::testing::TestWithParam<int> {};

TEST_P(ErrorModelSweep, Fp32FlipIsInvolutionThroughTheModelContext) {
  const int bit = GetParam();
  Rng rng(9);
  core::InjectionContext ctx;
  ctx.dtype = core::DType::kFloat32;
  ctx.rng = &rng;
  const auto m = core::single_bit_flip(bit);
  for (float v : {0.0f, 1.0f, -3.25f, 100.0f, 1e-10f}) {
    const float once = m.apply(v, ctx);
    const float twice = m.apply(once, ctx);
    EXPECT_EQ(float_to_bits(twice), float_to_bits(v)) << "bit " << bit;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBits, ErrorModelSweep,
                         ::testing::Values(0, 5, 10, 15, 20, 23, 26, 29, 31));

// ----------------------------------------------------- trace replay sweep ----

// Property: for random (model, seed, dtype) campaigns, (a) the merged trace
// JSONL is byte-identical at 1 and 4 threads, and (b) replaying every
// recorded rep with TraceReplayer reproduces the recorded faulty logits
// bit-for-bit — the trace is a complete record of what the campaign did.

struct ReplaySweepCase {
  const char* model;
  std::uint64_t seed;  ///< model seed; campaign seed is seed + 1
  core::DType dtype;
};

struct TracedRun {
  std::shared_ptr<nn::Sequential> model;
  std::unique_ptr<core::FaultInjector> fi;
  trace::TraceSink sink;
  core::CampaignConfig cfg;
  TracedRun() : sink(/*capture_logits=*/true) {}
};

std::unique_ptr<TracedRun> traced_campaign(const ReplaySweepCase& c,
                                           std::int64_t threads) {
  auto run = std::make_unique<TracedRun>();
  Rng rng(c.seed);
  run->model = models::make_model(c.model, {.num_classes = 10}, rng);
  run->fi = std::make_unique<core::FaultInjector>(
      run->model, core::FiConfig{.input_shape = {3, 32, 32}, .batch_size = 4,
                                 .dtype = c.dtype});
  run->cfg.trials = 8;
  run->cfg.error_model = core::single_bit_flip();
  run->cfg.seed = c.seed + 1;
  run->cfg.batch_size = 4;
  run->cfg.injections_per_image = 2;
  run->cfg.threads = threads;
  run->cfg.trace = &run->sink;
  data::SyntheticDataset ds(data::cifar10_like());
  core::run_classification_campaign(*run->fi, ds, run->cfg);
  return run;
}

class TraceReplaySweep : public ::testing::TestWithParam<ReplaySweepCase> {};

TEST_P(TraceReplaySweep, JsonlThreadInvariantAndReplayBitExact) {
  const auto c = GetParam();
  auto serial = traced_campaign(c, 1);
  auto parallel = traced_campaign(c, 4);

  const std::string jsonl = trace::trace_to_jsonl(serial->sink.events());
  EXPECT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl, trace::trace_to_jsonl(parallel->sink.events()));

  data::SyntheticDataset ds(data::cifar10_like());
  for (TracedRun* run : {serial.get(), parallel.get()}) {
    const auto reps = trace::split_reps(run->sink.events());
    ASSERT_EQ(reps.size(), run->sink.logits().size());
    trace::TraceReplayer replayer(*run->fi);
    for (std::size_t i = 0; i < reps.size(); ++i) {
      const auto& rl = run->sink.logits()[i];
      const auto batch = core::campaign_attempt_batch(ds, run->cfg, rl.attempt);
      const Tensor replayed = replayer.replay(batch.images, reps[i]);
      EXPECT_TRUE(allclose(rl.logits, replayed, 0.0f))
          << c.model << " threads=" << run->cfg.threads << " rep " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TraceReplaySweep,
    ::testing::Values(ReplaySweepCase{"squeezenet", 90, core::DType::kFloat32},
                      ReplaySweepCase{"squeezenet", 123, core::DType::kInt8},
                      ReplaySweepCase{"alexnet", 55, core::DType::kFloat32},
                      ReplaySweepCase{"mobilenet", 77, core::DType::kFloat32}),
    [](const auto& info) {
      return std::string(info.param.model) + "_s" +
             std::to_string(info.param.seed) + "_" +
             core::dtype_name(info.param.dtype);
    });

}  // namespace
}  // namespace pfi
