// Tests for parameter serialization (save / load / copy) and the Adam
// optimizer.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "models/zoo.hpp"
#include "nn/nn.hpp"

namespace pfi::nn {
namespace {

std::string temp_path(const char* tag) {
  return std::string("/tmp/pfi_test_") + tag + ".pfiw";
}

TEST(Serialize, RoundTripRestoresExactOutputs) {
  Rng rng(1);
  auto a = models::make_model("resnet18", {.num_classes = 10}, rng);
  a->eval();
  Rng drng(2);
  const Tensor x = Tensor::rand({1, 3, 32, 32}, drng, -1.0f, 1.0f);
  const Tensor before = (*a)(x).clone();

  const std::string path = temp_path("roundtrip");
  save_parameters(*a, path);

  // A differently initialized model of the same architecture.
  Rng rng2(99);
  auto b = models::make_model("resnet18", {.num_classes = 10}, rng2);
  b->eval();
  EXPECT_FALSE(allclose((*b)(x), before, 1e-3f));
  load_parameters(*b, path);
  EXPECT_TRUE(allclose((*b)(x), before, 0.0f));
  std::remove(path.c_str());
}

TEST(Serialize, PreservesBatchNormRunningStats) {
  Rng rng(3);
  BatchNorm2d bn(2);
  bn.running_mean()[0] = 5.0f;
  bn.running_var()[1] = 9.0f;
  const std::string path = temp_path("bn");
  save_parameters(bn, path);
  BatchNorm2d restored(2);
  load_parameters(restored, path);
  EXPECT_EQ(restored.running_mean()[0], 5.0f);
  EXPECT_EQ(restored.running_var()[1], 9.0f);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsStructuralMismatch) {
  Rng rng(4);
  auto a = models::make_model("squeezenet", {.num_classes = 10}, rng);
  const std::string path = temp_path("mismatch");
  save_parameters(*a, path);
  auto b = models::make_model("mobilenet", {.num_classes = 10}, rng);
  EXPECT_THROW(load_parameters(*b, path), Error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbageFile) {
  const std::string path = temp_path("garbage");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a weight file at all";
  }
  Rng rng(5);
  auto m = models::make_model("squeezenet", {.num_classes = 10}, rng);
  EXPECT_THROW(load_parameters(*m, path), Error);
  EXPECT_THROW(load_parameters(*m, "/nonexistent/dir/x.pfiw"), Error);

  // A valid file cut into its 16-byte header and its entries (u32 name
  // length, name, u64 numel, numel floats), then reassembled wrongly.
  save_parameters(*m, path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::vector<std::string> entries, names;
  for (std::size_t at = 16; at < bytes.size();) {
    std::uint32_t name_len = 0;
    std::uint64_t numel = 0;
    std::memcpy(&name_len, bytes.data() + at, sizeof(name_len));
    std::memcpy(&numel, bytes.data() + at + 4 + name_len, sizeof(numel));
    const std::size_t len = 4 + name_len + 8 + numel * sizeof(float);
    entries.push_back(bytes.substr(at, len));
    names.push_back(bytes.substr(at + 4, name_len));
    at += len;
  }
  ASSERT_GE(entries.size(), 2u);
  const auto refusal = [&](const std::string& content) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << content;
    }
    try {
      load_parameters(*m, path);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("loaded");
  };
  // Entry 0 again in place of entry 1: the entry count still matches, but
  // the tensor of entry 1 would keep whatever value it held.
  std::string repeated = bytes.substr(0, 16) + entries[0] + entries[0];
  for (std::size_t i = 2; i < entries.size(); ++i) repeated += entries[i];
  EXPECT_NE(refusal(repeated).find("tensor '" + names[0] + "' twice"),
            std::string::npos);
  EXPECT_NE(refusal(bytes + "7 bytes").find("bytes after its last tensor"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Serialize, CopyParametersForksIdenticalModels) {
  Rng rng(6);
  auto a = models::make_model("resnet18", {.num_classes = 10}, rng);
  Rng rng2(7);
  auto b = models::make_model("resnet18", {.num_classes = 10}, rng2);
  copy_parameters(*a, *b);
  a->eval();
  b->eval();
  Rng drng(8);
  const Tensor x = Tensor::rand({1, 3, 32, 32}, drng, -1.0f, 1.0f);
  EXPECT_TRUE(allclose((*a)(x), (*b)(x), 0.0f));
  // Independent storage: mutating one does not affect the other.
  a->parameters()[0]->value[0] += 1.0f;
  EXPECT_FALSE(allclose((*a)(x), (*b)(x), 1e-9f));
}

TEST(Serialize, CopyRejectsDifferentArchitectures) {
  Rng rng(9);
  auto a = models::make_model("squeezenet", {.num_classes = 10}, rng);
  auto b = models::make_model("vgg19", {.num_classes = 10}, rng);
  EXPECT_THROW(copy_parameters(*a, *b), Error);
}

// -------------------------------------------------------------------- Adam ----

TEST(Adam, ValidatesOptions) {
  Rng rng(10);
  Linear fc(1, 1, rng, false);
  EXPECT_THROW(Adam({&fc.weight()}, {.lr = 0.0f}), Error);
  EXPECT_THROW(Adam({&fc.weight()}, {.beta1 = 1.0f}), Error);
  EXPECT_THROW(Adam({}, {}), Error);
}

TEST(Adam, FirstStepMovesByLr) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  Rng rng(11);
  Linear fc(1, 1, rng, false);
  fc.weight().value.fill(0.0f);
  fc.weight().grad.fill(0.5f);
  Adam opt({&fc.weight()}, {.lr = 0.1f});
  opt.step();
  EXPECT_NEAR(fc.weight().value[0], -0.1f, 1e-4f);
}

TEST(Adam, SolvesLinearRegression) {
  Rng rng(12);
  Linear fc(1, 1, rng, false);
  Adam opt({&fc.weight()}, {.lr = 0.05f});
  MSELoss mse;
  for (int i = 0; i < 300; ++i) {
    Tensor x = Tensor::rand({8, 1}, rng, -1.0f, 1.0f);
    Tensor target = x.clone();
    target.scale_(-3.0f);
    mse.forward(fc(x), target);
    opt.zero_grad();
    fc.backward(mse.backward());
    opt.step();
  }
  EXPECT_NEAR(fc.weight().value[0], -3.0f, 0.05f);
}

TEST(Adam, AdaptsToGradientScale) {
  // Two parameters with wildly different gradient magnitudes move at
  // comparable speeds — Adam's defining property vs plain SGD.
  Rng rng(13);
  Linear a(1, 1, rng, false), b(1, 1, rng, false);
  a.weight().value.fill(0.0f);
  b.weight().value.fill(0.0f);
  Adam opt({&a.weight(), &b.weight()}, {.lr = 0.01f});
  for (int i = 0; i < 50; ++i) {
    a.weight().grad.fill(1000.0f);
    b.weight().grad.fill(0.001f);
    opt.step();
  }
  EXPECT_NEAR(a.weight().value[0] / b.weight().value[0], 1.0f, 0.1f);
}

}  // namespace
}  // namespace pfi::nn
