// Unit and property tests for symmetric INT8 quantization + the Fig. 4
// single-bit-flip error model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "quant/quant.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pfi::quant {
namespace {

TEST(Quant, CalibrateUsesAbsMax) {
  Tensor t({4}, std::vector<float>{-5.0f, 1.0f, 2.0f, 4.0f});
  const auto qp = calibrate(t);
  EXPECT_FLOAT_EQ(qp.scale, 5.0f / 127.0f);
  EXPECT_FLOAT_EQ(qp.max_representable(), 5.0f);
}

TEST(Quant, CalibrateZeroTensorFallsBack) {
  Tensor t({3});
  const auto qp = calibrate(t);
  EXPECT_GT(qp.scale, 0.0f);
  EXPECT_EQ(quantize_value(0.0f, qp), 0);
}

TEST(Quant, CalibrateIgnoresNonFiniteValues) {
  // The emulated path follows the native one: an upstream fault's NaN or
  // +-Inf must neither poison the scale nor abort the campaign.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor mixed({4}, std::vector<float>{nan, 2.0f, kInf, -kInf});
  EXPECT_EQ(calibrate(mixed).scale, 2.0f / 127.0f);
  Tensor all_bad({3}, std::vector<float>{kInf, nan, -kInf});
  EXPECT_EQ(calibrate(all_bad).scale, 1.0f / 127.0f);
  // The round trip then saturates them: +-Inf -> +-127, NaN -> -127.
  const QuantParams qp = calibrate(mixed);
  fake_quantize_(mixed, qp);
  EXPECT_EQ(mixed[0], -127.0f * qp.scale);
  EXPECT_EQ(mixed[2], 127.0f * qp.scale);
  EXPECT_EQ(mixed[3], -127.0f * qp.scale);
}

TEST(Quant, RoundTripExactAtGridPoints) {
  const auto qp = calibrate_absmax(127.0f);  // scale = 1
  for (int q = -127; q <= 127; ++q) {
    const float v = static_cast<float>(q);
    EXPECT_EQ(quantize_value(v, qp), q);
    EXPECT_FLOAT_EQ(fake_quantize_value(v, qp), v);
  }
}

TEST(Quant, QuantizationErrorBoundedByHalfScale) {
  Rng rng(1);
  const auto qp = calibrate_absmax(3.0f);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-3.0f, 3.0f);
    EXPECT_LE(std::abs(fake_quantize_value(v, qp) - v), qp.scale * 0.5f + 1e-6f);
  }
}

TEST(Quant, OutOfRangeClamps) {
  const auto qp = calibrate_absmax(1.0f);
  EXPECT_EQ(quantize_value(100.0f, qp), 127);
  EXPECT_EQ(quantize_value(-100.0f, qp), -127);
}

TEST(Quant, FakeQuantizeTensorInPlace) {
  Tensor t({3}, std::vector<float>{0.1f, -0.5f, 0.951f});
  const auto qp = calibrate(t);
  fake_quantize_(t, qp);
  for (float v : t.data()) {
    const float q = v / qp.scale;
    EXPECT_NEAR(q, std::nearbyint(q), 1e-3f);
  }
}

TEST(Quant, BitFlipStaysRepresentable) {
  // Whatever bit flips, the corrupted value must remain on the INT8 grid —
  // the defining property of the paper's quantized error model (unlike FP32
  // flips, no flip can produce a huge out-of-range value).
  Rng rng(2);
  const auto qp = calibrate_absmax(6.0f);
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.uniform(-6.0f, 6.0f);
    const int bit = static_cast<int>(rng.next_below(8));
    const float corrupted = flip_bit_int8(v, bit, qp);
    EXPECT_LE(std::abs(corrupted), 128.0f * qp.scale + 1e-5f);
    const float q = corrupted / qp.scale;
    EXPECT_NEAR(q, std::nearbyint(q), 1e-3f);
  }
}

TEST(Quant, SignBitFlipNegates) {
  const auto qp = calibrate_absmax(127.0f);  // scale = 1
  // +3 (0b00000011) with sign bit flipped -> -125 in two's complement.
  EXPECT_FLOAT_EQ(flip_bit_int8(3.0f, 7, qp), -125.0f);
}

TEST(Quant, LowBitFlipIsSmallPerturbation) {
  const auto qp = calibrate_absmax(127.0f);
  const float corrupted = flip_bit_int8(64.0f, 0, qp);
  EXPECT_NEAR(corrupted, 64.0f, 1.0f + 1e-6f);
  EXPECT_NE(corrupted, 64.0f);
}

TEST(Quant, HighMagnitudeBitFlipIsLargePerturbation) {
  const auto qp = calibrate_absmax(127.0f);
  // Bit 6 carries 64 levels.
  EXPECT_NEAR(std::abs(flip_bit_int8(1.0f, 6, qp) - 1.0f), 64.0f, 1e-5f);
}

TEST(Quant, CalibratePerChannelScalesEachRowIndependently) {
  // [3, 2] tensor: channel c is row c; each gets its own absmax scale.
  Tensor t({3, 2},
           std::vector<float>{1.0f, -4.0f, 0.5f, 0.25f, -127.0f, 3.0f});
  const auto qps = calibrate_per_channel(t);
  ASSERT_EQ(qps.size(), 3u);
  EXPECT_FLOAT_EQ(qps[0].scale, 4.0f / 127.0f);
  EXPECT_FLOAT_EQ(qps[1].scale, 0.5f / 127.0f);
  EXPECT_FLOAT_EQ(qps[2].scale, 1.0f);
  // Each channel's absmax sits exactly on its grid endpoint.
  EXPECT_EQ(quantize_value(-4.0f, qps[0]), -127);
  EXPECT_EQ(quantize_value(0.5f, qps[1]), 127);
}

TEST(Quant, CalibratePerChannelAllZeroChannelFallsBack) {
  // Zero is a valid (degenerate) calibration: the standard 1/127 fallback,
  // not a refusal.
  Tensor t({2, 3},
           std::vector<float>{0.0f, 0.0f, 0.0f, 1.0f, -2.0f, 0.5f});
  const auto qps = calibrate_per_channel(t);
  ASSERT_EQ(qps.size(), 2u);
  EXPECT_FLOAT_EQ(qps[0].scale, 1.0f / 127.0f);
  EXPECT_FLOAT_EQ(qps[1].scale, 2.0f / 127.0f);
}

TEST(Quant, CalibratePerChannelIgnoresNonFiniteOutliers) {
  // A NaN or Inf entry must not poison the channel's absmax as long as at
  // least one finite value remains.
  Tensor t({1, 3},
           std::vector<float>{std::numeric_limits<float>::quiet_NaN(), 2.0f,
                              std::numeric_limits<float>::infinity()});
  const auto qps = calibrate_per_channel(t);
  ASSERT_EQ(qps.size(), 1u);
  EXPECT_FLOAT_EQ(qps[0].scale, 2.0f / 127.0f);
}

TEST(Quant, CalibratePerChannelRefusesDegenerateInputs) {
  // Undefined tensor / scalar-with-no-channel-dim.
  EXPECT_THROW(calibrate_per_channel(Tensor()), Error);
  // A channel whose every entry is non-finite has no meaningful scale.
  Tensor all_bad({2, 2},
                 std::vector<float>{1.0f, 2.0f,
                                    std::numeric_limits<float>::quiet_NaN(),
                                    -std::numeric_limits<float>::infinity()});
  try {
    calibrate_per_channel(all_bad);
    ADD_FAILURE() << "expected a refusal for the all-non-finite channel";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("channel 1 has no finite values"),
              std::string::npos)
        << e.what();
  }
}

struct BitSweepParam {
  int bit;
};

class QuantBitSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantBitSweep, FlipIsDeterministicAndNontrivial) {
  const int bit = GetParam();
  const auto qp = calibrate_absmax(2.0f);
  const float v = 1.0f;
  const float a = flip_bit_int8(v, bit, qp);
  const float b = flip_bit_int8(v, bit, qp);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, fake_quantize_value(v, qp))
      << "flipping bit " << bit << " must change the value";
}

INSTANTIATE_TEST_SUITE_P(AllBits, QuantBitSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace pfi::quant
