// Differential correctness harness for the native low-precision inference
// paths (kernels/lowp.hpp + the Conv2d/Linear dtype dispatch).
//
// The INT8 GEMM is integer arithmetic end to end, so unlike the fp32
// kernel it can be validated EXACTLY:
//  1. gemm_i8 against an int64-accumulator scalar oracle over a 1..67
//     shape sweep (no error bounds — the i32 result must match to the bit),
//  2. memcmp bit-identity across ISAs (scalar / AVX2 madd / VNNI,
//     whichever the host supports),
//  3. the full Conv2d/Linear forward_int8 path against a from-scratch
//     oracle that re-derives im2col, the quantizers, and the fma
//     requantize epilogue — bit-equal, including grouped/strided convs and
//     the static path's frozen scales, output grid and fused ReLU,
//  4. native vs fp32 execution within the analytic quantization-error
//     bound (the "one quantization ULP" differential), and native
//     single-bit code flips round-tripping bit-identically through the
//     deployed representation (the emulated injector's flip semantics).
// The fp16/bf16 storage path widens exactly, so its forward must be
// BIT-EQUAL to the fp32 forward over pre-narrowed operands.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <optional>
#include <vector>

#include "core/campaign.hpp"
#include "core/fault_injector.hpp"
#include "core/report.hpp"
#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "nn/nn.hpp"
#include "quant/quant.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"

namespace pfi::kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kQNaN = std::numeric_limits<float>::quiet_NaN();

/// Restores the kernel configuration (including the pinned INT8 ISA) after
/// every test.
class NativeGemmI8 : public ::testing::Test {
 protected:
  void TearDown() override { set_i8_isa(I8Isa::kAuto); }
};
using NativeConvInt8 = NativeGemmI8;
using NativeLinearInt8 = NativeGemmI8;
using NativeStorage16 = NativeGemmI8;
using NativeCache = NativeGemmI8;
using NativeInjector = NativeGemmI8;

/// Every INT8 ISA the host supports (kScalar always; kMadd/kVnni probed —
/// set_i8_isa throws on unsupported hardware).
std::vector<I8Isa> supported_i8_isas() {
  std::vector<I8Isa> isas{I8Isa::kScalar};
  for (const I8Isa isa : {I8Isa::kMadd, I8Isa::kVnni}) {
    try {
      set_i8_isa(isa);
      isas.push_back(isa);
    } catch (const Error&) {
    }
  }
  set_i8_isa(I8Isa::kAuto);
  return isas;
}

std::vector<float> random_matrix(std::int64_t n, Rng& rng, float lo = -2.0f,
                                 float hi = 2.0f) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

float logical(const std::vector<float>& m, std::int64_t ld, bool trans,
              std::int64_t r, std::int64_t c) {
  return trans ? m[static_cast<std::size_t>(c * ld + r)]
               : m[static_cast<std::size_t>(r * ld + c)];
}

float absmax_of(const std::vector<float>& v) {
  float a = 0.0f;
  for (const float x : v) a = std::max(a, std::abs(x));
  return a;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

// ----------------------------------------------- int64 oracle shape sweep ----

TEST_F(NativeGemmI8, MatchesInt64OracleOnShapeSweep) {
  Rng rng(0x17e8);
  const std::int64_t dims[] = {1, 2, 3, 5, 8, 13, 31, 67};
  std::vector<std::array<std::int64_t, 3>> shapes;
  for (const auto m : dims) {
    for (const auto n : dims) {
      for (const auto k : dims) shapes.push_back({m, n, k});
    }
  }
  // Two 48-row and two 240-column macro tiles of gemm_i8's grid.
  shapes.push_back({49, 241, 129});
  int case_index = 0;
  for (const auto& [m, n, k] : shapes) {
    const bool ta = (case_index & 1) != 0;
    const bool tb = (case_index & 2) != 0;
    ++case_index;
    const std::int64_t lda = ta ? m : k;
    const std::int64_t ldb = tb ? k : n;
    const auto a = random_matrix(m * k, rng);
    const auto b = random_matrix(k * n, rng);

    // Per-row weight scales for A, one dynamic tensor scale for B —
    // the conv operand roles.
    const auto row_scales = per_row_scales_i8(m, k, a.data(), lda, ta);
    ASSERT_EQ(row_scales.size(), static_cast<std::size_t>(m));
    const float b_scale = scale_from_absmax(absmax_of(b));

    PackedPanelsI8 pa, pb;
    quantize_pack_a_i8(m, k, a.data(), lda, ta, block_config().mr,
                       row_scales.data(), pa);
    quantize_pack_b_i8_tensor(k, n, b.data(), ldb, tb, pb);
    ASSERT_EQ(pb.scale.size(), 1u);
    EXPECT_EQ(pb.scale[0], b_scale)
        << "per-tensor pack scale drifted from scale_from_absmax";

    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
    gemm_i8(m, n, k, pa, pb, c.data(), n);

    // The oracle re-quantizes every element independently with the
    // same scalar quantizer and accumulates in int64; the kernel's
    // i32 result must match exactly.
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        std::int64_t acc = 0;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const std::int64_t qa =
              quantize_unit(logical(a, lda, ta, i, kk), row_scales[i]);
          const std::int64_t qb =
              quantize_unit(logical(b, ldb, tb, kk, j), b_scale);
          acc += qa * qb;
        }
        ASSERT_EQ(static_cast<std::int64_t>(
                      c[static_cast<std::size_t>(i * n + j)]),
                  acc)
            << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
            << " tb=" << tb << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST_F(NativeGemmI8, BitIdenticalAcrossIsa) {
  Rng rng(0x5ca1e);
  const std::int64_t m = 67, n = 45, k = 129;
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  const auto row_scales = per_row_scales_i8(m, k, a.data(), k, false);

  const auto run = [&] {
    PackedPanelsI8 pa, pb;
    quantize_pack_a_i8(m, k, a.data(), k, false, block_config().mr,
                       row_scales.data(), pa);
    quantize_pack_b_i8_tensor(k, n, b.data(), n, false, pb);
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
    gemm_i8(m, n, k, pa, pb, c.data(), n);
    return c;
  };

  set_i8_isa(I8Isa::kScalar);
  const auto baseline = run();
  for (const I8Isa isa : supported_i8_isas()) {
    set_i8_isa(isa);
    const auto c = run();
    EXPECT_EQ(std::memcmp(baseline.data(), c.data(),
                          c.size() * sizeof(std::int32_t)),
              0)
        << "isa=" << static_cast<int>(isa) << " changed INT8 GEMM bits";
  }
}

// --------------------------------------------------- quantizer semantics ----

TEST_F(NativeGemmI8, QuantizeUnitDeterministicSaturation) {
  // Non-finite activations must map to fixed codes, never abort: NaN is
  // "unknown magnitude" -> most-negative code, +-Inf saturate the grid.
  EXPECT_EQ(quantize_unit(kQNaN, 0.5f), -127);
  EXPECT_EQ(quantize_unit(kInf, 0.5f), 127);
  EXPECT_EQ(quantize_unit(-kInf, 0.5f), -127);
  EXPECT_EQ(quantize_unit(1e30f, 0.5f), 127);
  EXPECT_EQ(quantize_unit(-1e30f, 0.5f), -127);
  // Round-to-nearest-even at scale 1: halfway cases break to even.
  EXPECT_EQ(quantize_unit(0.5f, 1.0f), 0);
  EXPECT_EQ(quantize_unit(1.5f, 1.0f), 2);
  EXPECT_EQ(quantize_unit(2.5f, 1.0f), 2);
  EXPECT_EQ(quantize_unit(-0.5f, 1.0f), 0);
  EXPECT_EQ(quantize_unit(-1.5f, 1.0f), -2);
}

TEST_F(NativeGemmI8, PerRowScalesRejectNonFiniteWeights) {
  std::vector<float> w(3 * 4, 0.25f);
  const auto ok = per_row_scales_i8(3, 4, w.data(), 4, false);
  ASSERT_EQ(ok.size(), 3u);
  for (const float s : ok) EXPECT_FLOAT_EQ(s, 0.25f / 127.0f);

  // An all-zero row is a valid (degenerate) calibration: 1/127 fallback.
  std::fill(w.begin() + 4, w.begin() + 8, 0.0f);
  const auto with_zero = per_row_scales_i8(3, 4, w.data(), 4, false);
  EXPECT_FLOAT_EQ(with_zero[1], 1.0f / 127.0f);

  // A NaN/Inf weight has no INT8 code; silent saturation would deploy
  // garbage, so the calibration must refuse.
  w[5] = kQNaN;
  EXPECT_THROW(per_row_scales_i8(3, 4, w.data(), 4, false), Error);
  w[5] = kInf;
  EXPECT_THROW(per_row_scales_i8(3, 4, w.data(), 4, false), Error);
}

TEST_F(NativeGemmI8, CodeGridFlipRoundTripsBitIdentically) {
  // The property that makes native weight faults equal the emulated
  // injector's flip semantics: dequantize(flip(q)) re-quantizes to exactly
  // flip(q) under the frozen scale, so the mutated float weight deploys as
  // precisely the flipped code on repack.
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const float scale = rng.uniform(1e-4f, 3.0f);
    for (int q = -127; q <= 127; ++q) {
      for (int bit = 0; bit < 7; ++bit) {  // sign bit handled below
        const auto flipped = static_cast<std::int8_t>(
            static_cast<std::int8_t>(q) ^ static_cast<std::int8_t>(1 << bit));
        if (flipped == -128) continue;  // not on the symmetric grid
        const float deployed = static_cast<float>(flipped) * scale;
        EXPECT_EQ(quantize_unit(deployed, scale), flipped)
            << "q=" << q << " bit=" << bit << " scale=" << scale;
      }
    }
  }
  // Sign-bit flip of code 0 lands on -128, which the symmetric [-127, 127]
  // grid cannot hold: the deployed code saturates to -127. Pin that
  // decision so a change to it is deliberate.
  const float s = 0.5f;
  EXPECT_EQ(quantize_unit(-128.0f * s, s), -127);
}

// ---------------------------------------- module forward: exact oracles ----

struct ConvCase {
  std::int64_t cin, cout, kernel, stride, padding, groups, h;
  bool bias;
};
constexpr ConvCase kConvCases[] = {
    {2, 3, 1, 1, 0, 1, 5, true},    // 1x1
    {3, 4, 3, 1, 1, 1, 7, true},    // the workhorse 3x3
    {3, 2, 3, 2, 1, 1, 9, false},   // strided
    {4, 4, 2, 2, 0, 1, 8, true},    // even kernel, no pad
    {4, 6, 3, 1, 1, 2, 6, true},    // grouped
    {3, 3, 3, 1, 1, 3, 6, false},   // depthwise
    {4, 8, 5, 2, 2, 2, 11, true},   // grouped + strided + k=5
};

/// The frozen activation scales of a static INT8 conv: the input grid, the
/// output grid, and whether the epilogue rectifies on the codes.
struct StaticGrid {
  float in_scale, out_scale;
  bool relu;
};

/// From-scratch oracle of Conv2d::forward_int8: re-derives im2col, the
/// per-output-channel weight scales, the per-(sample, group) activation
/// scale, int64 accumulation, and the fma requantize epilogue. Everything
/// is recomputed independently, so agreement pins the whole pipeline.
/// With `grid`, the activation scale is the frozen input scale and each
/// output is snapped onto the frozen output grid as code * out_scale, the
/// code rectified first when `grid->relu`.
Tensor conv_int8_oracle(const nn::Conv2d& conv_const, const Tensor& x,
                        const std::vector<float>& w_scales,
                        std::optional<StaticGrid> grid = std::nullopt) {
  auto& conv = const_cast<nn::Conv2d&>(conv_const);
  const auto& o = conv.options();
  const std::int64_t n_batch = x.size(0);
  const std::int64_t cin_g = o.in_channels / o.groups;
  const std::int64_t cout_g = o.out_channels / o.groups;
  const std::int64_t col_rows = cin_g * o.kernel * o.kernel;
  const std::int64_t h_out = conv.out_size(x.size(2));
  const std::int64_t w_out = conv.out_size(x.size(3));
  Tensor y({n_batch, o.out_channels, h_out, w_out});

  const auto col_value = [&](std::int64_t n, std::int64_t grp,
                             std::int64_t row, std::int64_t oh,
                             std::int64_t ow) {
    const std::int64_t ic = row / (o.kernel * o.kernel);
    const std::int64_t kh = (row / o.kernel) % o.kernel;
    const std::int64_t kw = row % o.kernel;
    const std::int64_t ih = oh * o.stride - o.padding + kh;
    const std::int64_t iw = ow * o.stride - o.padding + kw;
    if (ih < 0 || ih >= x.size(2) || iw < 0 || iw >= x.size(3)) return 0.0f;
    return x.at(n, grp * cin_g + ic, ih, iw);
  };

  const auto& w = conv.weight().value;
  for (std::int64_t grp = 0; grp < o.groups; ++grp) {
    for (std::int64_t n = 0; n < n_batch; ++n) {
      // Per-tensor dynamic activation scale over this (sample, group)'s
      // im2col matrix — padding zeros included, as the kernel sees it.
      float absmax = 0.0f;
      for (std::int64_t row = 0; row < col_rows; ++row) {
        for (std::int64_t oh = 0; oh < h_out; ++oh) {
          for (std::int64_t ow = 0; ow < w_out; ++ow) {
            const float v = col_value(n, grp, row, oh, ow);
            if (std::isfinite(v)) absmax = std::max(absmax, std::abs(v));
          }
        }
      }
      const float sa = grid ? grid->in_scale : scale_from_absmax(absmax);
      for (std::int64_t oc_g = 0; oc_g < cout_g; ++oc_g) {
        const std::int64_t oc = grp * cout_g + oc_g;
        const float sw = w_scales[static_cast<std::size_t>(oc)];
        const float bias_v = o.bias ? conv.bias().value[oc] : 0.0f;
        for (std::int64_t oh = 0; oh < h_out; ++oh) {
          for (std::int64_t ow = 0; ow < w_out; ++ow) {
            std::int64_t acc = 0;
            for (std::int64_t row = 0; row < col_rows; ++row) {
              const std::int64_t ic = row / (o.kernel * o.kernel);
              const std::int64_t kh = (row / o.kernel) % o.kernel;
              const std::int64_t kw = row % o.kernel;
              const std::int64_t qw =
                  quantize_unit(w.at(oc, ic, kh, kw), sw);
              const std::int64_t qa =
                  quantize_unit(col_value(n, grp, row, oh, ow), sa);
              acc += qw * qa;
            }
            const float v = std::fma(sw * sa, static_cast<float>(acc), bias_v);
            if (!grid) {
              y.at(n, oc, oh, ow) = v;
              continue;
            }
            int code = quantize_unit(v, grid->out_scale);
            if (grid->relu && code < 0) code = 0;
            y.at(n, oc, oh, ow) = static_cast<float>(code) * grid->out_scale;
          }
        }
      }
    }
  }
  return y;
}

TEST_F(NativeConvInt8, ForwardMatchesExactOracleAcrossConfigSweep) {
  // Each geometry runs with dynamic and with static (frozen) activation
  // scales, each with ReLU fusion off and on; only the static path fuses.
  Rng rng(91);
  for (const auto& cs : kConvCases) {
    nn::Conv2d conv(
        nn::Conv2dOptions{.in_channels = cs.cin, .out_channels = cs.cout,
                          .kernel = cs.kernel, .stride = cs.stride,
                          .padding = cs.padding, .groups = cs.groups,
                          .bias = cs.bias},
        rng);
    const Tensor x = Tensor::rand({2, cs.cin, cs.h, cs.h}, rng, -1.0f, 1.0f);
    conv.eval();
    conv.set_native_dtype(LowPrec::kInt8);
    const float in_scale =
        scale_from_absmax(finite_absmax_i8(x.data().data(), x.numel()));
    const float out_scale = 0.04f;
    for (const bool static_act : {false, true}) {
      if (static_act) conv.set_static_act(in_scale, out_scale);
      for (const bool fuse : {false, true}) {
        conv.set_fuse_relu(fuse);
        ASSERT_EQ(conv.relu_fused_output(), static_act && fuse);
        const Tensor y = conv(x).clone();
        ASSERT_EQ(conv.native_scales().size(),
                  static_cast<std::size_t>(cs.cout));
        std::optional<StaticGrid> grid;
        if (static_act) grid = StaticGrid{in_scale, out_scale, fuse};
        const Tensor ref =
            conv_int8_oracle(conv, x, conv.native_scales(), grid);
        EXPECT_TRUE(bit_equal(y, ref))
            << "native INT8 conv k=" << cs.kernel << " s=" << cs.stride
            << " p=" << cs.padding << " g=" << cs.groups
            << " static=" << static_act << " fuse=" << fuse
            << " diverged from the int64 oracle (max diff "
            << y.max_abs_diff(ref) << ")";
      }
    }
  }
}

TEST_F(NativeConvInt8, BitIdenticalAcrossIsa) {
  Rng rng(92);
  nn::Conv2d conv(
      nn::Conv2dOptions{.in_channels = 4, .out_channels = 6, .kernel = 3,
                        .stride = 2, .padding = 1, .groups = 2},
      rng);
  const Tensor x = Tensor::rand({2, 4, 11, 11}, rng, -1.0f, 1.0f);
  conv.set_native_dtype(LowPrec::kInt8);
  const Tensor baseline = conv(x).clone();
  for (const I8Isa isa : supported_i8_isas()) {
    set_i8_isa(isa);
    conv.invalidate_weight_packs();  // force a repack under this ISA
    const Tensor y = conv(x).clone();
    EXPECT_TRUE(bit_equal(baseline, y))
        << "isa=" << static_cast<int>(isa) << " changed native conv bits";
  }
}

TEST_F(NativeLinearInt8, ForwardMatchesExactOracle) {
  Rng rng(93);
  for (const bool bias : {true, false}) {
    nn::Linear fc(13, 9, rng, bias);
    const Tensor x = Tensor::rand({4, 13}, rng, -1.5f, 1.5f);
    fc.set_native_dtype(LowPrec::kInt8);
    const Tensor y = fc(x).clone();
    const auto& sw = fc.native_scales();
    ASSERT_EQ(sw.size(), 9u);

    float absmax = 0.0f;
    for (const float v : x.data()) absmax = std::max(absmax, std::abs(v));
    const float sa = scale_from_absmax(absmax);
    for (std::int64_t i = 0; i < 4; ++i) {
      for (std::int64_t o = 0; o < 9; ++o) {
        std::int64_t acc = 0;
        for (std::int64_t j = 0; j < 13; ++j) {
          acc += static_cast<std::int64_t>(quantize_unit(x.at(i, j), sa)) *
                 quantize_unit(fc.weight().value.at(o, j),
                               sw[static_cast<std::size_t>(o)]);
        }
        const float b = bias ? fc.bias().value[o] : 0.0f;
        EXPECT_EQ(y.at(i, o),
                  std::fma(sa * sw[static_cast<std::size_t>(o)],
                           static_cast<float>(acc), b))
            << "bias=" << bias << " at (" << i << "," << o << ")";
      }
    }
  }
}

// ------------------------------- native vs fp32: quantization ULP bound ----

TEST_F(NativeLinearInt8, WithinQuantizationErrorBoundOfFp32) {
  // The differential the harness is named for: native INT8 execution must
  // sit within the analytic quantization-error envelope of the fp32
  // forward. With |x_q - x| <= sa/2 and |w_q - w| <= sw/2 per element, the
  // per-output bound is sw/2 * sum|x| + sa/2 * sum|w| + K/4 * sa * sw,
  // plus fp32 accumulation slop.
  Rng rng(94);
  nn::Linear fc(31, 7, rng);
  const Tensor x = Tensor::rand({3, 31}, rng, -2.0f, 2.0f);
  const Tensor y_fp32 = fc(x).clone();
  fc.set_native_dtype(LowPrec::kInt8);
  const Tensor y_i8 = fc(x).clone();
  const auto& sw = fc.native_scales();

  float absmax = 0.0f;
  for (const float v : x.data()) absmax = std::max(absmax, std::abs(v));
  const float sa = scale_from_absmax(absmax);
  for (std::int64_t i = 0; i < 3; ++i) {
    float sum_ax = 0.0f;
    for (std::int64_t j = 0; j < 31; ++j) sum_ax += std::abs(x.at(i, j));
    for (std::int64_t o = 0; o < 7; ++o) {
      float sum_aw = 0.0f;
      for (std::int64_t j = 0; j < 31; ++j) {
        sum_aw += std::abs(fc.weight().value.at(o, j));
      }
      const float so = sw[static_cast<std::size_t>(o)];
      const float bound = 0.5f * so * sum_ax + 0.5f * sa * sum_aw +
                          0.25f * 31.0f * sa * so + 1e-4f;
      EXPECT_LE(std::abs(y_i8.at(i, o) - y_fp32.at(i, o)), bound)
          << "native INT8 linear exceeded its quantization-error envelope "
          << "at (" << i << "," << o << ")";
    }
  }
}

// ------------------------------------------ fp16/bf16 storage bit-equality ----

TEST_F(NativeStorage16, LinearForwardBitEqualsPreNarrowedFp32) {
  // Widening 16-bit codes is exact, so the native forward must be
  // BIT-EQUAL to the fp32 forward over operands pre-rounded through the
  // storage format — no tolerance.
  Rng rng(95);
  for (const LowPrec native : {LowPrec::kFp16, LowPrec::kBf16}) {
    const Storage16 fmt =
        native == LowPrec::kFp16 ? Storage16::kFp16 : Storage16::kBf16;
    nn::Linear fc(11, 6, rng);
    nn::Linear ref(11, 6, rng);
    for (std::int64_t i = 0; i < 6 * 11; ++i) {
      ref.weight().value[i] = widen16(narrow16(fc.weight().value[i], fmt),
                                      fmt);
    }
    for (std::int64_t o = 0; o < 6; ++o) {
      ref.bias().value[o] = widen16(narrow16(fc.bias().value[o], fmt), fmt);
    }
    const Tensor x = Tensor::rand({3, 11}, rng, -2.0f, 2.0f);
    Tensor xr = x.clone();
    for (auto& v : xr.data()) v = widen16(narrow16(v, fmt), fmt);

    fc.set_native_dtype(native);
    const Tensor y_native = fc(x).clone();
    const Tensor y_ref = ref(xr).clone();
    EXPECT_TRUE(bit_equal(y_native, y_ref))
        << (native == LowPrec::kFp16 ? "fp16" : "bf16")
        << " storage path diverged from pre-narrowed fp32 (max diff "
        << y_native.max_abs_diff(y_ref) << ")";
  }
}

TEST_F(NativeStorage16, ConvForwardBitEqualsPreNarrowedFp32) {
  Rng rng(96);
  for (const LowPrec native : {LowPrec::kFp16, LowPrec::kBf16}) {
    const Storage16 fmt =
        native == LowPrec::kFp16 ? Storage16::kFp16 : Storage16::kBf16;
    const nn::Conv2dOptions opts{.in_channels = 3, .out_channels = 4,
                                 .kernel = 3, .stride = 2, .padding = 1};
    nn::Conv2d conv(opts, rng);
    nn::Conv2d ref(opts, rng);
    auto& wr = ref.weight().value;
    const auto& w = conv.weight().value;
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      wr[i] = widen16(narrow16(w[i], fmt), fmt);
    }
    for (std::int64_t o = 0; o < 4; ++o) {
      ref.bias().value[o] =
          widen16(narrow16(conv.bias().value[o], fmt), fmt);
    }
    const Tensor x = Tensor::rand({2, 3, 9, 9}, rng, -1.0f, 1.0f);
    Tensor xr = x.clone();
    for (auto& v : xr.data()) v = widen16(narrow16(v, fmt), fmt);

    conv.set_native_dtype(native);
    const Tensor y_native = conv(x).clone();
    const Tensor y_ref = ref(xr).clone();
    EXPECT_TRUE(bit_equal(y_native, y_ref))
        << (native == LowPrec::kFp16 ? "fp16" : "bf16")
        << " conv storage path diverged from pre-narrowed fp32";
  }
}

// ----------------------------------------------- quantized pack coherence ----

/// Moves the deployed INT8 code of each weight position `at` by 64 toward
/// zero (never into saturation) under the frozen per-output scale, through
/// a tensor alias and with no invalidate_weight_packs(), and requires the
/// next native forward to change and restoring the bits to restore the
/// output bits. `row` is the number of weights per output.
void expect_aliased_code_moves_seen(nn::GemmLayer& layer, const Tensor& x,
                                    std::int64_t row,
                                    std::initializer_list<std::int64_t> at) {
  const Tensor y0 = layer(x).clone();
  EXPECT_TRUE(bit_equal(y0, layer(x).clone()));  // cached pack reused
  Tensor alias = layer.weight().value;
  for (const std::int64_t i : at) {
    const float golden = alias[i];
    const float scale =
        layer.native_scales()[static_cast<std::size_t>(i / row)];
    alias[i] = golden - std::copysign(64.0f * scale, golden);
    EXPECT_FALSE(bit_equal(y0, layer(x).clone()))
        << "stale quantized pack served after an aliased write to weight "
        << i;
    alias[i] = golden;
    EXPECT_TRUE(bit_equal(y0, layer(x).clone()))
        << "restoring weight " << i << " must restore the native output bits";
  }
}

TEST_F(NativeCache, AliasedWeightMutationIsNeverServedStaleQuantizedPack) {
  // The injector mutates weights through tensor aliases; the INT8 slot's
  // key digest (weights and scales) must catch it even without
  // invalidate(), on both sides and at every digest position.
  Rng rng(97);
  // The A-side slot (packed_a_i8). 54 weights: one 32-element lane block
  // plus a 22-element tail, so element 53 is the tail's last.
  nn::Conv2d conv(
      nn::Conv2dOptions{.in_channels = 2, .out_channels = 3, .kernel = 3,
                        .padding = 1},
      rng);
  conv.set_native_dtype(LowPrec::kInt8);
  const Tensor x = Tensor::rand({1, 2, 5, 5}, rng, -1.0f, 1.0f);
  expect_aliased_code_moves_seen(conv, x, 18, {0, 53});

  // The B-side slot (packed_b_i8, Linear's W^T). 120 weights: three lane
  // blocks and a 24-element tail.
  nn::Linear fc(40, 3, rng);
  fc.set_native_dtype(LowPrec::kInt8);
  const Tensor xl = Tensor::rand({2, 40}, rng, -1.0f, 1.0f);
  expect_aliased_code_moves_seen(fc, xl, 40, {0, 37, 64, 95, 96, 119});
}

TEST_F(NativeCache, InvalidateDropsQuantizedAndStoragePacks) {
  Rng rng(98);
  nn::Linear fc(6, 5, rng);
  const Tensor x = Tensor::rand({2, 6}, rng, -1.0f, 1.0f);
  for (const LowPrec native :
       {LowPrec::kInt8, LowPrec::kFp16, LowPrec::kBf16}) {
    fc.set_native_dtype(native);
    const Tensor y0 = fc(x).clone();
    fc.invalidate_weight_packs();
    EXPECT_TRUE(bit_equal(y0, fc(x).clone()))
        << "repack after invalidate changed bits, native="
        << static_cast<int>(native);
  }
  fc.set_native_dtype(LowPrec::kNone);
}

// --------------------------------------------- FaultInjector integration ----

std::shared_ptr<nn::Sequential> small_conv_model(std::uint64_t seed) {
  Rng rng(seed);
  auto m = std::make_shared<nn::Sequential>();
  m->emplace<nn::Conv2d>(
      nn::Conv2dOptions{.in_channels = 1, .out_channels = 3, .kernel = 3,
                        .padding = 1},
      rng);
  m->emplace<nn::ReLU>();
  m->emplace<nn::Conv2d>(
      nn::Conv2dOptions{.in_channels = 3, .out_channels = 4, .kernel = 3,
                        .stride = 2, .padding = 1},
      rng);
  m->emplace<nn::GlobalAvgPool>();
  m->emplace<nn::Flatten>();
  m->emplace<nn::Linear>(4, 3, rng);
  m->eval();
  return m;
}

TEST_F(NativeInjector, NativeModeAppliedAndResetOnDestruction) {
  auto model = small_conv_model(5);
  auto* conv0 = dynamic_cast<nn::Conv2d*>(model->children()[0]);
  ASSERT_NE(conv0, nullptr);
  {
    core::FiConfig cfg{.input_shape = {1, 8, 8}, .batch_size = 1};
    cfg.dtype = core::DType::kInt8;
    cfg.native = true;
    core::FaultInjector fi(model, cfg);
    EXPECT_EQ(conv0->native_dtype(), LowPrec::kInt8);
    EXPECT_FALSE(conv0->native_scales().empty());
    for (std::int64_t l = 0; l < fi.num_layers(); ++l) {
      EXPECT_EQ(fi.layer_dtype(l), core::DType::kInt8);
      EXPECT_TRUE(fi.layer_native(l));
    }
    EXPECT_NE(fi.describe().find("[int8-native]"), std::string::npos);
  }
  // The injector borrows the model; destruction returns it to fp32.
  EXPECT_EQ(conv0->native_dtype(), LowPrec::kNone);
}

TEST_F(NativeInjector, WeightFaultFlipsDeployedCodeAndRestores) {
  auto model = small_conv_model(6);
  core::FiConfig cfg{.input_shape = {1, 8, 8}, .batch_size = 1};
  cfg.dtype = core::DType::kInt8;
  cfg.native = true;
  core::FaultInjector fi(model, cfg);
  auto* conv0 = dynamic_cast<nn::Conv2d*>(model->children()[0]);
  ASSERT_NE(conv0, nullptr);
  const std::vector<float> golden_scales = conv0->native_scales();

  Rng rng(13);
  const Tensor x = Tensor::rand({1, 1, 8, 8}, rng, -1.0f, 1.0f);
  const Tensor golden = fi.forward(x).clone();

  fi.declare_weight_fault({.layer = 0, .out_c = 1, .in_c = 0, .kh = 1,
                           .kw = 1},
                          core::single_bit_flip(6));
  const Tensor faulty = fi.forward(x).clone();
  EXPECT_FALSE(bit_equal(golden, faulty))
      << "a bit-6 code flip in a native INT8 conv must perturb the output";
  // Frozen golden scales: the fault must not re-calibrate the channel.
  EXPECT_EQ(conv0->native_scales(), golden_scales);

  fi.clear();
  EXPECT_TRUE(bit_equal(golden, fi.forward(x).clone()))
      << "clear() must restore the native output bits exactly";
}

TEST_F(NativeInjector, PerLayerResolutionOverrides) {
  auto model = small_conv_model(7);
  core::FiConfig cfg{.input_shape = {1, 8, 8}, .batch_size = 1};
  // Global fp32; one conv runs native INT8 and the other emulated fp16.
  core::FaultInjector probe(model, cfg);
  ASSERT_EQ(probe.num_layers(), 2);
  const std::string p0 = probe.layer_path(0);
  const std::string p1 = probe.layer_path(1);

  cfg.per_layer = {
      {.layer = p0, .dtype = core::DType::kInt8, .native = true},
      {.layer = p1, .dtype = core::DType::kFloat16, .native = false}};
  core::FaultInjector fi(model, cfg);
  EXPECT_EQ(fi.layer_dtype(0), core::DType::kInt8);
  EXPECT_TRUE(fi.layer_native(0));
  EXPECT_EQ(fi.layer_dtype(1), core::DType::kFloat16);
  EXPECT_FALSE(fi.layer_native(1));
  auto* conv0 = dynamic_cast<nn::Conv2d*>(model->children()[0]);
  auto* conv1 = dynamic_cast<nn::Conv2d*>(model->children()[2]);
  ASSERT_NE(conv0, nullptr);
  ASSERT_NE(conv1, nullptr);
  EXPECT_EQ(conv0->native_dtype(), LowPrec::kInt8);
  EXPECT_EQ(conv1->native_dtype(), LowPrec::kNone);  // emulated only

  core::FiConfig bad = cfg;
  bad.per_layer = {{.layer = "no.such.layer", .dtype = core::DType::kInt8}};
  EXPECT_THROW(core::FaultInjector(model, bad), Error);
  // Two resolutions for one layer are refused, not resolved by order.
  bad.per_layer = {
      {.layer = p0, .dtype = core::DType::kInt8, .native = true},
      {.layer = p0, .dtype = core::DType::kFloat16, .native = false}};
  EXPECT_THROW(core::FaultInjector(model, bad), Error);
}

struct EmulatedRun {
  core::CampaignResult result;
  std::string csv;
  std::string jsonl;
};

/// One emulated INT8 campaign (dtype int8, not native: every conv runs
/// fp32 and the injector projects its output through INT8) under `isa`.
/// 9x9 inputs give conv outputs of 243 and 100 values, so the projection
/// runs 8-lane groups and a scalar tail on every pass.
EmulatedRun run_emulated_int8(I8Isa isa, std::int64_t threads, bool cache) {
  set_i8_isa(isa);
  auto model = small_conv_model(21);
  core::FiConfig cfg{.input_shape = {1, 9, 9}, .batch_size = 1};
  cfg.dtype = core::DType::kInt8;
  cfg.prefix_cache = cache;
  core::FaultInjector fi(model, cfg);
  data::SyntheticDataset ds(
      {.classes = 3, .channels = 1, .height = 9, .width = 9});
  trace::TraceSink sink(false);
  core::CampaignConfig ccfg;
  ccfg.trials = 16;
  ccfg.error_model = core::single_bit_flip();
  ccfg.seed = 22;
  ccfg.injections_per_image = 2;
  ccfg.threads = threads;
  ccfg.trace = &sink;
  EmulatedRun run;
  run.result = core::run_classification_campaign(fi, ds, ccfg);
  const std::string path = ::testing::TempDir() + "pfi_emulated_i8_" +
                           std::to_string(::getpid()) + ".csv";
  core::write_campaign_csv(path, {{"emulated-int8", run.result}});
  run.csv = util::read_file(path);
  std::remove(path.c_str());
  run.jsonl = trace::trace_to_jsonl(sink.take_events());
  set_i8_isa(I8Isa::kAuto);
  return run;
}

TEST_F(NativeInjector, EmulatedInt8CampaignByteIdenticalAcrossIsa) {
  // The emulated projection runs on the INT8 quantizer kernels, so the ISA
  // selects its path; counts, CSV and trace must not notice which.
  const EmulatedRun ref = run_emulated_int8(I8Isa::kScalar, 1, false);
  EXPECT_EQ(ref.result.trials, 16u);
  EXPECT_FALSE(ref.jsonl.empty());
  for (const I8Isa isa : {I8Isa::kScalar, I8Isa::kAuto}) {
    for (const std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
      for (const bool cache : {true, false}) {
        const EmulatedRun got = run_emulated_int8(isa, threads, cache);
        const std::string where = "isa=" + std::to_string(static_cast<int>(isa)) +
                                  " threads=" + std::to_string(threads) +
                                  " cache=" + std::to_string(cache);
        EXPECT_EQ(std::memcmp(&ref.result, &got.result,
                              sizeof(core::CampaignResult)),
                  0)
            << where;
        EXPECT_EQ(ref.csv, got.csv) << where;
        EXPECT_EQ(ref.jsonl, got.jsonl) << where;
      }
    }
  }
}

TEST_F(NativeInjector, ReplicaReproducesNativeForwardBits) {
  auto model = small_conv_model(8);
  core::FiConfig cfg{.input_shape = {1, 8, 8}, .batch_size = 1};
  cfg.dtype = core::DType::kInt8;
  cfg.native = true;
  core::FaultInjector fi(model, cfg);
  const auto replica = fi.replicate();
  Rng rng(17);
  const Tensor x = Tensor::rand({1, 1, 8, 8}, rng, -1.0f, 1.0f);
  EXPECT_TRUE(bit_equal(fi.forward(x).clone(),
                        replica->forward(x).clone()))
      << "replicated native injector must reproduce forward bits";
}

}  // namespace
}  // namespace pfi::kernels
