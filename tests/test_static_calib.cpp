// Static activation calibration + INT8-resident boundaries test harness.
//
// Covers the statically-calibrated native INT8 path end to end:
//  1. the SIMD activation quantize / static pack / streaming pack /
//     requantize-to-grid kernels, bit-identical across every INT8 ISA the
//     host supports (scalar always; AVX2 madd / VNNI when present),
//  2. the fused ReLU epilogues (fp32 kReluZero/kReluBiasRow and the grid
//     epilogue's relu-on-codes), bit-equal to unfused GEMM + ReLU,
//  3. nn::fuse_relu / unfuse_relu wiring and the ReLU passthrough,
//  4. core::calibrate_static_act round-tripping through the persisted JSON
//     bit-exactly, and the stale-calibration refusal when the model's
//     weights no longer match the calibration's fingerprint,
//  5. campaign byte-identity under static calibration across thread counts
//     and prefix-cache settings, with static-on and static-off runs pinned
//     as DISTINCT experiment fingerprints.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/calibrate.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fault_injector.hpp"
#include "core/sampling.hpp"
#include "core/trace.hpp"
#include "data/synthetic.hpp"
#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "nn/nn.hpp"
#include "quant/static_act.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pfi::kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kQNaN = std::numeric_limits<float>::quiet_NaN();

/// Restores the kernel configuration (including the pinned INT8 ISA) after
/// every test.
class StaticCalibKernels : public ::testing::Test {
 protected:
  void TearDown() override { set_i8_isa(I8Isa::kAuto); }
};
using StaticCalibFusion = StaticCalibKernels;
using StaticCalibInjector = StaticCalibKernels;
using StaticCalibCampaign = StaticCalibKernels;

/// Every INT8 ISA the host supports (kScalar always; kMadd/kVnni probed).
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

std::vector<float> random_buffer(std::int64_t n, Rng& rng, float lo = -2.0f,
                                 float hi = 2.0f) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

bool same_panels(const PackedPanelsI8& a, const PackedPanelsI8& b) {
  return a.k == b.k && a.kp == b.kp && a.span == b.span && a.panel == b.panel &&
         a.data == b.data && a.scale == b.scale;
}

// -------------------------------------------- cross-ISA kernel identity ----

TEST_F(StaticCalibKernels, QuantizeRowI16MatchesScalarQuantizerAcrossIsa) {
  Rng rng(0xca11b);
  std::vector<float> src = random_buffer(131, rng, -5.0f, 5.0f);
  // Saturating, non-finite, and exactly-representable inputs: the vector
  // path must reproduce quantize_unit's NaN/Inf mapping and its
  // round-nearest-even ties bit for bit.
  src.insert(src.end(), {kQNaN, kInf, -kInf, 0.0f, -0.0f, 1e30f, -1e30f,
                         0.5f, -0.5f, 1.5f, 2.5f, -2.5f});
  const float scale = 1.0f / 127.0f;

  std::vector<std::int16_t> want(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    want[i] = quantize_unit(src[i], scale);
  }
  for (const I8Isa isa : supported_i8_isas()) {
    set_i8_isa(isa);
    std::vector<std::int16_t> got(src.size(), 9999);
    quantize_row_i16(src.data(), static_cast<std::int64_t>(src.size()), scale,
                     got.data());
    EXPECT_EQ(got, want) << "isa=" << static_cast<int>(isa);

    const float am =
        finite_absmax_i8(src.data(), static_cast<std::int64_t>(src.size()));
    float ref = 0.0f;
    for (const float v : src) {
      if (std::isfinite(v)) ref = std::max(ref, std::fabs(v));
    }
    EXPECT_EQ(am, ref) << "finite_absmax isa=" << static_cast<int>(isa);
  }
}

TEST_F(StaticCalibKernels, StaticPacksMatchDynamicPacksAtTheDynamicScale) {
  // A static pack at exactly the scale the dynamic pack would derive must
  // produce the identical panel bytes — the static path drops the absmax
  // pass, not a single bit of the representation.
  Rng rng(0x57a71c);
  const std::int64_t m = 23, k = 37, n = 29;
  const auto a = random_buffer(m * k, rng);
  const auto b = random_buffer(k * n, rng);
  const float a_scale =
      scale_from_absmax(finite_absmax_i8(a.data(), m * k));
  const float b_scale =
      scale_from_absmax(finite_absmax_i8(b.data(), k * n));

  for (const I8Isa isa : supported_i8_isas()) {
    set_i8_isa(isa);
    PackedPanelsI8 pa_dyn, pa_st, pb_dyn, pb_st;
    quantize_pack_a_i8_tensor(m, k, a.data(), k, false, block_config().mr,
                              pa_dyn);
    quantize_pack_a_i8_static(m, k, a.data(), k, false, block_config().mr,
                              a_scale, pa_st);
    quantize_pack_b_i8_tensor(k, n, b.data(), n, false, pb_dyn);
    quantize_pack_b_i8_static(k, n, b.data(), n, false, b_scale, pb_st);
    EXPECT_TRUE(same_panels(pa_dyn, pa_st))
        << "A-side static pack diverged, isa=" << static_cast<int>(isa);
    EXPECT_TRUE(same_panels(pb_dyn, pb_st))
        << "B-side static pack diverged, isa=" << static_cast<int>(isa);
  }
}

TEST_F(StaticCalibKernels, StreamedPackAndAbsmaxBitEqualMaterialized) {
  Rng rng(0x57e4);
  const std::int64_t k = 41, n = 53;
  auto b = random_buffer(k * n, rng);
  b[7] = kQNaN;  // the streaming absmax must skip non-finite values too
  b[11] = kInf;
  const BTileFn tile = [&](std::int64_t col0, int w, float* dst) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (int c = 0; c < w; ++c) {
        dst[kk * w + c] = b[static_cast<std::size_t>(kk * n + col0 + c)];
      }
    }
  };
  for (const I8Isa isa : supported_i8_isas()) {
    set_i8_isa(isa);
    EXPECT_EQ(finite_absmax_stream(k, n, tile),
              finite_absmax_i8(b.data(), k * n))
        << "isa=" << static_cast<int>(isa);
    const float scale = scale_from_absmax(finite_absmax_i8(b.data(), k * n));
    PackedPanelsI8 pb_mat, pb_stream;
    quantize_pack_b_i8_static(k, n, b.data(), n, false, scale, pb_mat);
    quantize_pack_b_i8_stream(k, n, scale, tile, pb_stream);
    EXPECT_TRUE(same_panels(pb_mat, pb_stream))
        << "streamed pack diverged from materialized, isa="
        << static_cast<int>(isa);
  }
}

TEST_F(StaticCalibKernels, RequantizeGridMatchesScalarOracleAcrossIsa) {
  Rng rng(0x9e1d);
  const std::int64_t m = 9, n = 21;
  std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n));
  for (auto& v : acc) {
    v = static_cast<std::int32_t>(rng.uniform(-40000.0f, 40000.0f));
  }
  // Row 0 opens with accumulators 0, -1, ..., -15, two full AVX2 groups:
  // without a bias they land just below zero and round to code 0, which
  // every ISA must store as +0.
  for (std::int32_t j = 0; j < 16; ++j) acc[static_cast<std::size_t>(j)] = -j;
  const auto row_scale = random_buffer(m, rng, 0.001f, 0.05f);
  const auto col_scale = random_buffer(n, rng, 0.001f, 0.05f);
  const auto bias_r = random_buffer(m, rng, -1.0f, 1.0f);
  const auto bias_c = random_buffer(n, rng, -1.0f, 1.0f);
  const float b_scale = 0.013f, a_scale = 0.017f, out_scale = 0.021f;

  int zero_from_below = 0;
  const auto grid_oracle = [&](float v, bool relu) {
    int code = quantize_unit(v, out_scale);
    if (v < 0.0f && code == 0) ++zero_from_below;
    if (relu && code < 0) code = 0;
    return static_cast<float>(code) * out_scale;
  };

  for (const I8Isa isa : supported_i8_isas()) {
    set_i8_isa(isa);
    for (const bool relu : {false, true}) {
      for (const bool biased : {true, false}) {
        std::vector<float> rows(static_cast<std::size_t>(m * n));
        requantize_rows_grid(m, n, acc.data(), n, row_scale.data(), b_scale,
                             biased ? bias_r.data() : nullptr, out_scale,
                             relu, rows.data(), n);
        std::vector<float> cols(static_cast<std::size_t>(m * n));
        requantize_cols_grid(m, n, acc.data(), n, a_scale, col_scale.data(),
                             biased ? bias_c.data() : nullptr, out_scale,
                             relu, cols.data(), n);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            const float acc_f =
                static_cast<float>(acc[static_cast<std::size_t>(i * n + j)]);
            const auto ui = static_cast<std::size_t>(i);
            const auto uj = static_cast<std::size_t>(j);
            const float br = biased ? bias_r[ui] : 0.0f;
            const float bc = biased ? bias_c[uj] : 0.0f;
            const float want_r =
                grid_oracle(std::fma(row_scale[ui] * b_scale, acc_f, br), relu);
            const float want_c =
                grid_oracle(std::fma(a_scale * col_scale[uj], acc_f, bc), relu);
            // Bit patterns, not float ==, which equates -0 with +0.
            ASSERT_EQ(float_to_bits(rows[static_cast<std::size_t>(i * n + j)]),
                      float_to_bits(want_r))
                << "rows_grid isa=" << static_cast<int>(isa)
                << " relu=" << relu << " bias=" << biased << " at (" << i
                << "," << j << ")";
            ASSERT_EQ(float_to_bits(cols[static_cast<std::size_t>(i * n + j)]),
                      float_to_bits(want_c))
                << "cols_grid isa=" << static_cast<int>(isa)
                << " relu=" << relu << " bias=" << biased << " at (" << i
                << "," << j << ")";
          }
        }
      }
    }
  }
  EXPECT_GT(zero_from_below, 0);
}

TEST_F(StaticCalibKernels, ReluEpilogueBitEqualsUnfusedGemmThenRelu) {
  // The fused rectification runs per macro-tile after the full K sweep, so
  // it must be BIT-EQUAL to the unfused kernel followed by a ReLU pass —
  // same summation chains, rectification commutes with nothing.
  Rng rng(0xf00d);
  const std::int64_t m = 33, n = 47, k = 65;
  const auto a = random_buffer(m * k, rng);
  const auto b = random_buffer(k * n, rng);
  const auto bias = random_buffer(m, rng);
  std::vector<float> fused(static_cast<std::size_t>(m * n));
  std::vector<float> plain(static_cast<std::size_t>(m * n));

  struct EpiCase {
    Epilogue fused, base;
    const float* bias;
  };
  const EpiCase cases[] = {
      {Epilogue::kReluZero, Epilogue::kZero, nullptr},
      {Epilogue::kReluBiasRow, Epilogue::kBiasRow, bias.data()},
  };
  for (const auto& ec : cases) {
    gemm_blocked(m, n, k, a.data(), k, false, b.data(), n, false,
                 fused.data(), n, ec.fused, ec.bias);
    gemm_blocked(m, n, k, a.data(), k, false, b.data(), n, false,
                 plain.data(), n, ec.base, ec.bias);
    for (auto& v : plain) v = std::max(v, 0.0f);
    EXPECT_EQ(std::memcmp(fused.data(), plain.data(),
                          plain.size() * sizeof(float)),
              0)
        << "blocked fused-ReLU epilogue diverged";
    naive_gemm(m, n, k, a.data(), k, false, b.data(), n, false, fused.data(),
               n, ec.fused, ec.bias);
    naive_gemm(m, n, k, a.data(), k, false, b.data(), n, false, plain.data(),
               n, ec.base, ec.bias);
    for (auto& v : plain) v = std::max(v, 0.0f);
    EXPECT_EQ(std::memcmp(fused.data(), plain.data(),
                          plain.size() * sizeof(float)),
              0)
        << "naive fused-ReLU epilogue diverged";
  }
}

// ------------------------------------------------ nn-level ReLU fusion ----

std::shared_ptr<nn::Sequential> fusion_model(std::uint64_t seed) {
  Rng rng(seed);
  auto m = std::make_shared<nn::Sequential>();
  m->emplace<nn::Conv2d>(
      nn::Conv2dOptions{.in_channels = 3, .out_channels = 4, .kernel = 3,
                        .padding = 1},
      rng);
  m->emplace<nn::ReLU>();
  m->emplace<nn::Conv2d>(
      nn::Conv2dOptions{.in_channels = 4, .out_channels = 4, .kernel = 3,
                        .stride = 2, .padding = 1},
      rng);
  m->emplace<nn::GlobalAvgPool>();
  m->emplace<nn::Flatten>();
  m->emplace<nn::Linear>(4, 3, rng);
  m->eval();
  return m;
}

TEST_F(StaticCalibFusion, Fp32FusionIsBitIdenticalAndReversible) {
  auto model = fusion_model(21);
  Rng rng(22);
  const Tensor x = Tensor::rand({2, 3, 8, 8}, rng, -1.0f, 1.0f);
  const Tensor y0 = (*model)(x).clone();

  EXPECT_EQ(nn::fuse_relu(*model), 1);  // the conv->ReLU pair
  auto* conv0 = dynamic_cast<nn::Conv2d*>(model->children()[0]);
  ASSERT_NE(conv0, nullptr);
  EXPECT_TRUE(conv0->relu_fused_output());
  EXPECT_TRUE(bit_equal(y0, (*model)(x).clone()))
      << "fp32 fused-ReLU forward changed bits";

  // Training re-enables the unfused path (backward needs the real mask),
  // and the ReLU passthrough must follow the producer's gate per forward.
  model->train();
  EXPECT_FALSE(conv0->relu_fused_output());
  EXPECT_TRUE(bit_equal(y0, (*model)(x).clone()));
  model->eval();

  EXPECT_EQ(nn::unfuse_relu(*model), 1);
  EXPECT_FALSE(conv0->relu_fused_output());
  EXPECT_TRUE(bit_equal(y0, (*model)(x).clone()));
}

TEST_F(StaticCalibFusion, StaticConvOutputsLieOnTheFrozenGrid) {
  Rng rng(23);
  nn::Conv2d conv(
      nn::Conv2dOptions{.in_channels = 2, .out_channels = 3, .kernel = 3,
                        .padding = 1},
      rng);
  conv.eval();
  const Tensor x = Tensor::rand({2, 2, 7, 7}, rng, -1.0f, 1.0f);
  const float in_scale =
      scale_from_absmax(finite_absmax_i8(x.data().data(), x.numel()));
  const float out_scale = 0.01f;
  conv.set_native_dtype(LowPrec::kInt8);
  conv.set_static_act(in_scale, out_scale);

  for (const bool fuse : {false, true}) {
    conv.set_fuse_relu(fuse);
    EXPECT_EQ(conv.relu_fused_output(), fuse);
    const Tensor y = conv(x).clone();
    for (const float v : y.data()) {
      // The boundary holds exact fp32 images code * out_scale. Recover the
      // code by rounding the (inexact) float division — the reconstructed
      // product must be bit-equal to the stored value.
      const float code = std::nearbyint(v / out_scale);
      ASSERT_EQ(v, code * out_scale)
          << "static conv output " << v << " is not on the frozen grid";
      ASSERT_LE(std::fabs(code), 127.0f);
      if (fuse) {
        ASSERT_GE(code, 0.0f) << "fused ReLU left a negative code";
      }
    }
  }
  conv.clear_static_act();
  conv.set_native_dtype(LowPrec::kNone);
}

TEST_F(StaticCalibFusion, StaticLinearMatchesInt64Oracle) {
  Rng rng(24);
  nn::Linear fc(11, 5, rng);
  fc.eval();
  const Tensor x = Tensor::rand({3, 11}, rng, -1.5f, 1.5f);
  const float in_scale =
      scale_from_absmax(finite_absmax_i8(x.data().data(), x.numel()));
  const float out_scale = 0.02f;
  fc.set_native_dtype(LowPrec::kInt8);
  fc.set_static_act(in_scale, out_scale);

  for (const bool fuse : {false, true}) {
    fc.set_fuse_relu(fuse);
    EXPECT_EQ(fc.relu_fused_output(), fuse);
    const Tensor y = fc(x).clone();
    const auto& sw = fc.native_scales();
    ASSERT_EQ(sw.size(), 5u);
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t o = 0; o < 5; ++o) {
        std::int64_t acc = 0;
        for (std::int64_t j = 0; j < 11; ++j) {
          acc += static_cast<std::int64_t>(
                     quantize_unit(x.at(i, j), in_scale)) *
                 quantize_unit(fc.weight().value.at(o, j),
                               sw[static_cast<std::size_t>(o)]);
        }
        const float v =
            std::fma(in_scale * sw[static_cast<std::size_t>(o)],
                     static_cast<float>(acc), fc.bias().value[o]);
        int code = quantize_unit(v, out_scale);
        if (fuse && code < 0) code = 0;
        ASSERT_EQ(y.at(i, o), static_cast<float>(code) * out_scale)
            << "fuse=" << fuse << " at (" << i << "," << o << ")";
      }
    }
  }
  fc.clear_static_act();
  fc.set_native_dtype(LowPrec::kNone);
}

// ---------------------------------------- calibration + injector wiring ----

core::FiConfig plain_config() {
  return core::FiConfig{.input_shape = {3, 8, 8}, .batch_size = 2};
}

std::vector<Tensor> calib_batches(std::uint64_t seed, int count = 3) {
  Rng rng(seed);
  std::vector<Tensor> batches;
  for (int i = 0; i < count; ++i) {
    batches.push_back(Tensor::rand({2, 3, 8, 8}, rng, -1.0f, 1.0f));
  }
  return batches;
}

TEST_F(StaticCalibInjector, CalibrationRoundTripsThroughJsonBitExactly) {
  auto model = fusion_model(31);
  const auto batches = calib_batches(32);
  quant::StaticActQuant calib;
  {
    core::FaultInjector fi(model, plain_config());
    calib = core::calibrate_static_act(fi, batches);
    ASSERT_EQ(calib.layers.size(),
              static_cast<std::size_t>(fi.num_layers()));
    for (std::int64_t i = 0; i < fi.num_layers(); ++i) {
      const auto& l = calib.layers[static_cast<std::size_t>(i)];
      EXPECT_EQ(l.path, fi.layer_path(i));
      EXPECT_TRUE(std::isfinite(l.in_scale) && l.in_scale > 0.0f);
      EXPECT_TRUE(std::isfinite(l.out_scale) && l.out_scale > 0.0f);
      EXPECT_NE(calib.find(l.path), nullptr);
    }
  }
  EXPECT_EQ(calib.find("no.such.layer"), nullptr);

  const std::string path = ::testing::TempDir() + "pfi_static_calib.json";
  std::remove(path.c_str());
  calib.save(path);
  const quant::StaticActQuant loaded = quant::StaticActQuant::load(path);
  EXPECT_EQ(loaded.to_json(), calib.to_json())
      << "persisted calibration must reload bit-exactly";
  EXPECT_EQ(loaded.fingerprint(), calib.fingerprint());
  EXPECT_EQ(loaded.weight_fingerprint, calib.weight_fingerprint);
  std::remove(path.c_str());

  try {
    quant::StaticActQuant::load(path);
    FAIL() << "loading a deleted calibration file must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does not exist"), std::string::npos);
  }

  // A path ending in '\' keeps its closing quote, and an entry missing
  // 'out_bits' is refused rather than given the next entry's.
  quant::StaticActQuant odd;
  odd.layers = {{.path = "a\\", .in_scale = 1.0f, .out_scale = 2.0f},
                {.path = "b", .in_scale = 3.0f, .out_scale = 4.0f}};
  const std::string odd_json = odd.to_json();
  EXPECT_EQ(quant::StaticActQuant::from_json(odd_json).to_json(), odd_json);
  std::string missing = odd_json;
  const std::string out_bits = ",\"out_bits\":\"40000000\"";  // 2.0f
  missing.erase(missing.find(out_bits), out_bits.size());
  EXPECT_THROW(quant::StaticActQuant::from_json(missing), Error);
}

TEST_F(StaticCalibInjector, CalibrationRequiresAFaultFreeFp32Injector) {
  auto model = fusion_model(33);
  const auto batches = calib_batches(34);
  {
    core::FiConfig cfg = plain_config();
    cfg.dtype = core::DType::kInt8;
    cfg.native = true;
    core::FaultInjector fi(model, cfg);
    EXPECT_THROW(core::calibrate_static_act(fi, batches), Error)
        << "calibration must reject a non-fp32 (native) injector";
  }
  {
    core::FaultInjector fi(model, plain_config());
    fi.declare_weight_fault({.layer = 0}, core::zero_value());
    EXPECT_THROW(core::calibrate_static_act(fi, batches), Error)
        << "calibration must reject an injector with armed faults";
    fi.clear();
    EXPECT_NO_THROW(core::calibrate_static_act(fi, batches));
  }
}

TEST_F(StaticCalibInjector, StaleCalibrationIsRefusedWithAClearMessage) {
  auto model = fusion_model(35);
  auto static_act = std::make_shared<quant::StaticActQuant>();
  {
    core::FaultInjector fi(model, plain_config());
    *static_act = core::calibrate_static_act(fi, calib_batches(36));
  }
  // A single-weight perturbation must flip model_weight_fingerprint and
  // make the frozen scales unusable.
  model->parameters()[0]->value[0] += 0.25f;
  core::FiConfig cfg = plain_config();
  cfg.dtype = core::DType::kInt8;
  cfg.native = true;
  cfg.static_act = static_act;
  try {
    core::FaultInjector fi(model, cfg);
    FAIL() << "stale calibration must be refused at injector construction";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("refusing to run stale scales"),
              std::string::npos)
        << "actual message: " << e.what();
  }
  // Restoring the weight restores the fingerprint: construction succeeds.
  model->parameters()[0]->value[0] -= 0.25f;
  EXPECT_NO_THROW(core::FaultInjector(model, cfg));
}

TEST_F(StaticCalibInjector, StaticInjectorWiresFusionAndInjectionDomain) {
  auto model = fusion_model(37);
  auto static_act = std::make_shared<quant::StaticActQuant>();
  {
    core::FaultInjector fi(model, plain_config());
    *static_act = core::calibrate_static_act(fi, calib_batches(38));
    // Without static calibration the pruner sees the conv->ReLU pair.
    const auto adjacent = core::relu_adjacent_layers(fi);
    EXPECT_TRUE(adjacent[0]);
  }
  core::FiConfig cfg = plain_config();
  cfg.dtype = core::DType::kInt8;
  cfg.native = true;
  cfg.static_act = static_act;
  {
    core::FaultInjector fi(model, cfg);
    EXPECT_NE(fi.calibration_fingerprint(), 0u);
    for (std::int64_t i = 0; i < fi.num_layers(); ++i) {
      EXPECT_TRUE(fi.layer_static(i)) << "layer " << i;
    }
    auto* conv0 = dynamic_cast<nn::Conv2d*>(model->children()[0]);
    ASSERT_NE(conv0, nullptr);
    EXPECT_TRUE(conv0->relu_fused_output())
        << "static injector must wire conv->ReLU fusion";
    // Fused producers lose downstream ReLU masking, so the pruner must NOT
    // treat them as relu-adjacent.
    const auto adjacent = core::relu_adjacent_layers(fi);
    EXPECT_FALSE(adjacent[0]);

    // Faults still inject into the resident codes under the frozen scales.
    Rng rng(39);
    const Tensor x = Tensor::rand({2, 3, 8, 8}, rng, -1.0f, 1.0f);
    const Tensor golden = fi.forward(x).clone();
    fi.declare_neuron_fault({.layer = 0, .c = 1, .h = 2, .w = 2},
                            core::single_bit_flip(6));
    EXPECT_FALSE(bit_equal(golden, fi.forward(x).clone()))
        << "a code flip under static scales must perturb the output";
    fi.clear();
    EXPECT_TRUE(bit_equal(golden, fi.forward(x).clone()));
  }
  // Injector destruction unwires fusion and the static scales.
  auto* conv0 = dynamic_cast<nn::Conv2d*>(model->children()[0]);
  EXPECT_FALSE(conv0->relu_fused_output());
  EXPECT_FALSE(conv0->has_static_act());

  // With instrument_linear the classifier runs under frozen scales too, and
  // loses them with the injector.
  auto* fc = dynamic_cast<nn::Linear*>(model->children().back());
  ASSERT_NE(fc, nullptr);
  core::FiConfig lin_cfg = plain_config();
  lin_cfg.instrument_linear = true;
  auto lin_act = std::make_shared<quant::StaticActQuant>();
  {
    core::FaultInjector fi(model, lin_cfg);
    *lin_act = core::calibrate_static_act(fi, calib_batches(38));
  }
  lin_cfg.dtype = core::DType::kInt8;
  lin_cfg.native = true;
  lin_cfg.static_act = lin_act;
  {
    core::FaultInjector fi(model, lin_cfg);
    ASSERT_EQ(fi.num_layers(), 3);
    EXPECT_EQ(&fi.layer(2), fc);
    EXPECT_TRUE(fi.layer_static(2));
    EXPECT_TRUE(fc->has_static_act());
  }
  EXPECT_FALSE(fc->has_static_act());
  EXPECT_EQ(fc->native_dtype(), LowPrec::kNone);
}

TEST_F(StaticCalibInjector, StaticForwardBitIdenticalAcrossIsaAndCache) {
  auto model = fusion_model(41);
  auto static_act = std::make_shared<quant::StaticActQuant>();
  {
    core::FaultInjector fi(model, plain_config());
    *static_act = core::calibrate_static_act(fi, calib_batches(42));
  }
  core::FiConfig cfg = plain_config();
  cfg.dtype = core::DType::kInt8;
  cfg.native = true;
  cfg.static_act = static_act;

  Rng rng(43);
  const Tensor x = Tensor::rand({2, 3, 8, 8}, rng, -1.0f, 1.0f);
  Tensor baseline;
  {
    core::FaultInjector fi(model, cfg);
    baseline = fi.forward(x).clone();
  }
  for (const I8Isa isa : supported_i8_isas()) {
    set_i8_isa(isa);
    for (const bool cache : {true, false}) {
      core::FiConfig c = cfg;
      c.prefix_cache = cache;
      core::FaultInjector fi(model, c);
      EXPECT_TRUE(bit_equal(baseline, fi.forward(x).clone()))
          << "isa=" << static_cast<int>(isa) << " cache=" << cache;
    }
  }
}

// ------------------------------------------- campaign byte-identity ----

struct CampaignRef {
  core::CampaignResult result;
  std::string jsonl;
};

bool same_result(const core::CampaignResult& a, const core::CampaignResult& b) {
  return a.trials == b.trials && a.skipped == b.skipped &&
         a.corruptions == b.corruptions && a.non_finite == b.non_finite;
}

CampaignRef run_static_campaign(std::int64_t threads, bool prefix_cache,
                                I8Isa isa) {
  auto model = fusion_model(51);
  auto static_act = std::make_shared<quant::StaticActQuant>();
  {
    core::FaultInjector fi(model, plain_config());
    *static_act = core::calibrate_static_act(fi, calib_batches(52));
  }
  set_i8_isa(isa);
  core::FiConfig cfg = plain_config();
  cfg.batch_size = 1;
  cfg.dtype = core::DType::kInt8;
  cfg.native = true;
  cfg.static_act = static_act;
  cfg.prefix_cache = prefix_cache;
  data::SyntheticDataset ds({.classes = 3, .channels = 3, .height = 8,
                             .width = 8});
  core::FaultInjector fi(model, cfg);
  trace::TraceSink sink(false);
  core::CampaignConfig ccfg;
  ccfg.trials = 16;
  ccfg.error_model = core::single_bit_flip();
  ccfg.seed = 53;
  ccfg.injections_per_image = 2;
  ccfg.threads = threads;
  ccfg.trace = &sink;
  CampaignRef ref;
  ref.result = core::run_classification_campaign(fi, ds, ccfg);
  ref.jsonl = trace::trace_to_jsonl(sink.take_events());
  set_i8_isa(I8Isa::kAuto);
  return ref;
}

TEST_F(StaticCalibCampaign, ByteIdenticalAcrossThreadsCacheAndIsa) {
  const CampaignRef ref = run_static_campaign(1, true, I8Isa::kAuto);
  EXPECT_EQ(ref.result.trials, 16u);
  for (const I8Isa isa : supported_i8_isas()) {
    for (const std::int64_t threads : {std::int64_t{1}, std::int64_t{4}}) {
      for (const bool cache : {true, false}) {
        const CampaignRef got = run_static_campaign(threads, cache, isa);
        EXPECT_TRUE(same_result(ref.result, got.result))
            << "isa=" << static_cast<int>(isa) << " threads=" << threads
            << " cache=" << cache;
        EXPECT_EQ(ref.jsonl, got.jsonl)
            << "trace bytes diverged: isa=" << static_cast<int>(isa)
            << " threads=" << threads << " cache=" << cache;
      }
    }
  }
}

TEST_F(StaticCalibCampaign, StaticOnAndOffAreDistinctExperiments) {
  auto model = fusion_model(61);
  auto static_act = std::make_shared<quant::StaticActQuant>();
  {
    core::FaultInjector fi(model, plain_config());
    *static_act = core::calibrate_static_act(fi, calib_batches(62));
    EXPECT_EQ(fi.calibration_fingerprint(), 0u)
        << "a dynamic injector has no calibration fingerprint";
  }
  core::FiConfig cfg = plain_config();
  cfg.dtype = core::DType::kInt8;
  cfg.native = true;
  cfg.static_act = static_act;
  core::FaultInjector fi(model, cfg);
  EXPECT_EQ(fi.calibration_fingerprint(), static_act->fingerprint());

  // The CLI folds "|static=<fingerprint>" into the campaign context, so a
  // static checkpoint can never resume a dynamic campaign (or one frozen
  // from different calibration data).
  core::CampaignConfig ccfg;
  ccfg.trials = 16;
  ccfg.error_model = core::single_bit_flip();
  const std::string base = "m|ds|int8-native|bitflip|epochs=1|load=";
  const std::string with_static =
      base + "|static=" + std::to_string(fi.calibration_fingerprint());
  EXPECT_NE(core::campaign_fingerprint(ccfg, base),
            core::campaign_fingerprint(ccfg, with_static));
}

}  // namespace
}  // namespace pfi::kernels
