// Differential harness for pfi::kernels.
//
// The blocked kernel is validated three ways:
//  1. against a double-precision oracle with an error bound scaled by the
//     accumulation depth (ULP-tight: the bound is a few float ULPs of the
//     worst-case partial-sum magnitude),
//  2. against the retained naive reference kernel on a randomized shape
//     sweep (M/N/K 1..67, both transposes, every epilogue),
//  3. bit for bit against the per-element fma chain of the determinism
//     rule, on shapes that cross every panel, macro-tile and k-panel edge,
//     so the output cannot depend on how the work was tiled — the
//     kernel-level extension of the campaign engine's determinism guarantee.
//     Conv2d's forward is held to the same chain, written out per output
//     element over its (channel, kh, kw) taps, and its backward to the
//     chains of its input, weight and bias gradients.
//
// Also here: IEEE-faithfulness regressions for the zero-skip bug (0 * Inf
// must produce NaN; NaN must propagate), the packed-weight-cache
// coherence tests for Conv2d/Linear (mutation through tensor aliases — the
// fault injector's mechanism — must never be served a stale pack), and the
// max-pooling differential suite (AVX2 and scalar rows vs the int64-index
// pooling MaxPool2d ran before it kept one-byte offsets), and the emulated
// INT8 projection (fake_quantize_row and the finite-only calibrate) held to
// the scalar round trip bit for bit on every INT8 ISA.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <vector>

#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "models/zoo.hpp"
#include "nn/nn.hpp"
#include "quant/quant.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pfi::kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kQNaN = std::numeric_limits<float>::quiet_NaN();

std::vector<float> random_matrix(std::int64_t n, Rng& rng, float lo = -2.0f,
                                 float hi = 2.0f) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

float logical_a(const std::vector<float>& a, std::int64_t lda, bool trans,
                std::int64_t i, std::int64_t k) {
  return trans ? a[static_cast<std::size_t>(k * lda + i)]
               : a[static_cast<std::size_t>(i * lda + k)];
}

float logical_b(const std::vector<float>& b, std::int64_t ldb, bool trans,
                std::int64_t k, std::int64_t j) {
  return trans ? b[static_cast<std::size_t>(j * ldb + k)]
               : b[static_cast<std::size_t>(k * ldb + j)];
}

/// Double-precision oracle plus the per-element worst-case float error
/// bound: (K + 2) rounding steps of a chain whose partial sums are bounded
/// by sum_k |a_ik * b_kj| (+ |bias|).
void oracle(std::int64_t m, std::int64_t n, std::int64_t k,
            const std::vector<float>& a, std::int64_t lda, bool ta,
            const std::vector<float>& b, std::int64_t ldb, bool tb,
            Epilogue ep, const float* bias, const std::vector<float>& c0,
            std::vector<double>& ref, std::vector<double>& bound) {
  ref.assign(static_cast<std::size_t>(m * n), 0.0);
  bound.assign(static_cast<std::size_t>(m * n), 0.0);
  constexpr double eps = 1.19209290e-07;  // float machine epsilon
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0, mag = 0.0;
      switch (ep) {
        case Epilogue::kZero:
        case Epilogue::kReluZero: break;
        case Epilogue::kAccumulate:
          acc = c0[static_cast<std::size_t>(i * n + j)];
          break;
        case Epilogue::kBiasRow:
        case Epilogue::kReluBiasRow: acc = bias[i]; break;
        case Epilogue::kBiasCol: acc = bias[j]; break;
      }
      mag = std::abs(acc);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const double av = logical_a(a, lda, ta, i, kk);
        const double bv = logical_b(b, ldb, tb, kk, j);
        acc += av * bv;
        mag += std::abs(av * bv);
      }
      ref[static_cast<std::size_t>(i * n + j)] = acc;
      bound[static_cast<std::size_t>(i * n + j)] =
          static_cast<double>(k + 2) * eps * mag + 1e-30;
    }
  }
}

void expect_within_bound(const std::vector<float>& got,
                         const std::vector<double>& ref,
                         const std::vector<double>& bound, const char* what) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(std::abs(static_cast<double>(got[i]) - ref[i]), bound[i])
        << what << " diverges from the double oracle at flat index " << i
        << ": got " << got[i] << ", want " << ref[i];
  }
}

// ------------------------------------------------------ differential sweep ----

TEST(Kernels, BlockedAndNaiveMatchOracleOnShapeSweep) {
  Rng rng(0x5eed);
  const std::int64_t dims[] = {1, 2, 3, 5, 8, 13, 31, 67};
  int case_index = 0;
  for (const auto m : dims) {
    for (const auto n : dims) {
      for (const auto k : dims) {
        // Rotate transposes and epilogues across the sweep so every
        // combination appears many times without an 8^3 x 16 blow-up.
        const bool ta = (case_index & 1) != 0;
        const bool tb = (case_index & 2) != 0;
        const Epilogue ep = static_cast<Epilogue>((case_index >> 2) & 3);
        ++case_index;
        const std::int64_t lda = ta ? m : k;
        const std::int64_t ldb = tb ? k : n;
        const auto a = random_matrix(m * k, rng);
        const auto b = random_matrix(k * n, rng);
        const auto bias = random_matrix(std::max(m, n), rng);
        const auto c0 = random_matrix(m * n, rng);

        std::vector<double> ref, bound;
        oracle(m, n, k, a, lda, ta, b, ldb, tb, ep, bias.data(), c0, ref,
               bound);

        auto c_naive = c0;
        naive_gemm(m, n, k, a.data(), lda, ta, b.data(), ldb, tb,
                   c_naive.data(), n, ep, bias.data());
        expect_within_bound(c_naive, ref, bound, "naive_gemm");

        auto c_blocked = c0;
        gemm_blocked(m, n, k, a.data(), lda, ta, b.data(), ldb, tb,
                     c_blocked.data(), n, ep, bias.data());
        expect_within_bound(c_blocked, ref, bound, "gemm_blocked");
      }
    }
  }
}

TEST(Kernels, ZeroDepthGemmAppliesEpilogueOnly) {
  const std::int64_t m = 3, n = 4;
  const std::vector<float> bias{10.0f, 20.0f, 30.0f, 40.0f};
  std::vector<float> c(m * n, 7.0f);
  PackedPanels a, b;
  pack_a(m, 0, nullptr, 0, false, block_config().mr, a);
  pack_b(0, n, nullptr, n, false, b);
  gemm_packed(m, n, 0, a, b, c.data(), n, Epilogue::kBiasCol, bias.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(c[static_cast<std::size_t>(i * n + j)],
                bias[static_cast<std::size_t>(j)]);
    }
  }
}

// --------------------------------------------------------- bit identity ----

TEST(Kernels, BlockedEqualsPerElementFmaChain) {
  // The determinism rule, pinned directly: every output is the chain
  // acc = init(epilogue); acc = fma(a_ik, b_kj, acc) over ascending k, then
  // rectified for the fused-ReLU epilogues. M, N and K sit on both sides of
  // the 6-row panel, the 16-column panel, the second 48-row and 240-column
  // macro tile and the second 256-deep k panel; K = 0 is the epilogue alone.
  const Epilogue epilogues[] = {Epilogue::kZero,     Epilogue::kAccumulate,
                                Epilogue::kBiasRow,  Epilogue::kBiasCol,
                                Epilogue::kReluZero, Epilogue::kReluBiasRow};
  Rng rng(0xfa11);
  int cases = 0;
  for (const std::int64_t m : {5, 6, 49}) {
    for (const std::int64_t n : {15, 16, 241}) {
      for (const std::int64_t k : {0, 1, 257}) {
        const auto a = random_matrix(m * k, rng);
        const auto b = random_matrix(k * n, rng);
        const auto bias = random_matrix(std::max(m, n), rng);
        const auto c0 = random_matrix(m * n, rng);
        for (const bool ta : {false, true}) {
          for (const bool tb : {false, true}) {
            const std::int64_t lda = ta ? m : k;
            const std::int64_t ldb = tb ? k : n;
            for (const Epilogue ep : epilogues) {
              auto c = c0;
              gemm_blocked(m, n, k, a.data(), lda, ta, b.data(), ldb, tb,
                           c.data(), n, ep, bias.data());
              for (std::int64_t i = 0; i < m; ++i) {
                for (std::int64_t j = 0; j < n; ++j) {
                  const auto at = static_cast<std::size_t>(i * n + j);
                  float acc = 0.0f;
                  if (ep == Epilogue::kAccumulate) acc = c0[at];
                  if (ep == Epilogue::kBiasRow ||
                      ep == Epilogue::kReluBiasRow) {
                    acc = bias[static_cast<std::size_t>(i)];
                  }
                  if (ep == Epilogue::kBiasCol) {
                    acc = bias[static_cast<std::size_t>(j)];
                  }
                  for (std::int64_t kk = 0; kk < k; ++kk) {
                    acc = std::fma(logical_a(a, lda, ta, i, kk),
                                   logical_b(b, ldb, tb, kk, j), acc);
                  }
                  if (ep == Epilogue::kReluZero ||
                      ep == Epilogue::kReluBiasRow) {
                    acc = acc > 0.0f ? acc : 0.0f;
                  }
                  ASSERT_EQ(float_to_bits(c[at]), float_to_bits(acc))
                      << "m=" << m << " n=" << n << " k=" << k
                      << " ta=" << ta << " tb=" << tb
                      << " epilogue=" << static_cast<int>(ep) << " at (" << i
                      << "," << j << ")";
                }
              }
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 27 * 4 * 6);
}

// ------------------------------------------------------- IEEE faithfulness ----

TEST(KernelsIeee, ZeroTimesInfProducesNaNInBothKernels) {
  // The old zero-skip dropped this term entirely and returned a finite
  // number — masking exactly the Inf an error model injected.
  const std::int64_t m = 2, n = 3, k = 4;
  std::vector<float> a(m * k, 1.0f);
  std::vector<float> b(k * n, 1.0f);
  a[0 * k + 2] = 0.0f;           // A(0,2) = 0
  for (std::int64_t j = 0; j < n; ++j) b[2 * n + j] = kInf;  // B(2,*) = Inf
  for (const bool blocked : {false, true}) {
    std::vector<float> c(m * n, 0.0f);
    if (blocked) {
      gemm_blocked(m, n, k, a.data(), k, false, b.data(), n, false, c.data(),
                   n);
    } else {
      naive_gemm(m, n, k, a.data(), k, false, b.data(), n, false, c.data(), n);
    }
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isnan(c[static_cast<std::size_t>(j)]))
          << (blocked ? "blocked" : "naive") << " kernel dropped 0 * Inf at j="
          << j;
      EXPECT_TRUE(std::isinf(c[static_cast<std::size_t>(n + j)]))
          << "row without the zero must see the Inf";
    }
  }
}

TEST(KernelsIeee, NaNOperandPropagatesThroughZeroPartner) {
  const std::int64_t m = 1, n = 2, k = 3;
  std::vector<float> a{0.0f, 0.0f, 0.0f};
  std::vector<float> b(k * n, 5.0f);
  b[1 * n + 0] = kQNaN;  // B(1,0) = NaN against a zero activation
  for (const bool blocked : {false, true}) {
    std::vector<float> c(m * n, 0.0f);
    if (blocked) {
      gemm_blocked(m, n, k, a.data(), k, false, b.data(), n, false, c.data(),
                   n);
    } else {
      naive_gemm(m, n, k, a.data(), k, false, b.data(), n, false, c.data(), n);
    }
    EXPECT_TRUE(std::isnan(c[0]));
    EXPECT_EQ(c[1], 0.0f);
  }
}

TEST(KernelsIeee, MatmulPropagatesInfAgainstZeroActivation) {
  // tensor::matmul regression: activation 0 times injected Inf weight.
  Tensor a({1, 2}, std::vector<float>{0.0f, 1.0f});
  Tensor b({2, 2}, std::vector<float>{kInf, 2.0f, 3.0f, 4.0f});
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c[0])) << "0 * Inf must reach the matmul output";
  EXPECT_EQ(c[1], 4.0f);
}

TEST(KernelsIeee, ConvZeroWeightTimesInfActivationIsNaN) {
  // Conv2d regression: a weight injected to exactly 0.0 (stuck-at-zero
  // model) must still multiply an Inf activation and yield NaN; the old
  // `if (wv == 0.0f) continue;` silently produced a finite output.
  Rng rng(3);
  nn::Conv2d conv(
      nn::Conv2dOptions{.in_channels = 2, .out_channels = 1, .kernel = 1},
      rng);
  conv.weight().value.fill(0.0f);
  conv.invalidate_weight_packs();
  Tensor x({1, 2, 2, 2}, 1.0f);
  x.at(0, 0, 0, 0) = kInf;
  const Tensor y = conv(x);
  EXPECT_TRUE(std::isnan(y.at(0, 0, 0, 0)))
      << "zero weight x Inf activation must be NaN, not skipped";
  EXPECT_TRUE(std::isfinite(y.at(0, 0, 1, 1)))
      << "positions away from the Inf stay finite";
}

// ------------------------------------------------- module differentials ----

/// Largest |a - b| over two same-shaped tensors.
float tensor_max_diff(const Tensor& a, const Tensor& b) {
  return a.max_abs_diff(b);
}

/// Bit-compare two tensors.
bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

/// Conv2d's forward as the determinism rule defines it, one output at a
/// time: acc starts at the bias (or +0) and takes acc = fma(w, x, acc) over
/// the group's (c, kh, kw) taps in ascending order, a padding tap reading
/// x = 0 — so an Inf weight over padding yields NaN, as it does in hardware.
Tensor conv_fma_chain(nn::Conv2d& conv, const Tensor& x) {
  const nn::Conv2dOptions& o = conv.options();
  const std::int64_t h = x.size(2), w = x.size(3);
  const std::int64_t ho = conv.out_size(h), wo = conv.out_size(w);
  const std::int64_t cin_g = o.in_channels / o.groups;
  const std::int64_t cout_g = o.out_channels / o.groups;
  const Tensor& wt = conv.weight().value;
  Tensor y({x.size(0), o.out_channels, ho, wo});
  for (std::int64_t n = 0; n < x.size(0); ++n) {
    for (std::int64_t oc = 0; oc < o.out_channels; ++oc) {
      const std::int64_t c0 = oc / cout_g * cin_g;
      for (std::int64_t oh = 0; oh < ho; ++oh) {
        for (std::int64_t ow = 0; ow < wo; ++ow) {
          float acc = o.bias ? conv.bias().value[oc] : 0.0f;
          for (std::int64_t c = 0; c < cin_g; ++c) {
            for (std::int64_t kh = 0; kh < o.kernel; ++kh) {
              for (std::int64_t kw = 0; kw < o.kernel; ++kw) {
                const std::int64_t ih = oh * o.stride - o.padding + kh;
                const std::int64_t iw = ow * o.stride - o.padding + kw;
                const bool inside = ih >= 0 && ih < h && iw >= 0 && iw < w;
                const float xv = inside ? x.at(n, c0 + c, ih, iw) : 0.0f;
                acc = std::fma(wt.at(oc, c, kh, kw), xv, acc);
              }
            }
          }
          y.at(n, oc, oh, ow) = acc;
        }
      }
    }
  }
  return y;
}

/// Conv2d geometries both conv sweeps run, each on a batch of 2.
struct ConvCase {
  std::int64_t cin, cout, kernel, stride, padding, groups, h;
  bool bias;
};
constexpr ConvCase kConvSweep[] = {
    {2, 3, 1, 1, 0, 1, 5, true},    // 1x1
    {3, 4, 3, 1, 1, 1, 7, true},    // the workhorse 3x3
    {3, 2, 3, 2, 1, 1, 9, false},   // strided
    {4, 4, 2, 2, 0, 1, 8, true},    // even kernel, no pad
    {2, 2, 7, 1, 3, 1, 9, true},    // k=7 (AlexNet-style front)
    {4, 6, 3, 1, 1, 2, 6, true},    // grouped
    {3, 3, 3, 1, 1, 3, 6, false},   // depthwise
    {4, 8, 5, 2, 2, 2, 11, true},   // grouped + strided + k=5
};

nn::Conv2d make_conv(const ConvCase& cs, Rng& rng) {
  return nn::Conv2d(
      nn::Conv2dOptions{.in_channels = cs.cin, .out_channels = cs.cout,
                        .kernel = cs.kernel, .stride = cs.stride,
                        .padding = cs.padding, .groups = cs.groups,
                        .bias = cs.bias},
      rng);
}

::testing::Message conv_where(const ConvCase& cs) {
  return ::testing::Message() << "conv k=" << cs.kernel << " s=" << cs.stride
                              << " p=" << cs.padding << " g=" << cs.groups;
}

TEST(KernelsConv, ForwardMatchesNaiveAcrossConfigSweep) {
  Rng rng(21);
  int padded_nans = 0;
  for (const auto& cs : kConvSweep) {
    nn::Conv2d conv = make_conv(cs, rng);
    const Tensor x = Tensor::rand({2, cs.cin, cs.h, cs.h}, rng, -1.0f, 1.0f);
    const auto where = conv_where(cs);
    EXPECT_TRUE(bit_equal(conv(x), conv_fma_chain(conv, x))) << where;

    // An Inf weight: every output of channel 0 whose first tap lands in
    // the padding must be NaN, with the chain's exact bits.
    conv.weight().value[0] = kInf;
    conv.invalidate_weight_packs();
    const Tensor y = conv(x);
    EXPECT_TRUE(bit_equal(y, conv_fma_chain(conv, x))) << where << " +inf";
    for (std::int64_t n = 0; n < y.size(0); ++n) {
      for (std::int64_t oh = 0; oh < y.size(2); ++oh) {
        for (std::int64_t ow = 0; ow < y.size(3); ++ow) {
          if (oh * cs.stride >= cs.padding && ow * cs.stride >= cs.padding) {
            continue;
          }
          EXPECT_TRUE(std::isnan(y.at(n, 0, oh, ow)))
              << where << " +inf over padding at " << oh << "," << ow;
          ++padded_nans;
        }
      }
    }
  }
  EXPECT_GT(padded_nans, 0);
}


/// Conv2d::backward as the determinism rule defines it:
///  - input gradient: each patch entry is the chain acc = +0,
///    acc = fma(w, gy, acc) over the group's output channels in ascending
///    order; each input element starts at +0 and adds the entries that
///    read it in patch-row (c, kh, kw) order;
///  - weight gradient: each weight is one chain acc = fma(gy, x, acc) from
///    +0 over the samples, then the output pixels, in ascending order, a
///    padding tap reading x = 0;
///  - bias gradient: a left-to-right float sum over each sample's pixels,
///    the per-sample sums added up in sample order.
struct ConvGrads {
  Tensor gx, gw, gb;
};
ConvGrads conv_backward_chains(nn::Conv2d& conv, const Tensor& x,
                               const Tensor& gy) {
  const nn::Conv2dOptions& o = conv.options();
  const std::int64_t h = x.size(2), w = x.size(3);
  const std::int64_t ho = gy.size(2), wo = gy.size(3);
  const std::int64_t cin_g = o.in_channels / o.groups;
  const std::int64_t cout_g = o.out_channels / o.groups;
  const Tensor& wt = conv.weight().value;
  ConvGrads g{Tensor(x.shape()), Tensor(wt.shape()), Tensor({o.out_channels})};
  const auto inside = [&](std::int64_t ih, std::int64_t iw) {
    return ih >= 0 && ih < h && iw >= 0 && iw < w;
  };
  for (std::int64_t n = 0; n < x.size(0); ++n) {
    for (std::int64_t grp = 0; grp < o.groups; ++grp) {
      for (std::int64_t c = 0; c < cin_g; ++c) {
        for (std::int64_t kh = 0; kh < o.kernel; ++kh) {
          for (std::int64_t kw = 0; kw < o.kernel; ++kw) {
            for (std::int64_t oh = 0; oh < ho; ++oh) {
              for (std::int64_t ow = 0; ow < wo; ++ow) {
                const std::int64_t ih = oh * o.stride - o.padding + kh;
                const std::int64_t iw = ow * o.stride - o.padding + kw;
                if (!inside(ih, iw)) continue;
                float entry = 0.0f;
                for (std::int64_t oc = grp * cout_g; oc < (grp + 1) * cout_g;
                     ++oc) {
                  entry = std::fma(wt.at(oc, c, kh, kw), gy.at(n, oc, oh, ow),
                                   entry);
                }
                g.gx.at(n, grp * cin_g + c, ih, iw) += entry;
              }
            }
          }
        }
      }
    }
  }
  for (std::int64_t oc = 0; oc < o.out_channels; ++oc) {
    const std::int64_t c0 = oc / cout_g * cin_g;
    for (std::int64_t c = 0; c < cin_g; ++c) {
      for (std::int64_t kh = 0; kh < o.kernel; ++kh) {
        for (std::int64_t kw = 0; kw < o.kernel; ++kw) {
          float acc = 0.0f;
          for (std::int64_t n = 0; n < x.size(0); ++n) {
            for (std::int64_t oh = 0; oh < ho; ++oh) {
              for (std::int64_t ow = 0; ow < wo; ++ow) {
                const std::int64_t ih = oh * o.stride - o.padding + kh;
                const std::int64_t iw = ow * o.stride - o.padding + kw;
                const float xv =
                    inside(ih, iw) ? x.at(n, c0 + c, ih, iw) : 0.0f;
                acc = std::fma(gy.at(n, oc, oh, ow), xv, acc);
              }
            }
          }
          g.gw.at(oc, c, kh, kw) = acc;
        }
      }
    }
    float total = 0.0f;
    for (std::int64_t n = 0; n < x.size(0); ++n) {
      float sum = 0.0f;
      for (std::int64_t oh = 0; oh < ho; ++oh) {
        for (std::int64_t ow = 0; ow < wo; ++ow) sum += gy.at(n, oc, oh, ow);
      }
      total += sum;
    }
    g.gb[oc] = total;
  }
  return g;
}

TEST(KernelsConv, BackwardMatchesChainsAcrossConfigSweep) {
  Rng rng(23);
  for (const auto& cs : kConvSweep) {
    nn::Conv2d conv = make_conv(cs, rng);
    const Tensor x = Tensor::rand({2, cs.cin, cs.h, cs.h}, rng, -1.0f, 1.0f);
    const Tensor gy = Tensor::rand(conv(x).shape(), rng, -1.0f, 1.0f);
    conv.zero_grad();
    const Tensor gx = conv.backward(gy);
    const ConvGrads want = conv_backward_chains(conv, x, gy);
    const auto where = conv_where(cs);
    EXPECT_TRUE(bit_equal(gx, want.gx)) << where << " input gradient";
    EXPECT_TRUE(bit_equal(conv.weight().grad, want.gw))
        << where << " weight gradient";
    if (cs.bias) {
      EXPECT_TRUE(bit_equal(conv.bias().grad, want.gb))
          << where << " bias gradient";
    }
  }
}

TEST(KernelsLinear, ForwardAndBackwardMatchNaive) {
  Rng rng(22);
  const std::int64_t n = 4, in = 13, out = 9;
  for (const bool bias : {true, false}) {
    nn::Linear fc(in, out, rng, bias);
    const Tensor x = Tensor::rand({n, in}, rng, -1.0f, 1.0f);
    const Tensor g = Tensor::rand({n, out}, rng, -1.0f, 1.0f);
    const float* w = fc.weight().value.data().data();

    // The reference: the same three GEMMs through naive_gemm.
    Tensor y_ref({n, out}), gx_ref({n, in}), gw_ref({out, in});
    naive_gemm(n, out, in, x.data().data(), in, false, w, in, true,
               y_ref.data().data(), out,
               bias ? Epilogue::kBiasCol : Epilogue::kZero,
               bias ? fc.bias().value.data().data() : nullptr);
    naive_gemm(n, in, out, g.data().data(), out, false, w, in, false,
               gx_ref.data().data(), in);
    naive_gemm(out, in, n, g.data().data(), out, true, x.data().data(), in,
               false, gw_ref.data().data(), in, Epilogue::kAccumulate);

    const Tensor y_blk = fc(x).clone();
    fc.zero_grad();
    const Tensor gx_blk = fc.backward(g).clone();
    const Tensor gw_blk = fc.weight().grad.clone();

    EXPECT_LE(tensor_max_diff(y_ref, y_blk), 1e-5f);
    EXPECT_LE(tensor_max_diff(gx_ref, gx_blk), 1e-5f);
    EXPECT_LE(tensor_max_diff(gw_ref, gw_blk), 1e-5f);
  }
}

// ------------------------------------------------------ packed-weight cache ----

/// Writes 42 (representable in fp16, far from any initialized weight) to
/// each weight position `at` through a tensor alias — with no
/// invalidate_weight_packs(), like the injector — and requires the next
/// forward to change and restoring the bits to restore the output bits.
void expect_aliased_writes_seen(nn::GemmLayer& layer, const Tensor& x,
                                std::initializer_list<std::int64_t> at) {
  const Tensor y0 = layer(x).clone();
  EXPECT_TRUE(bit_equal(y0, layer(x).clone()));  // served from the cached pack
  Tensor alias = layer.weight().value;  // shared storage, like the injector
  for (const std::int64_t i : at) {
    const float golden = alias[i];
    alias[i] = 42.0f;
    EXPECT_FALSE(bit_equal(y0, layer(x).clone()))
        << "stale pack served after an aliased write to weight " << i;
    alias[i] = golden;
    EXPECT_TRUE(bit_equal(y0, layer(x).clone()))
        << "restoring weight " << i << " must restore the output bits";
  }
}

TEST(KernelsCache, AliasedWeightMutationIsNeverServedStale)
{
  // The fault injector mutates weights through tensor aliases; the pack
  // cache must catch that via its key digest even without an explicit
  // invalidate() call, in every fp32 slot and at every digest position.
  Rng rng(31);
  // The A-side slot. 54 weights: one 32-element lane block plus a
  // 22-element tail, so element 53 is the tail's last.
  nn::Conv2d conv(
      nn::Conv2dOptions{.in_channels = 2, .out_channels = 3, .kernel = 3,
                        .padding = 1},
      rng);
  const Tensor x = Tensor::rand({1, 2, 5, 5}, rng, -1.0f, 1.0f);
  expect_aliased_writes_seen(conv, x, {0, 53});

  // The B-side slot (Linear packs W^T). 120 weights: three lane blocks and
  // a 24-element tail.
  nn::Linear fc(40, 3, rng);
  const Tensor xl = Tensor::rand({2, 40}, rng, -1.0f, 1.0f);
  expect_aliased_writes_seen(fc, xl, {0, 37, 64, 95, 96, 119});

  // The rounded slot of a native fp16 conv: 42 moves the 16-bit code.
  nn::Conv2d conv16(
      nn::Conv2dOptions{.in_channels = 2, .out_channels = 3, .kernel = 3,
                        .padding = 1},
      rng);
  conv16.set_native_dtype(LowPrec::kFp16);
  expect_aliased_writes_seen(conv16, x, {0, 53});
}

TEST(KernelsCache, InvalidateDropsThePack) {
  Rng rng(32);
  nn::Linear fc(6, 5, rng);
  const Tensor x = Tensor::rand({2, 6}, rng, -1.0f, 1.0f);
  const Tensor y0 = fc(x).clone();
  fc.invalidate_weight_packs();
  const Tensor y1 = fc(x).clone();  // repacked from scratch
  EXPECT_TRUE(bit_equal(y0, y1));
}

TEST(KernelsCache, FingerprintDetectsSingleBitFlips) {
  std::vector<float> w(64, 1.5f);
  const auto fp0 = fingerprint(w.data(), 64);
  for (const int bit : {0, 11, 22, 31}) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{63}}) {
      auto bits = float_to_bits(w[at]);
      bits ^= (1u << bit);
      const float saved = w[at];
      w[at] = bits_to_float(bits);
      EXPECT_NE(fingerprint(w.data(), 64), fp0)
          << "bit " << bit << " at element " << at << " not detected";
      w[at] = saved;
    }
  }
  EXPECT_EQ(fingerprint(w.data(), 64), fp0);
}

TEST(KernelsCache, PackDigestDetectsEverySingleBitFlip) {
  // Lengths on both sides of the 32-lane block edges, every element, every
  // bit: a change confined to one element must change the digest, and
  // restoring the bits must restore it.
  Rng rng(33);
  for (const std::int64_t n : {1, 2, 31, 32, 33, 63, 64, 65, 257, 1000}) {
    std::vector<float> w = random_matrix(n, rng);
    const std::uint64_t d0 = pack_digest(w.data(), n);
    for (std::int64_t at = 0; at < n; ++at) {
      float* p = w.data() + at;
      std::uint32_t golden;
      std::memcpy(&golden, p, sizeof(golden));
      for (int bit = 0; bit < 32; ++bit) {
        const std::uint32_t flipped = golden ^ (1u << bit);
        std::memcpy(p, &flipped, sizeof(flipped));
        ASSERT_NE(pack_digest(w.data(), n), d0)
            << "n " << n << ": bit " << bit << " of element " << at
            << " not detected";
      }
      std::memcpy(p, &golden, sizeof(golden));
    }
    EXPECT_EQ(pack_digest(w.data(), n), d0) << "n " << n;
  }
}

// ------------------------------------------------- emulated INT8 projection ----

/// Restores the INT8 ISA (which also selects the emulated projection's
/// path) after every test.
class KernelsQuant : public ::testing::Test {
 protected:
  void TearDown() override { set_i8_isa(I8Isa::kAuto); }
};

/// Every INT8 ISA the host supports (set_i8_isa throws on the others).
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

TEST_F(KernelsQuant, FakeQuantizeRowMatchesScalarRoundTripAcrossIsa) {
  // Values whose vector and scalar round trips could part: NaNs of both
  // signs, quiet and signalling, with payloads (the clamp must map each to
  // -127); infinities, signed zeros and subnormals; exact half-code ties
  // at scale 1 (round-nearest-even, not away); saturating magnitudes; and
  // each scale's own half-code points with their neighbours, where only an
  // IEEE division lands on the scalar side of the tie.
  std::vector<float> pool;
  for (const std::uint32_t bits :
       {0x7fc00000u, 0xffc00000u, 0x7fc12345u, 0xffc00001u, 0x7f800001u,
        0xff800001u, 0x7fa5a5a5u, 0xffbfffffu, 0x7f800000u, 0xff800000u,
        0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u, 0x007fffffu,
        0x807fffffu}) {
    pool.push_back(bits_to_float(bits));
  }
  for (const float v : {0.5f, 1.5f, 2.5f, -2.5f, -0.5f, 126.5f, 127.5f,
                        1e30f, -1e30f}) {
    pool.push_back(v);
  }
  const std::vector<float> scales{1.0f, 1.0f / 127.0f, 3.1f / 127.0f};
  for (const float s : scales) {
    for (int k = -128; k <= 127; k += 5) {
      const float tie = (static_cast<float>(k) + 0.5f) * s;
      pool.push_back(tie);
      pool.push_back(std::nextafter(tie, kInf));
      pool.push_back(std::nextafter(tie, -kInf));
    }
  }
  Rng rng(0x1f8);
  const std::vector<float> noise = random_matrix(200, rng, -3.0f, 3.0f);
  pool.insert(pool.end(), noise.begin(), noise.end());

  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(1000);
  const auto pool_size = static_cast<std::int64_t>(pool.size());
  for (const I8Isa isa : supported_i8_isas()) {
    set_i8_isa(isa);
    for (const float scale : scales) {
      const quant::QuantParams qp{.scale = scale};
      for (const std::int64_t n : lengths) {
        // Each length starts at a different pool offset, so every special
        // value lands in vector lanes and in the scalar tail.
        std::vector<float> row(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) {
          row[static_cast<std::size_t>(i)] =
              pool[static_cast<std::size_t>((i * 7 + n * 13) % pool_size)];
        }
        std::vector<float> got = row;
        fake_quantize_row(got.data(), n, scale);
        for (std::int64_t i = 0; i < n; ++i) {
          const float v = row[static_cast<std::size_t>(i)];
          ASSERT_EQ(float_to_bits(got[static_cast<std::size_t>(i)]),
                    float_to_bits(quant::fake_quantize_value(v, qp)))
              << "isa " << static_cast<int>(isa) << " scale " << scale
              << " n " << n << " element " << i << " input bits 0x"
              << std::hex << float_to_bits(v);
        }
        if (n == 0) continue;
        // calibrate takes the finite-only absmax on every ISA.
        float serial = 0.0f;
        for (const float v : row) {
          if (std::isfinite(v) && std::fabs(v) > serial) serial = std::fabs(v);
        }
        const Tensor t({n}, row);
        ASSERT_EQ(float_to_bits(quant::calibrate(t).scale),
                  float_to_bits(quant::calibrate_absmax(serial).scale))
            << "isa " << static_cast<int>(isa) << " n " << n;
      }
    }
  }
}

// ------------------------------------------------------------ max pooling ----

/// MaxPool2d's forward as it was when it kept an int64 flat input index per
/// output: the oracle for both pooling paths and for the offsets.
struct IndexPool {
  std::vector<float> out;
  std::vector<std::int64_t> argmax;
};

IndexPool index_pool(std::span<const float> in, const PoolShape& s) {
  IndexPool r;
  for (std::int64_t p = 0; p < s.planes; ++p) {
    for (std::int64_t oh = 0; oh < s.out_h(); ++oh) {
      for (std::int64_t ow = 0; ow < s.out_w(); ++ow) {
        float best = -kInf;
        std::int64_t best_idx = -1;
        for (std::int64_t kh = 0; kh < s.kernel; ++kh) {
          const std::int64_t ih = oh * s.stride - s.padding + kh;
          if (ih < 0 || ih >= s.h) continue;
          for (std::int64_t kw = 0; kw < s.kernel; ++kw) {
            const std::int64_t iw = ow * s.stride - s.padding + kw;
            if (iw < 0 || iw >= s.w) continue;
            const std::int64_t idx = (p * s.h + ih) * s.w + iw;
            const float v = in[static_cast<std::size_t>(idx)];
            if (v > best || best_idx < 0 || std::isnan(v)) {
              best = v;
              best_idx = idx;
            }
          }
        }
        r.out.push_back(best);
        r.argmax.push_back(best_idx);
      }
    }
  }
  return r;
}

/// The matching backward: scatter each output gradient to its int64 index.
std::vector<float> index_scatter(const IndexPool& ref,
                                 std::span<const float> grad,
                                 std::size_t numel) {
  std::vector<float> gi(numel, 0.0f);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    gi[static_cast<std::size_t>(ref.argmax[i])] += grad[i];
  }
  return gi;
}

/// Values that split every case of the selection rule: NaNs with distinct
/// payloads, both signs, quiet and signalling; +-0; +-inf; small integers
/// (tied maxima); plain uniforms. nan_pct = 100 makes every window all-NaN.
std::vector<float> hostile_values(std::int64_t n, Rng& rng, int nan_pct) {
  std::vector<float> v(static_cast<std::size_t>(n));
  std::uint32_t payload = 0;
  for (auto& x : v) {
    const std::uint32_t sign = rng.bernoulli(0.5) ? 0x80000000u : 0u;
    if (static_cast<int>(rng.next_below(100)) < nan_pct) {
      payload = payload % 0x3fffffu + 1;
      const std::uint32_t quiet = rng.bernoulli(0.5) ? 0x400000u : 0u;
      x = bits_to_float(sign | 0x7f800000u | quiet | payload);
      continue;
    }
    const auto kind = rng.next_below(10);
    if (kind == 0) {
      x = bits_to_float(sign);  // +-0
    } else if (kind == 1) {
      x = bits_to_float(sign | 0x7f800000u);  // +-inf
    } else if (kind < 6) {
      x = static_cast<float>(rng.next_int(-2, 2));
    } else {
      x = rng.uniform(-3.0f, 3.0f);
    }
  }
  return v;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(KernelsMaxPool, SimdScalarAndIndexOracleAgreeBitForBit) {
  // Every geometry the zoo uses (2/2/0, googlenet's 3/1/1), the
  // PoolGeometry grid, and padded windows; output widths 1..17 so every
  // tail length after the 8-wide groups runs; odd heights and widths. The
  // 2x2 rows run their 8-output groups on AVX2 (where the CPU has it) and
  // their tails, like every row shorter than 8 outputs and every other
  // geometry, on the scalar loop: the oracle checks both.
  struct Geometry {
    std::int64_t kernel, stride, padding;
  };
  std::vector<Geometry> geometries = {{2, 2, 0}, {3, 1, 1}, {2, 2, 1},
                                      {3, 2, 1}, {4, 2, 2}, {5, 3, 2}};
  for (const std::int64_t k : {2, 3, 4}) {
    for (const std::int64_t st : {1, 2, 3}) geometries.push_back({k, st, 0});
  }
  Rng rng(97);
  int cases = 0;
  for (const auto& g : geometries) {
    const auto span_for = [&](std::int64_t outputs) {
      return (outputs - 1) * g.stride + g.kernel - 2 * g.padding;
    };
    std::vector<std::int64_t> heights = {span_for(1), span_for(2) + 1,
                                         span_for(3)};
    std::vector<std::int64_t> widths;
    for (std::int64_t wo = 1; wo <= 17; ++wo) {
      widths.push_back(span_for(wo));
      widths.push_back(span_for(wo) + 1);
    }
    if (g.kernel == 2 && g.stride == 2 && g.padding == 0) {
      heights.push_back(1);  // one output row whose windows the edge clips
      widths.push_back(1);
    }
    for (const auto h : heights) {
      for (const auto w : widths) {
        if (h < 1 || w < 1) continue;
        for (const int nan_pct : {0, 15, 100}) {
          const std::int64_t n = 2, c = 3;
          const PoolShape s{.planes = n * c, .h = h, .w = w,
                            .kernel = g.kernel, .stride = g.stride,
                            .padding = g.padding};
          const auto where = ::testing::Message()
                             << "k" << g.kernel << "s" << g.stride << "p"
                             << g.padding << " h=" << h << " w=" << w
                             << " nan%=" << nan_pct;
          const auto in = hostile_values(s.planes * h * w, rng, nan_pct);
          const IndexPool ref = index_pool(in, s);
          const auto outputs = ref.out.size();

          std::vector<float> out(outputs);
          std::vector<std::uint8_t> off(outputs);
          max_pool2d(s, in.data(), out.data(), off.data());
          ASSERT_TRUE(same_bits(out, ref.out)) << where;
          std::size_t i = 0;
          for (std::int64_t p = 0; p < s.planes; ++p) {
            for (std::int64_t oh = 0; oh < s.out_h(); ++oh) {
              for (std::int64_t ow = 0; ow < s.out_w(); ++ow, ++i) {
                const std::int64_t kh = off[i] / g.kernel;
                const std::int64_t kw = off[i] % g.kernel;
                const std::int64_t flat =
                    (p * h + oh * g.stride - g.padding + kh) * w +
                    ow * g.stride - g.padding + kw;
                ASSERT_EQ(flat, ref.argmax[i]) << where << " output " << i;
              }
            }
          }

          // Backward through the layer, after an eval-mode forward (the
          // Grad-CAM order), against the int64-index scatter.
          const Tensor x({n, c, h, w}, in);
          const Tensor grad =
              Tensor::rand({n, c, s.out_h(), s.out_w()}, rng, -1.0f, 1.0f);
          const auto want = index_scatter(ref, grad.data(), in.size());
          nn::MaxPool2d mp(g.kernel, g.stride, g.padding);
          mp.eval();
          ASSERT_TRUE(same_bits(mp(x).data(), ref.out)) << where;
          ASSERT_TRUE(same_bits(mp.backward(grad).data(), want)) << where;
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 1500);
}

TEST(KernelsMaxPool, ModelLogitsIdenticalUnderBothPoolingPaths) {
  // Every max pool of two zoo networks, on real activations. In the
  // reference run a forward hook replaces each pool's output with the
  // index_pool oracle's, so the logits compare the library's pooling paths
  // with the oracle and nothing else.
  for (const char* name : {"alexnet", "squeezenet"}) {
    Rng rng(41);
    auto model = models::make_model(name, {}, rng);
    model->eval();
    bool reference = false;
    int recomputed = 0;
    for (auto& [path, m] : model->named_modules()) {
      auto* mp = dynamic_cast<nn::MaxPool2d*>(m);
      if (mp == nullptr) continue;
      mp->register_forward_hook(
          [mp, &reference, &recomputed](nn::Module&, const Tensor& in,
                                        Tensor& out) {
            if (!reference) return;
            const PoolShape s{.planes = in.size(0) * in.size(1),
                              .h = in.size(2), .w = in.size(3),
                              .kernel = mp->kernel(), .stride = mp->stride(),
                              .padding = mp->padding()};
            const IndexPool ref = index_pool(in.data(), s);
            ASSERT_EQ(ref.out.size(), out.data().size());
            std::memcpy(out.data().data(), ref.out.data(),
                        ref.out.size() * sizeof(float));
            ++recomputed;
          });
    }
    for (const std::int64_t batch : {1, 8}) {
      const Tensor x = Tensor::rand({batch, 3, 32, 32}, rng, -1.0f, 1.0f);
      reference = false;
      const Tensor pooled = (*model)(x).clone();
      reference = true;
      const Tensor oracle = (*model)(x).clone();
      EXPECT_TRUE(bit_equal(pooled, oracle)) << name << " batch " << batch;
    }
    EXPECT_GE(recomputed, 4) << name;
  }
}

}  // namespace
}  // namespace pfi::kernels
