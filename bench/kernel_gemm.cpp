// GEMM microbenchmark for pfi::kernels: naive reference vs the blocked
// (packed, register-tiled, AVX2-dispatched) kernel on the im2col GEMM
// shapes that AlexNet and ResNet18 actually run during a CIFAR campaign.
//
// Shapes are derived at runtime from the zoo models themselves: for every
// Conv2d, the forward GEMM per group is
//   M = out_channels / groups,  K = (in_channels / groups) * k * k,
//   N = H_out * W_out
// so the numbers here are exactly the problems `FaultInjector::forward`
// spends its time in. Prints GFLOP/s for both kernels plus the speedup,
// then a weighted total (each shape weighted by groups x its flop count).
//
// Alongside the fp32 naive/blocked pair, two native-INT8 rows time the
// deployed quantized path on the same shapes (same 2*M*N*K op count, so
// the GOP/s columns compare directly):
//   int8-gemm : prepacked steady state — both operands already quantized
//               and packed; per call = exact i32 GEMM + fp32 requantize.
//   int8-path : what a STATICALLY-CALIBRATED conv forward actually pays per
//               pass — weights prepacked, activations quantized+packed in a
//               single sweep at the frozen scale (no per-inference absmax),
//               then GEMM + fused requantize-to-grid epilogue. The three
//               phases (quantize+pack / gemm / requantize) are timed
//               separately; the row reports their sum and the footer the
//               weighted phase breakdown.
//
// The last column times what every Conv2d/Linear forward pays BEFORE its
// GEMM: a cache hit of kernels::WeightPackCache::packed_a on the shape's
// weight matrix, which re-reads every weight to check the pack is current.
// It is reported in ns per weight; the footer gives the weighted lookup
// time as a share of the weighted blocked-GEMM time.
//
// Environment knob: PFI_BENCH_REPS_MS (target ms per measurement, default
// 300). Every kernel runs on one thread, as it does inside a campaign: the
// campaign engine parallelizes across trials, not inside one GEMM.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/fault_injector.hpp"
#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "models/zoo.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace pfi;

struct GemmShape {
  std::string layer;
  std::int64_t m = 0, n = 0, k = 0;
  std::int64_t weight = 1;  // groups x batch occurrences
};

/// im2col GEMM shapes of every Conv2d in `model_name` at CIFAR geometry.
std::vector<GemmShape> conv_gemm_shapes(const std::string& model_name) {
  Rng rng(1);
  auto model = models::make_model(model_name, {.num_classes = 10}, rng);
  model->eval();
  core::FaultInjector fi(model, {.input_shape = {3, 32, 32}, .batch_size = 1});
  std::vector<GemmShape> shapes;
  for (std::int64_t i = 0; i < fi.num_layers(); ++i) {
    auto* conv = dynamic_cast<nn::Conv2d*>(&fi.layer(i));
    if (conv == nullptr) continue;
    const auto& o = conv->options();
    const Shape& out = fi.layer_shape(i);  // [N, C, H, W]
    GemmShape s;
    s.layer = model_name + "/" + fi.layer_path(i);
    s.m = o.out_channels / o.groups;
    s.k = (o.in_channels / o.groups) * o.kernel * o.kernel;
    s.n = out[2] * out[3];
    s.weight = o.groups;
    shapes.push_back(s);
  }
  return shapes;
}

/// Dedup identical (m, n, k), merging weights, largest flop count first.
std::vector<GemmShape> dedup(std::vector<GemmShape> in) {
  std::vector<GemmShape> out;
  for (auto& s : in) {
    auto it = std::find_if(out.begin(), out.end(), [&](const GemmShape& o) {
      return o.m == s.m && o.n == s.n && o.k == s.k;
    });
    if (it != out.end()) {
      it->weight += s.weight;
    } else {
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.m * a.n * a.k * a.weight > b.m * b.n * b.k * b.weight;
  });
  return out;
}

/// Seconds per call of `fn`, repeated until ~target_ms of wall time.
template <typename Fn>
double time_per_call(Fn&& fn, double target_ms) {
  fn();  // warm up (and populate pack scratch)
  int reps = 1;
  for (;;) {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) fn();
    const double ms = sw.elapsed_ms();
    if (ms >= target_ms || reps > (1 << 24)) return ms * 1e-3 / reps;
    reps = ms < target_ms / 16.0 ? reps * 8 : reps * 2;
  }
}

}  // namespace

// A refused setting (a malformed PFI_* value, a rejected config) exits 2
// with its message instead of aborting, as pfi_cli does.
int main() try {
  const double target_ms = util::env_double("PFI_BENCH_REPS_MS", 300.0);
  std::printf("pfi::kernels GEMM microbenchmark (simd %s, 1 thread)\n",
              kernels::simd_available() ? "avx2+fma" : "scalar");
  std::printf("shapes: im2col GEMMs of every conv in alexnet + resnet18 "
              "(CIFAR geometry, batch 1)\n\n");

  std::vector<GemmShape> shapes;
  for (const char* name : {"alexnet", "resnet18"}) {
    auto s = conv_gemm_shapes(name);
    shapes.insert(shapes.end(), s.begin(), s.end());
  }
  shapes = dedup(std::move(shapes));

  std::printf("%-34s %6s %6s %6s | %9s %9s %9s %9s | %7s %7s | %7s\n",
              "layer (first of dup)", "M", "N", "K", "naive", "blocked",
              "int8-gemm", "int8-path", "blk/nve", "i8/blk", "lookup");
  std::printf("%-34s %6s %6s %6s | %9s %9s %9s %9s | %7s %7s | %7s\n", "",
              "", "", "", "GFLOP/s", "GFLOP/s", "GOP/s", "GOP/s", "", "",
              "ns/wt");

  double naive_total_s = 0.0, blocked_total_s = 0.0, flops_total = 0.0;
  double i8_total_s = 0.0, i8_path_total_s = 0.0;
  double quant_total_s = 0.0, gemm_total_s = 0.0, req_total_s = 0.0;
  double lookup_total_s = 0.0;
  Rng rng(7);
  for (const auto& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    std::vector<float> bias(static_cast<std::size_t>(s.m));
    for (auto& x : a) x = rng.uniform(-1.0f, 1.0f);
    for (auto& x : b) x = rng.uniform(-1.0f, 1.0f);
    for (auto& x : bias) x = rng.uniform(-1.0f, 1.0f);

    const double flops = 2.0 * static_cast<double>(s.m) * s.n * s.k;
    const double t_naive = time_per_call(
        [&] {
          kernels::naive_gemm(s.m, s.n, s.k, a.data(), s.k, false, b.data(),
                              s.n, false, c.data(), s.n,
                              kernels::Epilogue::kBiasRow, bias.data());
        },
        target_ms);
    const double t_blocked = time_per_call(
        [&] {
          kernels::gemm_blocked(s.m, s.n, s.k, a.data(), s.k, false, b.data(),
                                s.n, false, c.data(), s.n,
                                kernels::Epilogue::kBiasRow, bias.data());
        },
        target_ms);

    // Native INT8, mirroring Conv2d::forward_int8: per-row weight scales +
    // prepacked weight panels, per-tensor activation quantization.
    const auto row_scales =
        kernels::per_row_scales_i8(s.m, s.k, a.data(), s.k, false);
    kernels::PackedPanelsI8 pa, pb;
    kernels::quantize_pack_a_i8(s.m, s.k, a.data(), s.k, false,
                                kernels::block_config().mr, row_scales.data(),
                                pa);
    kernels::quantize_pack_b_i8_tensor(s.k, s.n, b.data(), s.n, false, pb);
    std::vector<std::int32_t> acc(static_cast<std::size_t>(s.m * s.n));
    const double t_i8 = time_per_call(
        [&] {
          kernels::gemm_i8(s.m, s.n, s.k, pa, pb, acc.data(), s.n);
          kernels::requantize_rows(s.m, s.n, acc.data(), s.n,
                                   row_scales.data(), pb.scale[0], bias.data(),
                                   c.data(), s.n);
        },
        target_ms);

    // Static-calibration per-pass cost, phase by phase. The frozen scales
    // stand in for a calibration file: activation scale from the operand's
    // absmax (paid ONCE here, like the golden calibration pass), output
    // scale from the fp32 result the blocked kernel just produced.
    const float act_scale = kernels::scale_from_absmax(kernels::finite_absmax_i8(
        b.data(), static_cast<std::int64_t>(b.size())));
    const float out_scale = kernels::scale_from_absmax(kernels::finite_absmax_i8(
        c.data(), static_cast<std::int64_t>(c.size())));
    const double t_quant = time_per_call(
        [&] {
          kernels::quantize_pack_b_i8_static(s.k, s.n, b.data(), s.n, false,
                                             act_scale, pb);
        },
        target_ms);
    const double t_gemm = time_per_call(
        [&] { kernels::gemm_i8(s.m, s.n, s.k, pa, pb, acc.data(), s.n); },
        target_ms);
    const double t_req = time_per_call(
        [&] {
          kernels::requantize_rows_grid(s.m, s.n, acc.data(), s.n,
                                        row_scales.data(), pb.scale[0],
                                        bias.data(), out_scale, true, c.data(),
                                        s.n);
        },
        target_ms);
    const double t_i8_path = t_quant + t_gemm + t_req;

    // The per-forward pack-cache check: the warm-up call packs, every timed
    // call is a hit.
    kernels::WeightPackCache cache;
    const double t_lookup = time_per_call(
        [&] { cache.packed_a(s.m, s.k, a.data(), s.k, false); }, target_ms);

    std::printf(
        "%-34s %6lld %6lld %6lld | %9.2f %9.2f %9.2f %9.2f | %6.2fx %6.2fx "
        "| %7.3f\n",
        s.layer.c_str(), static_cast<long long>(s.m),
        static_cast<long long>(s.n), static_cast<long long>(s.k),
        flops / t_naive * 1e-9, flops / t_blocked * 1e-9, flops / t_i8 * 1e-9,
        flops / t_i8_path * 1e-9, t_naive / t_blocked, t_blocked / t_i8,
        t_lookup / static_cast<double>(a.size()) * 1e9);

    const double w = static_cast<double>(s.weight);
    naive_total_s += t_naive * w;
    blocked_total_s += t_blocked * w;
    i8_total_s += t_i8 * w;
    i8_path_total_s += t_i8_path * w;
    quant_total_s += t_quant * w;
    gemm_total_s += t_gemm * w;
    req_total_s += t_req * w;
    lookup_total_s += t_lookup * w;
    flops_total += flops * w;
  }

  std::printf("\nweighted total (all conv GEMMs, one forward each):\n");
  std::printf("  naive     : %8.2f GFLOP/s\n",
              flops_total / naive_total_s * 1e-9);
  std::printf("  blocked   : %8.2f GFLOP/s\n",
              flops_total / blocked_total_s * 1e-9);
  std::printf("  int8-gemm : %8.2f GOP/s\n", flops_total / i8_total_s * 1e-9);
  std::printf("  int8-path : %8.2f GOP/s\n",
              flops_total / i8_path_total_s * 1e-9);
  std::printf("  blocked vs naive   : %6.2fx\n",
              naive_total_s / blocked_total_s);
  std::printf("  int8-gemm vs blocked: %6.2fx\n", blocked_total_s / i8_total_s);
  std::printf("  int8-path vs blocked: %6.2fx\n",
              blocked_total_s / i8_path_total_s);
  std::printf("  int8-path phases (weighted): quantize+pack %.1f%%, gemm "
              "%.1f%%, requantize %.1f%%\n",
              100.0 * quant_total_s / i8_path_total_s,
              100.0 * gemm_total_s / i8_path_total_s,
              100.0 * req_total_s / i8_path_total_s);
  std::printf("  pack-cache hit vs blocked GEMM (weighted): %.2f%%\n",
              100.0 * lookup_total_s / blocked_total_s);
  return 0;
} catch (const pfi::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
