// Fig. 7 reproduction: "Visualization of error injections in DenseNet using
// Grad-CAM": (a) no perturbation, (b) a 10,000-value injection in the LEAST
// sensitive feature map barely moves the heatmap or the Top-1, (c) the same
// injection in the MOST sensitive feature map skews the heatmap.
//
// The paper's figure is qualitative; this bench quantifies it over many
// correctly-classified images: mean heatmap distance and Top-1 flip rate
// for least- vs most-sensitive feature-map injections, plus one rendered
// example triple.
//
// Expected shape: most-sensitive injections move the heatmap far more and
// flip the Top-1 much more often than least-sensitive ones.
//
// Environment knobs: PFI_IMAGES (default 25).
#include <cstdio>
#include <cstdlib>

#include "core/fault_injector.hpp"
#include "interpret/gradcam.hpp"
#include "models/trainer.hpp"
#include "models/zoo.hpp"
#include "util/env.hpp"

// A refused setting (a malformed PFI_* value, a rejected config) exits 2
// with its message instead of aborting, as pfi_cli does.
int main() try {
  using namespace pfi;
  const std::int64_t num_images = util::env_int("PFI_IMAGES", 25);

  data::SyntheticDataset ds(data::cifar10_like());
  Rng rng(1);
  auto model = models::make_model("densenet", {.num_classes = 10}, rng);
  std::printf("=== Fig. 7: Grad-CAM under feature-map injections (DenseNet) "
              "===\n\ntraining densenet-mini...\n");
  models::train_classifier(*model, ds,
                           {.epochs = 3, .batches_per_epoch = 40,
                            .batch_size = 16, .lr = 0.05f});
  model->eval();

  nn::Module* target = nullptr;
  for (nn::Module* m : model->modules()) {
    if (m->kind() == "Conv2d") target = m;  // last conv
  }
  // ORDER MATTERS: hooks fire in registration order, so the injector must
  // be constructed BEFORE GradCam — its corruption hook then runs first and
  // the Grad-CAM capture sees the perturbed activations, as in the paper.
  core::FaultInjector fi(model, {.input_shape = {3, 32, 32}, .batch_size = 1});
  interpret::GradCam cam(model, *target);
  std::int64_t target_layer = -1;
  for (std::int64_t l = 0; l < fi.num_layers(); ++l) {
    if (&fi.layer(l) == target) target_layer = l;
  }
  const Shape shape = fi.layer_shape(target_layer);

  struct Row {
    double distance = 0.0;
    std::int64_t flips = 0;
  };
  // The paper injects 10,000 into DenseNet-121 (1024 channels, many nearly
  // dead). On a 60-channel miniature, 10,000 through GAP saturates EVERY
  // channel's contribution, so the least/most contrast only emerges at
  // magnitudes proportionate to the model's activation scale — we sweep.
  const float magnitudes[] = {20.0f, 100.0f, 10000.0f};
  constexpr int kMags = 3;
  Row low[kMags], high[kMags];
  std::int64_t used = 0;

  Rng data_rng(2);
  Tensor example_image;
  interpret::GradCamResult example_golden, example_low, example_high;

  while (used < num_images) {
    const auto batch = ds.sample_batch(1, data_rng);
    fi.clear();
    const Tensor logits = (*model)(batch.images);
    if (logits.argmax() != batch.labels[0]) continue;  // correct ones only
    ++used;

    const auto golden = cam.compute(batch.images);
    // Rank fmaps by aggregate sensitivity across ALL class logits: a fmap
    // with near-zero gradient for the predicted class can still flip the
    // Top-1 through other classes' logits.
    const auto sens = cam.channel_sensitivity(batch.images);
    const auto lo_fmap = interpret::argmin_sensitivity(sens);
    const auto hi_fmap = interpret::argmax_sensitivity(sens);

    auto probe = [&](std::int64_t fmap, float magnitude) {
      fi.clear();
      fi.declare_neuron_fault({.layer = target_layer,
                               .batch = 0,
                               .c = fmap,
                               .h = shape[2] / 2,
                               .w = shape[3] / 2},
                              core::constant_value(magnitude));
      const auto r = cam.compute(batch.images);
      fi.clear();
      return r;
    };

    for (int m = 0; m < kMags; ++m) {
      const auto r_low = probe(lo_fmap, magnitudes[m]);
      const auto r_high = probe(hi_fmap, magnitudes[m]);
      low[m].distance +=
          interpret::heatmap_distance(golden.heatmap, r_low.heatmap);
      high[m].distance +=
          interpret::heatmap_distance(golden.heatmap, r_high.heatmap);
      low[m].flips += r_low.top1 != golden.top1 ? 1 : 0;
      high[m].flips += r_high.top1 != golden.top1 ? 1 : 0;
      if (!example_image.defined() && m == 1) {
        example_image = batch.images;
        example_golden = golden;
        example_low = r_low;
        example_high = r_high;
      }
    }
  }

  std::printf("\n%lld correctly-classified images, injections at the target "
              "fmap center\n\n",
              static_cast<long long>(used));
  std::printf("%-11s %-28s %18s %14s\n", "injection", "target",
              "heatmap distance", "Top-1 flips");
  for (int m = 0; m < kMags; ++m) {
    std::printf("%-11.0f %-28s %18.4f %11lld/%lld\n", magnitudes[m],
                "least sensitive fmap (7b)",
                low[m].distance / static_cast<double>(used),
                static_cast<long long>(low[m].flips),
                static_cast<long long>(used));
    std::printf("%-11.0f %-28s %18.4f %11lld/%lld\n", magnitudes[m],
                "most sensitive fmap (7c)",
                high[m].distance / static_cast<double>(used),
                static_cast<long long>(high[m].flips),
                static_cast<long long>(used));
  }

  std::printf("\n--- example: golden heatmap (Top-1 %lld) ---\n%s",
              static_cast<long long>(example_golden.top1),
              interpret::render_ascii(example_golden.heatmap).c_str());
  std::printf("--- least-sensitive injection (Top-1 %lld) ---\n%s",
              static_cast<long long>(example_low.top1),
              interpret::render_ascii(example_low.heatmap).c_str());
  std::printf("--- most-sensitive injection (Top-1 %lld) ---\n%s",
              static_cast<long long>(example_high.top1),
              interpret::render_ascii(example_high.heatmap).c_str());

  std::printf("\npaper shape check: at magnitudes proportionate to the "
              "model's activation scale,\nthe least-sensitive injection "
              "leaves the visualization (and usually the Top-1)\nunchanged "
              "while the most-sensitive one skews the heatmap. At the "
              "paper's absolute\n10,000 every channel of a 60-channel "
              "miniature saturates the GAP head, so the\ncontrast washes "
              "out — an artifact of model scale, not of the method.\n");
  return 0;
} catch (const pfi::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
