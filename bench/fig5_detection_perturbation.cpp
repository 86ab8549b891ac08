// Fig. 5 reproduction: perturbations on a YOLO-style object detection
// network. The paper shows a single qualitative example — a correct
// two-object inference (5a) vs a perturbed run detecting "many phantom
// objects each of which are classified seemingly arbitrarily" (5b) — under
// an error model of one random-FP32-value neuron perturbation per layer.
//
// This bench quantifies that figure: it trains the mini-YOLO detector,
// verifies it detects well, then runs N perturbed scenes per injection
// magnitude and reports how often the output is corrupted, split into
// phantom / missed / reclassified objects. It ends with one ASCII rendering
// of a golden-vs-faulty scene, the paper's visual.
//
// Environment knobs: PFI_SCENES (default 60).
#include <cstdio>
#include <cstdlib>

#include "core/fault_injector.hpp"
#include "detect/yolo.hpp"
#include "util/env.hpp"

namespace {

/// Coarse ASCII view of a scene with detection boxes overlaid.
void render_scene(const pfi::Tensor& image,
                  const std::vector<pfi::detect::Detection>& dets) {
  const auto s = image.size(2);
  const auto step = s / 24;
  for (std::int64_t y = 0; y < s; y += step) {
    for (std::int64_t x = 0; x < s; x += step) {
      char c = image.at(0, 0, y, x) + image.at(0, 1, y, x) > 0.8f ? 'o' : '.';
      const float fx = static_cast<float>(x) / static_cast<float>(s);
      const float fy = static_cast<float>(y) / static_cast<float>(s);
      for (const auto& d : dets) {
        const bool on_edge =
            (std::abs(fx - (d.cx - d.w / 2)) < 0.03f ||
             std::abs(fx - (d.cx + d.w / 2)) < 0.03f ||
             std::abs(fy - (d.cy - d.h / 2)) < 0.03f ||
             std::abs(fy - (d.cy + d.h / 2)) < 0.03f) &&
            fx >= d.cx - d.w / 2 - 0.03f && fx <= d.cx + d.w / 2 + 0.03f &&
            fy >= d.cy - d.h / 2 - 0.03f && fy <= d.cy + d.h / 2 + 0.03f;
        if (on_edge) c = d.cls == 0 ? '#' : '%';
      }
      std::putchar(c);
    }
    std::putchar('\n');
  }
}

}  // namespace

// A refused setting (a malformed PFI_* value, a rejected config) exits 2
// with its message instead of aborting, as pfi_cli does.
int main() try {
  using namespace pfi;
  const std::int64_t num_scenes = util::env_int("PFI_SCENES", 60);
  const detect::YoloConfig cfg;
  const data::SceneSpec scenes;

  std::printf("=== Fig. 5: perturbing a YOLO-style detector ===\n");
  Rng rng(1);
  auto model = detect::make_yolo(cfg, rng);
  std::printf("training mini-YOLO...\n");
  const float loss = detect::train_yolo(*model, scenes, cfg, {});
  Rng eval_rng(2);
  const double f1 = detect::evaluate_yolo(*model, scenes, cfg, 40, eval_rng);
  std::printf("  loss %.3f, clean detection F1 %.2f\n\n", loss, f1);
  model->eval();

  core::FaultInjector fi(
      model, {.input_shape = {3, scenes.size, scenes.size}, .batch_size = 1});
  std::printf("error model: one uniform random FP32 neuron per layer "
              "(%lld layers), %lld scenes per row\n\n",
              static_cast<long long>(fi.num_layers()),
              static_cast<long long>(num_scenes));
  std::printf("%-22s %10s %9s %9s %13s %8s\n", "injection magnitude",
              "corrupted", "phantoms", "missed", "reclassified",
              "per-scene");

  Rng scene_rng(3);
  Rng fault_rng(4);
  Tensor example_image;
  std::vector<detect::Detection> example_golden, example_faulty;

  for (const float mag : {1.0f, 10.0f, 100.0f, 1000.0f}) {
    std::int64_t corrupted = 0, phantoms = 0, missed = 0, reclassified = 0;
    for (std::int64_t i = 0; i < num_scenes; ++i) {
      const auto scene = data::make_scene(scenes, scene_rng);
      fi.clear();
      const auto golden = detect::decode(fi.forward(scene.image), cfg, 0);
      core::declare_one_fault_per_layer(fi, core::random_value(-mag, mag),
                                        fault_rng);
      const auto faulty = detect::decode(fi.forward(scene.image), cfg, 0);
      fi.clear();
      const auto diff = detect::diff_detections(golden, faulty);
      corrupted += diff.corrupted() ? 1 : 0;
      phantoms += diff.phantoms;
      missed += diff.missed;
      reclassified += diff.reclassified;
      // Keep the most dramatic example for the visual below.
      if (diff.phantoms >
          static_cast<std::int64_t>(example_faulty.size()) -
              static_cast<std::int64_t>(example_golden.size())) {
        example_image = scene.image;
        example_golden = golden;
        example_faulty = faulty;
      }
    }
    std::printf("U[-%-7.0f, %7.0f] %9.0f%% %9lld %9lld %13lld %8.2f\n", mag,
                mag, 100.0 * static_cast<double>(corrupted) / num_scenes,
                static_cast<long long>(phantoms),
                static_cast<long long>(missed),
                static_cast<long long>(reclassified),
                static_cast<double>(phantoms + missed + reclassified) /
                    static_cast<double>(num_scenes));
  }

  if (example_image.defined()) {
    std::printf("\n--- example scene, golden (%zu objects) ---\n",
                example_golden.size());
    render_scene(example_image, example_golden);
    std::printf("--- same scene, faulty (%zu objects; # = square box, %% = "
                "disk box) ---\n",
                example_faulty.size());
    render_scene(example_image, example_faulty);
  }

  std::printf("\npaper shape check: larger injected magnitudes corrupt more "
              "scenes and\nproduce phantom objects (Fig. 5b's behaviour); "
              "small magnitudes are mostly masked.\n");
  return 0;
} catch (const pfi::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
