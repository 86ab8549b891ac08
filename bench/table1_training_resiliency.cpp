// Table I reproduction: "Training ResNet18 with and without PyTorchFI for
// resiliency."
//
//   paper:                 Baseline      PyTorchFI
//   Training time          2h 8m 33s     2h 8m 57s   (~equal)
//   Test accuracy          95.50%        95.34%      (-0.16%)
//   Post-training output   10,543        7,701       (FI-trained wins)
//   misclassifications     (of 24M)      (of 24M)
//
// This bench trains two ResNet18-mini models from identical initialization
// — one plain, one with the paper's error model (a random neuron per layer
// set to U[-1,1] during every training forward pass) — then measures
// training time, test accuracy, and post-training misclassifications under
// an error-injection campaign.
//
// Expected shape: training time within a few percent, accuracy within a
// fraction of a percent, and the FI-trained model showing FEWER (or at
// least no more) post-training misclassifications.
//
// Environment knobs: PFI_TRIALS (default 1500), PFI_EPOCHS (default 4).
// PFI_CHECKPOINT=PREFIX checkpoints the two post-training campaigns at
// PREFIX-{baseline,pytorchfi}.ckpt; PFI_RESUME=1 continues an interrupted
// run exactly (training is deterministic, so the resumed campaign sees
// bit-identical weights).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "models/trainer.hpp"
#include "models/zoo.hpp"
#include "util/env.hpp"

// A refused setting (a malformed PFI_* value, a rejected config) exits 2
// with its message instead of aborting, as pfi_cli does.
int main() try {
  using namespace pfi;
  const std::int64_t trials = util::env_int("PFI_TRIALS", 1500);
  const std::int64_t epochs = util::env_int("PFI_EPOCHS", 3);
  const std::int64_t threads = util::env_int("PFI_THREADS", 0);
  const std::string checkpoint_prefix = util::env_str("PFI_CHECKPOINT", "");
  const bool resume = util::env_flag("PFI_RESUME", false);

  data::SyntheticDataset ds(data::cifar10_like());
  const models::TrainConfig train_cfg{.epochs = epochs,
                                      .batches_per_epoch = 40,
                                      .batch_size = 16,
                                      .lr = 0.05f,
                                      .seed = 3};

  std::printf("=== Table I: training ResNet18 with and without injection "
              "===\n\n");

  // Identical initialization (paper: "trained from the same initialization
  // conditions for a clean comparison").
  auto make_net = [] {
    Rng rng(7);
    return models::make_model("resnet18", {.num_classes = 10}, rng);
  };

  std::printf("training baseline...\n");
  auto baseline = make_net();
  const auto base_train = models::train_classifier(*baseline, ds, train_cfg);

  std::printf("training with PyTorchFI-style injection (random neuron per "
              "layer <- U[-1,1] each forward)...\n");
  auto resilient = make_net();
  {
    core::FaultInjector fi(resilient, {.input_shape = {3, 32, 32},
                                       .batch_size = train_cfg.batch_size});
    Rng fault_rng(11);
    const auto fi_train = models::train_classifier(
        *resilient, ds, train_cfg,
        [&](std::int64_t) {
          core::declare_one_fault_per_layer(fi, core::random_value(),
                                            fault_rng);
        },
        [&](std::int64_t) { fi.clear(); });

    // The same fixed test set for both models (the paper evaluates "on a
    // separate test set").
    Rng eval_rng(13);
    const auto test_set = models::make_fixed_set(ds, 400, eval_rng);
    const double base_acc = models::evaluate_on(*baseline, test_set, 16);
    const double fi_acc = models::evaluate_on(*resilient, test_set, 16);

    // Post-training resiliency campaign (identical for both models): one
    // fault per layer, as during FI training, at a magnitude calibrated for
    // statistically resolvable corruption counts (DESIGN.md Sec. 7).
    auto campaign = [&](const std::shared_ptr<nn::Sequential>& m,
                        const std::string& label) {
      core::FaultInjector cfi(m,
                              {.input_shape = {3, 32, 32}, .batch_size = 1});
      core::CampaignConfig cfg;
      cfg.trials = trials;
      cfg.one_fault_per_layer = true;
      cfg.injections_per_image = 4;
      cfg.threads = threads;
      cfg.error_model = core::random_value(-512.0f, 512.0f);
      cfg.seed = 21;
      std::unique_ptr<core::CampaignCheckpointer> ckpt;
      if (!checkpoint_prefix.empty()) {
        ckpt = std::make_unique<core::CampaignCheckpointer>(
            checkpoint_prefix + "-" + label + ".ckpt");
        const std::uint64_t fp =
            core::campaign_fingerprint(cfg, "table1|" + label);
        if (resume) ckpt->resume(fp);
        else ckpt->begin(fp);
        cfg.checkpoint = ckpt.get();
      }
      return core::run_classification_campaign(cfi, ds, cfg);
    };
    const auto base_camp = campaign(baseline, "baseline");
    const auto fi_camp = campaign(resilient, "pytorchfi");

    std::printf("\n%-36s %14s %14s\n", "", "Baseline", "PyTorchFI");
    std::printf("%-36s %13.1fs %13.1fs\n", "Training time",
                base_train.wall_seconds, fi_train.wall_seconds);
    std::printf("%-36s %13.2f%% %13.2f%%\n", "Test accuracy", 100.0 * base_acc,
                100.0 * fi_acc);
    std::printf("%-36s %14llu %14llu\n",
                ("Post-training misclassifications (of " +
                 std::to_string(trials) + ")")
                    .c_str(),
                static_cast<unsigned long long>(base_camp.corruptions),
                static_cast<unsigned long long>(fi_camp.corruptions));

    const auto bp = base_camp.corruption_probability();
    const auto fp = fi_camp.corruption_probability();
    std::printf("%-36s %13.2f%% %13.2f%%\n", "  as probability [99% CI below]",
                100.0 * bp.value, 100.0 * fp.value);
    std::printf("%-36s [%5.2f, %5.2f]%% [%5.2f, %5.2f]%%\n", "", 100.0 * bp.lo,
                100.0 * bp.hi, 100.0 * fp.lo, 100.0 * fp.hi);

    std::printf("\npaper shape check: (1) training time within noise, "
                "(2) accuracy delta well under 1%%,\n(3) the FI-trained model "
                "has fewer post-training misclassifications (paper: "
                "10,543 -> 7,701).\n");
  }
  return 0;
} catch (const pfi::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
