// Fig. 4 reproduction: "Top-1 Misclassification probability for different
// quantized networks trained on ImageNet, using a single-bit flip error
// model of neurons."
//
// Methodology (paper Sec. IV-A):
//   * six networks with INT8 neuron quantization,
//   * each trial injects ONE bit flip in a randomly selected neuron,
//   * only images the unperturbed model classifies correctly are counted,
//   * result: Top-1 misclassification probability with 99% Wilson CIs.
//
// Expected shape vs the paper: every network shows a small but nonzero
// corruption probability (paper: a little under 1% on average), no network
// is 100% reliable, and the ordering differences across topologies are
// visible (e.g. AlexNet's rate is comparable to much-larger ShuffleNet's).
//
// Environment knobs: PFI_TRIALS (default 1200), PFI_EPOCHS (default 3),
// PFI_THREADS (default 0 = hardware concurrency) and PFI_PREFIX_CACHE
// (strictly "0" or "1"; default on — pure speed knob, identical results;
// see core/prefix_cache.hpp).
// PFI_SAMPLER=stratified switches to the stratified adaptive sampler
// (core/sampling.hpp; same single-bit-flip fault space, pooled stratified
// estimator in place of the uniform Wilson interval) and prints an
// efficiency footer per network; PFI_CI_TARGET sets its pooled 99% CI
// half-width goal (default 0 = spend the whole PFI_TRIALS budget).
// Crash safety: PFI_CHECKPOINT=PREFIX persists one checkpoint per network
// at PREFIX-<network>.ckpt after every campaign wave; with PFI_RESUME=1 an
// interrupted sweep continues where it stopped, reproducing the
// uninterrupted numbers exactly.
// PFI_SHARDS=S (1 to core::kMaxShards) splits each network's campaign
// across S shards (in-process, shard files under PFI_SHARD_DIR, default
// fig4-shards) and merges — the
// reported numbers are byte-identical to the unsharded sweep (see
// core/shard.hpp). Mutually exclusive with PFI_CHECKPOINT (shards keep
// their own checkpoints) and with a PFI_CI_TARGET stratified run (CI-target
// campaigns couple strata and cannot shard).
// PFI_DTYPE selects the campaign representation (default int8 — the
// paper's quantized setting); any of fp32|fp16|bf16|int8 with an optional
// -native suffix, e.g. PFI_DTYPE=int8-native runs every conv through the
// native INT8 GEMM path instead of fp32-with-emulation.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/cli.hpp"
#include "core/report.hpp"
#include "core/sampling.hpp"
#include "core/shard.hpp"
#include "models/trainer.hpp"
#include "models/zoo.hpp"
#include "util/env.hpp"

namespace {

/// PFI_SAMPLER: unset or "uniform" -> false, "stratified" -> true; anything
/// else aborts rather than silently benchmarking the wrong configuration.
bool stratified_sampler_enabled() {
  const std::string s = pfi::util::env_str("PFI_SAMPLER", "");
  if (s.empty() || s == "uniform") return false;
  if (s == "stratified") return true;
  std::fprintf(stderr, "PFI_SAMPLER must be uniform or stratified, got '%s'\n",
               s.c_str());
  std::exit(2);
}

}  // namespace

// A refused setting (a malformed PFI_* value, a rejected config) exits 2
// with its message instead of aborting, as pfi_cli does.
int main() try {
  using namespace pfi;
  const std::int64_t trials = util::env_int("PFI_TRIALS", 1200);
  const std::int64_t epochs = util::env_int("PFI_EPOCHS", 3);
  const std::int64_t threads = util::env_int("PFI_THREADS", 0);
  const std::string checkpoint_prefix = util::env_str("PFI_CHECKPOINT", "");
  const bool resume = util::env_flag("PFI_RESUME", false);
  // Strict parse: a typo in PFI_PREFIX_CACHE throws instead of silently
  // timing the wrong configuration.
  const bool prefix_cache = util::env_flag("PFI_PREFIX_CACHE", true);
  const bool stratified = stratified_sampler_enabled();
  const double ci_target = util::env_double("PFI_CI_TARGET", 0.0);
  const std::int64_t shards =
      util::env_int("PFI_SHARDS", 1, 1, core::kMaxShards);
  std::string shard_dir = util::env_str("PFI_SHARD_DIR", "");
  if (shard_dir.empty()) shard_dir = "fig4-shards";
  std::string dtype_text = util::env_str("PFI_DTYPE", "");
  if (dtype_text.empty()) dtype_text = "int8";
  const auto dtype_spec = core::parse_dtype_spec(dtype_text);
  if (!dtype_spec.has_value()) {
    std::fprintf(stderr,
                 "PFI_DTYPE must be fp32|fp16|bf16|int8[-native], got '%s'\n",
                 dtype_text.c_str());
    return 2;
  }
  if (shards > 1 && !checkpoint_prefix.empty()) {
    std::fprintf(stderr, "PFI_SHARDS conflicts with PFI_CHECKPOINT — shard "
                         "runs manage their own checkpoints\n");
    return 2;
  }

  data::SyntheticDataset ds(data::imagenet_like());
  const auto spec = ds.spec();

  std::printf("=== Fig. 4: Top-1 misclassification under INT8 single-bit "
              "flips ===\n");
  std::printf("dataset: synthetic %s (%lldx%lld, %lld classes); trials per "
              "network: %lld\n\n",
              spec.name.c_str(), static_cast<long long>(spec.height),
              static_cast<long long>(spec.width),
              static_cast<long long>(spec.classes),
              static_cast<long long>(trials));
  std::printf("%-12s %9s %8s %12s %22s %9s\n", "network", "accuracy",
              "params", "corruptions", "P(misclass) [99% CI]", "nonfinite");

  for (const auto& name : models::fig4_networks()) {
    Rng rng(std::hash<std::string>{}(name));
    // Experiment identity for checkpoints/shards; the default int8 keeps the
    // historical "fig4|<net>" context so existing checkpoints still resume.
    const std::string ctx =
        dtype_text == "int8" ? "fig4|" + name
                             : "fig4|" + dtype_text + "|" + name;
    auto model = models::make_model(
        name, {.num_classes = spec.classes, .image_size = spec.height}, rng);
    // Per-architecture learning rates (no-BN nets need gentler steps; see
    // DESIGN.md Sec. 7 calibration notes).
    float lr = 0.04f;
    std::int64_t net_epochs = epochs;
    if (name == "alexnet") { lr = 0.003f; net_epochs = epochs + 2; }
    if (name == "vgg19") { lr = 0.002f; net_epochs = epochs + 2; }
    if (name == "squeezenet") { lr = 0.01f; net_epochs = epochs + 3; }
    if (name == "resnet50") { lr = 0.06f; }
    models::train_classifier(
        *model, ds,
        {.epochs = net_epochs, .batches_per_epoch = 40, .batch_size = 12,
         .lr = lr, .seed = 3});
    Rng eval_rng(5);
    const double acc = models::evaluate_accuracy(*model, ds, 8, 12, eval_rng);

    core::FiConfig fi_cfg{.input_shape = {3, spec.height, spec.width},
                          .batch_size = 1,
                          .dtype = dtype_spec->dtype,
                          .native = dtype_spec->native};
    fi_cfg.prefix_cache = prefix_cache;
    core::FaultInjector fi(model, fi_cfg);
    core::CampaignConfig cfg;
    cfg.trials = trials;
    cfg.error_model = core::single_bit_flip();  // random bit, INT8 domain
    cfg.seed = 17;
    cfg.injections_per_image = 8;  // amortize the golden inference
    cfg.threads = threads;
    core::StratifiedCampaignConfig scfg;
    if (stratified) {
      scfg.base = cfg;
      scfg.target_half_width = ci_target;
      scfg.prune_verify = util::env_flag("PFI_PRUNE_VERIFY", false);
    }
    std::unique_ptr<core::CampaignCheckpointer> ckpt;
    if (!checkpoint_prefix.empty()) {
      ckpt = std::make_unique<core::CampaignCheckpointer>(
          checkpoint_prefix + "-" + name + ".ckpt");
      const std::uint64_t fp =
          stratified ? core::stratified_fingerprint(scfg, ctx)
                     : core::campaign_fingerprint(cfg, ctx);
      if (resume) ckpt->resume(fp);
      else ckpt->begin(fp);
      cfg.checkpoint = ckpt.get();
    }
    const auto t0 = std::chrono::steady_clock::now();
    core::CampaignResult r;
    Proportion p{};
    std::string efficiency;
    if (shards > 1) {
      // Sharded sweep: per-network shard files, deterministic merge. The
      // numbers are byte-identical to the unsharded branches below.
      const std::string dir = shard_dir + "/" + name;
      if (stratified) {
        scfg.base = cfg;
        const core::StratifiedResult sr = core::run_sharded_stratified(
            fi, ds, scfg, shards, dir, nullptr, ctx);
        r = sr.totals;
        p = sr.estimate();
        efficiency = core::stratified_efficiency_footer(sr);
      } else {
        r = core::run_sharded_classification(fi, ds, cfg, shards, dir,
                                             nullptr, ctx);
        p = r.corruption_probability();
      }
    } else if (stratified) {
      scfg.base = cfg;  // picks up the checkpoint pointer
      const core::StratifiedResult sr =
          core::run_stratified_campaign(fi, ds, scfg);
      r = sr.totals;
      p = sr.estimate();
      efficiency = core::stratified_efficiency_footer(sr);
    } else {
      r = core::run_classification_campaign(fi, ds, cfg);
      p = r.corruption_probability();
    }
    const double campaign_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("%-12s %8.1f%% %8lld %12llu   %6.3f%% [%.3f, %.3f]%% %9llu\n",
                name.c_str(), 100.0 * acc,
                static_cast<long long>(model->parameter_count()),
                static_cast<unsigned long long>(r.corruptions), 100.0 * p.value,
                100.0 * p.lo, 100.0 * p.hi,
                static_cast<unsigned long long>(r.non_finite));
    // Campaign wall time is the phase the prefix cache accelerates;
    // training above is untouched by it.
    std::printf("             campaign wall time: %.2f s\n", campaign_s);
    for (std::size_t pos = 0; pos < efficiency.size();) {
      auto nl = efficiency.find('\n', pos);
      if (nl == std::string::npos) nl = efficiency.size();
      std::printf("             %.*s\n", static_cast<int>(nl - pos),
                  efficiency.c_str() + pos);
      pos = nl + 1;
    }
    const std::string footer = core::campaign_prefix_footer(fi);
    if (!footer.empty()) std::printf("             %s\n", footer.c_str());
  }

  std::printf("\npaper shape check: corruption probabilities are in the "
              "paper's sub-1%% regime and\nINT8 flips never produce NaN/Inf "
              "(bounded quantized domain), unlike FP32 exponent\nflips. "
              "Networks showing 0 corruptions are below this trial count's "
              "resolution\n(the paper used ~10^7 injections per network); "
              "raise PFI_TRIALS to resolve them.\nOur miniature models also "
              "mask more than the paper's (see DESIGN.md Sec. 7).\n");
  return 0;
} catch (const pfi::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
