// Campaign-engine scaling: trials/second of the neuron-injection campaign at
// 1, 2, 4, ... worker threads on a ResNet18-style model, plus a live check
// that every thread count reproduces the single-thread CampaignResult counts
// exactly (the engine's determinism guarantee).
//
// Trials are embarrassingly parallel — each worker owns a deep model replica
// and a counter-derived seed stream — so throughput should scale with
// physical cores. On a single-core container every configuration collapses
// to ~1x with a small scheduling overhead; run on a multi-core host to see
// the speedup.
//
// Environment knobs: PFI_TRIALS (default 200), PFI_MAX_THREADS (at least 1;
// default: the hardware thread count),
// PFI_CAMPAIGN_TRACE=1 attaches a TraceSink to every run — the trace-on vs
// trace-off comparison behind the EXPERIMENTS.md overhead table — and
// additionally checks the merged JSONL is byte-identical across thread
// counts. PFI_CAMPAIGN_CHECKPOINT=1 additionally attaches a per-wave durable
// checkpointer (plus a streaming trace file when tracing is on), so the
// crash-safety machinery's fsync cost shows up in the same trials/s table.
// PFI_SHARDS=S (1 to core::kMaxShards) with S > 1 runs every row through
// the sharded fabric (core/shard.hpp): S in-process shards + deterministic
// merge, identity-checked against the SAME single-thread unsharded
// reference — so the table shows the fabric's
// record/replay overhead AND proves shard-count x thread-count byte
// identity in one run. Shard files live under campaign_scaling-shards/ and
// are removed per row.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "models/zoo.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

// A refused setting (a malformed PFI_* value, a rejected config) exits 2
// with its message instead of aborting, as pfi_cli does.
int main() try {
  using namespace pfi;
  const std::int64_t trials = util::env_int("PFI_TRIALS", 200);
  const std::int64_t max_threads = util::env_int(
      "PFI_MAX_THREADS",
      static_cast<std::int64_t>(util::ThreadPool::hardware_threads()), 1);
  const bool tracing = util::env_flag("PFI_CAMPAIGN_TRACE", false);
  const bool checkpointing = util::env_flag("PFI_CAMPAIGN_CHECKPOINT", false);
  const std::int64_t shards =
      util::env_int("PFI_SHARDS", 1, 1, core::kMaxShards);
  if (shards > 1 && checkpointing) {
    std::fprintf(stderr, "PFI_SHARDS conflicts with PFI_CAMPAIGN_CHECKPOINT — "
                         "shard runs manage their own checkpoints\n");
    return 2;
  }

  data::SyntheticDataset ds(data::cifar10_like());
  const auto spec = ds.spec();

  Rng rng(101);
  auto model = models::make_model(
      "resnet18", {.num_classes = spec.classes, .image_size = spec.height},
      rng);

  core::FaultInjector fi(
      model, {.input_shape = {3, spec.height, spec.width}, .batch_size = 4});

  std::printf("=== Campaign scaling: neuron campaign on resnet18 (%lld "
              "trials, trace %s, checkpoint %s, shards %lld) ===\n",
              static_cast<long long>(trials), tracing ? "ON" : "off",
              checkpointing ? "ON" : "off", static_cast<long long>(shards));
  std::printf("hardware threads: %zu\n\n",
              util::ThreadPool::hardware_threads());
  std::printf("%8s %12s %12s %10s %12s\n", "threads", "seconds", "trials/s",
              "speedup", "identical");

  core::CampaignResult reference;
  std::string reference_jsonl;
  double base_seconds = 0.0;
  bool have_reference = false;
  if (shards > 1) {
    // Unsharded single-thread reference: every sharded row below must
    // reproduce it byte-for-byte, which demonstrates sharded == unsharded
    // (not merely that sharded rows agree with each other).
    trace::TraceSink ref_sink;
    core::CampaignConfig rcfg;
    rcfg.trials = trials;
    rcfg.error_model = core::single_bit_flip();
    rcfg.seed = 103;
    rcfg.batch_size = 4;
    rcfg.injections_per_image = 4;
    rcfg.threads = 1;
    if (tracing) rcfg.trace = &ref_sink;
    reference = core::run_classification_campaign(fi, ds, rcfg);
    reference_jsonl =
        tracing ? trace::trace_to_jsonl(ref_sink.events()) : std::string();
    have_reference = true;
    std::printf("(unsharded 1-thread reference computed; each row below is "
                "%lld shards + merge)\n\n",
                static_cast<long long>(shards));
  }
  for (std::int64_t threads = 1; threads <= max_threads; threads *= 2) {
    trace::TraceSink sink;
    core::CampaignConfig cfg;
    cfg.trials = trials;
    cfg.error_model = core::single_bit_flip();
    cfg.seed = 103;
    cfg.batch_size = 4;
    cfg.injections_per_image = 4;
    cfg.threads = threads;
    if (tracing) cfg.trace = &sink;
    std::unique_ptr<core::CampaignCheckpointer> ckpt;
    std::string ckpt_path;
    if (checkpointing) {
      ckpt_path = "campaign_scaling-t" + std::to_string(threads) + ".ckpt";
      ckpt = std::make_unique<core::CampaignCheckpointer>(
          ckpt_path, tracing ? ckpt_path + ".jsonl" : std::string());
      ckpt->begin(core::campaign_fingerprint(cfg, "campaign_scaling"));
      cfg.checkpoint = ckpt.get();
    }

    const auto t0 = std::chrono::steady_clock::now();
    core::CampaignResult r;
    if (shards > 1) {
      // Fresh shard files per row (the fingerprint ignores the thread
      // count, so reuse would resume the previous row's finished shards
      // and time only the merge).
      const std::string dir =
          "campaign_scaling-shards/t" + std::to_string(threads);
      for (std::int64_t k = 0; k < shards; ++k) {
        const core::ShardPaths sp = core::shard_paths(dir, k, shards);
        std::remove(sp.checkpoint.c_str());
        std::remove(sp.log.c_str());
        std::remove(sp.manifest.c_str());
      }
      core::CampaignConfig scfg = cfg;
      scfg.trace = nullptr;  // events flow through the merge sink instead
      r = core::run_sharded_classification(fi, ds, scfg, shards, dir,
                                           tracing ? &sink : nullptr,
                                           "campaign_scaling");
    } else {
      r = core::run_classification_campaign(fi, ds, cfg);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    const std::string jsonl =
        tracing ? trace::trace_to_jsonl(sink.events()) : std::string();
    if (checkpointing) {
      std::remove(ckpt_path.c_str());
      if (tracing) std::remove((ckpt_path + ".jsonl").c_str());
    }

    if (threads == 1) {
      if (!have_reference) {
        reference = r;
        reference_jsonl = jsonl;
      }
      base_seconds = seconds;
    }
    const bool identical = r.trials == reference.trials &&
                           r.skipped == reference.skipped &&
                           r.corruptions == reference.corruptions &&
                           r.non_finite == reference.non_finite &&
                           r.gave_up == reference.gave_up &&
                           jsonl == reference_jsonl;
    std::printf("%8lld %12.3f %12.1f %9.2fx %12s\n",
                static_cast<long long>(threads), seconds,
                static_cast<double>(r.trials) / seconds,
                base_seconds / seconds, identical ? "yes" : "NO");
    if (!identical) {
      std::printf("DETERMINISM VIOLATION at threads=%lld\n",
                  static_cast<long long>(threads));
      return 1;
    }
  }

  if (tracing) {
    std::printf("\nAll thread counts produced byte-identical trace JSONL "
                "(%zu events).\n",
                reference_jsonl.empty()
                    ? static_cast<std::size_t>(0)
                    : static_cast<std::size_t>(
                          std::count(reference_jsonl.begin(),
                                     reference_jsonl.end(), '\n')));
  }
  std::printf("\nAll thread counts produced bit-identical campaign counts "
              "(trials=%llu corruptions=%llu skipped=%llu non_finite=%llu).\n",
              static_cast<unsigned long long>(reference.trials),
              static_cast<unsigned long long>(reference.corruptions),
              static_cast<unsigned long long>(reference.skipped),
              static_cast<unsigned long long>(reference.non_finite));
  return 0;
} catch (const pfi::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
