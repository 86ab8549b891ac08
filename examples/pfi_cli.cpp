// pfi_cli — run a fault-injection campaign from the command line, no C++
// required. The closest analogue to `import pytorchfi; ...` scripting.
// Argument parsing lives in core/cli.hpp (unit-tested in
// tests/test_cli.cpp); this file is only the I/O shell around it.
//
// Run `pfi_cli --help` for the flag list.
//
// --no-prefix-cache disables golden-prefix activation reuse (a pure speed
// optimization; results are byte-identical either way — this flag exists
// for A/B timing and debugging).
//
// --sampler stratified runs the statistical acceleration layer
// (core/sampling.hpp): stratified sampling over (layer x bit-class) with
// analytic masked-fault pruning; it imposes the single-bit-flip model, so
// --error is rejected in this mode. --ci-target HW adds adaptive early
// termination at pooled 99% CI half-width HW; --no-prune disables pruning
// (a pure execution-count knob). PFI_PRUNE_VERIFY=1 re-executes every
// pruned injection and aborts if the pruner was ever wrong.
//
// --trace PATH writes one JSON object per injection (JSONL);
// --profile prints per-layer activation stats and hook overhead.
// --checkpoint PATH makes the campaign crash-safe: state is persisted
// atomically after every merged wave and the trace (when requested)
// streams to disk incrementally instead of one end-of-run dump. Add
// --resume to continue an interrupted campaign; the finished run's CSV-able
// counters and trace JSONL are byte-identical to an uninterrupted run.
//
// Persistent faults (core/persistent.hpp): --horizon N switches to a
// fleet campaign — N inference events on a simulated clock with faults
// that accumulate in the weights instead of one-shot transient trials.
// --ber R injects Bernoulli bit flips over the target layer's weight
// bytes at rate R per event; --persist stuckat:N[:V] pins N cells'
// drawn bits stuck at V (re-asserted after every weight write);
// --persist distance:MEAN:STDDEV walks the weight bytes with Normal
// strides (spatially correlated multi-bit damage). Reports accuracy
// over time and time-to-first-SDC; byte-identical at any --threads and
// across --checkpoint/--resume.
//
// Sharding (core/shard.hpp): --shard-dir DIR --shards S splits the
// campaign's attempt space across S shards and merges deterministically —
// the merged counts, CSV, and trace are byte-identical to a single-process
// run. Without --shard-index the shards run in-process, one after another
// (useful for testing and for memory-bound models); with --shard-index K
// this process runs ONLY shard K and exits — pfi_launch spawns S such
// workers in parallel and merges, or run them by hand and finish with
// pfi_merge.
//
// Examples:
//   pfi_cli --model resnet18 --dtype int8 --error bitflip --trials 2000
//   pfi_cli --model vgg19 --dataset imagenet --error random:-100:100
//   pfi_cli --trials 100000 --checkpoint run.ckpt --trace run.jsonl --resume
//   pfi_cli --trials 100000 --shard-dir shards --shards 4 --shard-index 0
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/calibrate.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/cli.hpp"
#include "core/profile.hpp"
#include "core/report.hpp"
#include "core/sampling.hpp"
#include "core/shard.hpp"
#include "models/trainer.hpp"
#include "models/zoo.hpp"
#include "quant/static_act.hpp"
#include "util/env.hpp"
#include "util/fileio.hpp"

namespace {

using namespace pfi;

data::SyntheticSpec parse_dataset(const std::string& s) {
  if (s == "cifar10") return data::cifar10_like();
  if (s == "cifar100") return data::cifar100_like();
  if (s == "imagenet") return data::imagenet_like();
  std::fprintf(stderr, "error: unknown dataset '%s'\n", s.c_str());
  std::exit(2);
}

void print_results(const core::CampaignResult& r, const Proportion& p,
                   std::int64_t requested_trials) {
  std::printf("\nresults:\n");
  std::printf("  injected trials      %llu\n",
              static_cast<unsigned long long>(r.trials));
  std::printf("  skipped (golden err) %llu\n",
              static_cast<unsigned long long>(r.skipped));
  std::printf("  corruptions          %llu\n",
              static_cast<unsigned long long>(r.corruptions));
  std::printf("  non-finite outputs   %llu\n",
              static_cast<unsigned long long>(r.non_finite));
  std::printf("  P(misclassification) %.4f%%  [99%% CI %.4f%%, %.4f%%]\n",
              100.0 * p.value, 100.0 * p.lo, 100.0 * p.hi);
  if (r.gave_up != 0) {
    std::printf("  WARNING: gave up at the attempt cap — the numbers above "
                "are PARTIAL (%llu of %lld requested trials)\n",
                static_cast<unsigned long long>(r.trials),
                static_cast<long long>(requested_trials));
  }
}

int run(int argc, char** argv) {
  const core::CliParse parsed = core::parse_cli_args(argc, argv);
  if (parsed.show_help) {
    std::printf("%s", core::cli_usage().c_str());
    return 0;
  }
  if (parsed.list_models) {
    for (const auto& n : models::model_names()) std::printf("%s\n", n.c_str());
    return 0;
  }
  if (!parsed.error.empty()) {
    std::fprintf(stderr, "error: %s\n\n%s", parsed.error.c_str(),
                 core::cli_usage().c_str());
    return 2;
  }
  const core::CliOptions& opt = parsed.options;

  const auto spec = parse_dataset(opt.dataset);
  data::SyntheticDataset ds(spec);

  Rng rng(opt.seed);
  auto model = models::make_model(
      opt.model,
      {.num_classes = spec.classes, .image_size = spec.height}, rng);

  if (!opt.load_path.empty()) {
    std::printf("loading weights from %s\n", opt.load_path.c_str());
    nn::load_parameters(*model, opt.load_path);
  } else {
    std::printf("training %s on synthetic %s (%lld epochs)...\n",
                opt.model.c_str(), opt.dataset.c_str(),
                static_cast<long long>(opt.epochs));
    const bool no_bn = opt.model == "alexnet" || opt.model == "vgg19" ||
                       opt.model == "squeezenet";
    models::train_classifier(*model, ds,
                             {.epochs = opt.epochs,
                              .batches_per_epoch = 40,
                              .batch_size = 12,
                              .lr = no_bn ? 0.003f : 0.05f,
                              .seed = opt.seed});
  }
  if (!opt.save_path.empty()) {
    nn::save_parameters(*model, opt.save_path);
    std::printf("weights saved to %s\n", opt.save_path.c_str());
  }

  Rng eval_rng(opt.seed + 1);
  const double acc = models::evaluate_accuracy(*model, ds, 8, 12, eval_rng);
  std::printf("eval accuracy: %.1f%%\n", 100.0 * acc);

  // Fleet mode scores a whole batch of rows per inference event (so the
  // accuracy-over-time curve has resolution); transient campaigns inject
  // one image at a time.
  core::FiConfig fi_cfg{.input_shape = {spec.channels, spec.height, spec.width},
                        .batch_size = opt.fleet_mode() ? 8 : 1};
  fi_cfg.dtype = *core::parse_dtype_name(opt.dtype);
  fi_cfg.native = opt.native;
  if (!opt.per_layer_dtype.empty()) {
    fi_cfg.per_layer = *core::parse_per_layer_dtype(opt.per_layer_dtype);
  }
  // A pure speed knob: campaign results are byte-identical either way.
  fi_cfg.prefix_cache = opt.prefix_cache;

  // Static activation calibration (--static-calib): frozen per-layer INT8
  // activation scales from a golden fp32 pass, so native INT8 layers skip
  // the per-inference absmax pass and conv->ReLU->conv boundaries stay
  // INT8-resident. Calibrating needs a PLAIN fp32 injector (the golden
  // model), so when the file does not exist yet we instrument a temporary
  // one, run the calibration batches through it, and persist the result
  // before building the real (native) injector below. The temporary
  // injector's destructor removes its hooks, so the model is clean again.
  std::shared_ptr<const quant::StaticActQuant> static_act;
  if (!opt.static_calib.empty()) {
    if (util::file_exists(opt.static_calib)) {
      static_act = std::make_shared<const quant::StaticActQuant>(
          quant::StaticActQuant::load(opt.static_calib));
      std::printf("static calibration: loaded %s (fingerprint %llu)\n",
                  opt.static_calib.c_str(),
                  static_cast<unsigned long long>(static_act->fingerprint()));
    } else {
      Rng calib_rng(opt.seed + 4);
      std::vector<Tensor> batches;
      for (int b = 0; b < 8; ++b) {
        batches.push_back(ds.sample_batch(12, calib_rng).images);
      }
      quant::StaticActQuant calib;
      {
        core::FaultInjector calib_fi(
            model, {.input_shape = {spec.channels, spec.height, spec.width},
                    .batch_size = 12});
        calib = core::calibrate_static_act(calib_fi, batches);
      }
      calib.save(opt.static_calib);
      std::printf("static calibration: golden fp32 pass over %zu batches "
                  "saved to %s (fingerprint %llu)\n",
                  batches.size(), opt.static_calib.c_str(),
                  static_cast<unsigned long long>(calib.fingerprint()));
      static_act =
          std::make_shared<const quant::StaticActQuant>(std::move(calib));
    }
    fi_cfg.static_act = static_act;
  }

  core::FaultInjector fi(model, fi_cfg);
  std::printf("instrumented %lld conv layers (%lld neurons)\n",
              static_cast<long long>(fi.num_layers()),
              static_cast<long long>(fi.total_neurons()));

  trace::TraceSink sink;
  trace::Profiler profiler;
  if (opt.profile) fi.set_profiler(&profiler);

  const bool want_trace = !opt.trace_path.empty();

  // --- fleet-degradation mode: serve `horizon` inference events while the
  // persistent fault process (--ber / --persist) corrupts the weights in
  // place. Orthogonal to the transient campaigns below — the parser rejects
  // combining it with --error / sharding / stratified sampling.
  if (opt.fleet_mode()) {
    core::PersistScenario scenario;
    scenario.ber = opt.ber;
    if (!opt.persist.empty()) {
      // Already validated by parse_cli_args; this fills in the fields.
      core::parse_persist_spec(opt.persist, &scenario);
    }
    scenario.layer = opt.layer;
    scenario.seed = opt.seed + 3;

    core::FleetCampaignConfig fcfg;
    fcfg.horizon = opt.horizon;
    fcfg.scenario = scenario;
    fcfg.batch_size = fi.config().batch_size;
    fcfg.seed = opt.seed + 2;
    fcfg.threads = opt.threads;
    if (want_trace) fcfg.trace = &sink;

    const std::string fleet_context =
        opt.model + "|" + opt.dataset + "|" + opt.dtype +
        (opt.native ? "-native" : "") +
        (opt.per_layer_dtype.empty() ? ""
                                     : "|per-layer=" + opt.per_layer_dtype) +
        (static_act == nullptr
             ? ""
             : "|static=" + std::to_string(static_act->fingerprint())) +
        "|epochs=" + std::to_string(opt.epochs) + "|load=" + opt.load_path;

    std::unique_ptr<core::CampaignCheckpointer> ckpt;
    if (!opt.checkpoint_path.empty()) {
      ckpt = std::make_unique<core::CampaignCheckpointer>(opt.checkpoint_path,
                                                          opt.trace_path);
      const std::uint64_t fp =
          core::fleet_campaign_fingerprint(fcfg, fleet_context);
      if (opt.resume && ckpt->resume(fp)) {
        std::printf("resuming fleet campaign from %s: next event %llu%s\n",
                    opt.checkpoint_path.c_str(),
                    static_cast<unsigned long long>(ckpt->next_unit()),
                    ckpt->done() ? " (already complete)" : "");
      } else {
        if (!opt.resume) ckpt->begin(fp);
        std::printf("checkpointing to %s after every wave\n",
                    opt.checkpoint_path.c_str());
      }
      fcfg.checkpoint = ckpt.get();
    }

    std::printf("fleet campaign: %lld events, ber=%g, persist='%s', dtype "
                "%s%s\n",
                static_cast<long long>(opt.horizon), opt.ber,
                opt.persist.c_str(), opt.dtype.c_str(),
                opt.native ? " (native execution)" : "");

    const core::FleetResult fr = core::run_fleet_campaign(fi, ds, fcfg);

    std::printf("\nfleet results:\n");
    std::printf("  events served        %zu\n", fr.timeline.size());
    std::printf("  rows scored          %llu\n",
                static_cast<unsigned long long>(fr.rows));
    std::printf("  top-1 mismatches     %llu\n",
                static_cast<unsigned long long>(fr.mismatches));
    std::printf("  non-finite outputs   %llu\n",
                static_cast<unsigned long long>(fr.non_finite));
    std::printf("  persistent faults    %llu\n",
                static_cast<unsigned long long>(fr.total_faults));
    if (fr.first_sdc == core::kNoSdc) {
      std::printf("  first SDC            none within the horizon\n");
    } else {
      std::printf("  first SDC            event %llu\n",
                  static_cast<unsigned long long>(fr.first_sdc));
    }
    if (!fr.timeline.empty()) {
      // Sample ~10 evenly spaced timeline rows (always including the last)
      // so long horizons stay readable.
      std::printf("\n  %8s %12s %10s\n", "event", "faults", "top-1");
      const std::size_t n = fr.timeline.size();
      const std::size_t step = n <= 10 ? 1 : (n + 9) / 10;
      for (std::size_t i = 0; i < n; i += step) {
        const std::size_t at = (i + step >= n) ? n - 1 : i;
        const core::FleetEvent& ev = fr.timeline[at];
        std::printf("  %8llu %12llu %9.1f%%\n",
                    static_cast<unsigned long long>(ev.event),
                    static_cast<unsigned long long>(ev.faults),
                    ev.rows == 0 ? 0.0
                                 : 100.0 * static_cast<double>(ev.correct) /
                                       static_cast<double>(ev.rows));
        if (at == n - 1) break;
      }
    }

    if (want_trace) {
      if (fcfg.checkpoint != nullptr) {
        std::printf("\ntrace: streamed to %s (%zu events this run)\n",
                    opt.trace_path.c_str(), sink.events().size());
      } else {
        trace::write_trace_jsonl(opt.trace_path, sink.events());
        std::printf("\ntrace: %zu injection events written to %s\n",
                    sink.events().size(), opt.trace_path.c_str());
      }
    }
    return 0;
  }

  core::CampaignConfig cfg;
  cfg.trials = opt.trials;
  cfg.threads = opt.threads;
  cfg.error_model = *core::parse_error_model_spec(opt.error);
  cfg.layer = opt.layer;
  cfg.one_fault_per_layer = opt.per_layer;
  cfg.injections_per_image = 4;
  cfg.seed = opt.seed + 2;
  if (want_trace && !opt.shard_mode()) cfg.trace = &sink;

  const bool stratified = opt.sampler == "stratified";
  core::StratifiedCampaignConfig scfg;
  if (stratified) {
    scfg.base = cfg;
    scfg.target_half_width = opt.ci_target;
    scfg.prune = opt.prune;
    scfg.prune_verify = util::env_flag("PFI_PRUNE_VERIFY", false);
  }

  // The experiment-identity string folded into checkpoint and shard
  // fingerprints: same format either way, so every shard worker of one
  // campaign agrees on it.
  // Native execution, per-layer overrides and frozen static-calibration
  // scales all change the numbers, so they are part of the experiment
  // identity (a checkpoint from an emulated run must not resume a native
  // one, nor a dynamically-calibrated run a statically-calibrated one).
  const std::string context = opt.model + "|" + opt.dataset + "|" +
                              opt.dtype + (opt.native ? "-native" : "") +
                              (opt.per_layer_dtype.empty()
                                   ? ""
                                   : "|per-layer=" + opt.per_layer_dtype) +
                              (static_act == nullptr
                                   ? ""
                                   : "|static=" + std::to_string(
                                                      static_act->fingerprint())) +
                              "|" + opt.error + "|epochs=" +
                              std::to_string(opt.epochs) +
                              "|load=" + opt.load_path;

  // --- shard worker mode: run ONE shard, write its files, and exit. The
  // merge (pfi_merge / pfi_launch / the driver below) produces the results.
  if (opt.shard_mode() && opt.shard_index >= 0) {
    core::ShardPlan plan;
    plan.shards = opt.shards;
    plan.shard_index = opt.shard_index;
    plan.horizon = opt.shard_horizon;
    plan.record_events = want_trace;
    const core::ShardRunReport report =
        stratified
            ? core::run_stratified_shard(fi, ds, scfg, plan, opt.shard_dir,
                                         context)
            : core::run_classification_shard(fi, ds, cfg, plan, opt.shard_dir,
                                             context);
    std::printf("shard %lld of %lld done: %llu records committed to %s\n",
                static_cast<long long>(opt.shard_index),
                static_cast<long long>(opt.shards),
                static_cast<unsigned long long>(report.manifest.records),
                report.paths.log.c_str());
    std::printf("manifest: %s\n", report.paths.manifest.c_str());
    return 0;
  }

  // --- shard driver mode: run all S shards in-process, then merge.
  if (opt.shard_mode()) {
    std::printf("sharded campaign: %lld shards under %s\n",
                static_cast<long long>(opt.shards), opt.shard_dir.c_str());
    core::CampaignResult r;
    Proportion p{};
    std::string efficiency;
    trace::TraceSink* merge_sink = want_trace ? &sink : nullptr;
    if (stratified) {
      const core::StratifiedResult sr = core::run_sharded_stratified(
          fi, ds, scfg, opt.shards, opt.shard_dir, merge_sink, context);
      r = sr.totals;
      p = sr.estimate();
      efficiency = core::stratified_efficiency_footer(sr);
    } else {
      r = core::run_sharded_classification(fi, ds, cfg, opt.shards,
                                           opt.shard_dir, merge_sink, context);
      p = r.corruption_probability();
    }
    print_results(r, p, opt.trials);
    if (!efficiency.empty()) std::printf("%s\n", efficiency.c_str());
    if (want_trace) {
      trace::write_trace_jsonl(opt.trace_path, sink.events());
      std::printf("\ntrace: %zu merged injection events written to %s\n",
                  sink.events().size(), opt.trace_path.c_str());
    }
    return 0;
  }

  // Crash safety: persist campaign state after every merged wave and stream
  // the trace (when requested) instead of dumping it at the end. The
  // fingerprint covers the campaign config plus the model/dataset/dtype
  // identity, so a checkpoint can't silently resume a different experiment.
  std::unique_ptr<core::CampaignCheckpointer> checkpointer;
  if (!opt.checkpoint_path.empty()) {
    checkpointer = std::make_unique<core::CampaignCheckpointer>(
        opt.checkpoint_path, opt.trace_path);
    const std::uint64_t fp = stratified
                                 ? core::stratified_fingerprint(scfg, context)
                                 : core::campaign_fingerprint(cfg, context);
    if (opt.resume && checkpointer->resume(fp)) {
      std::printf("resuming from %s: %llu trials already folded, next "
                  "attempt %llu%s\n",
                  opt.checkpoint_path.c_str(),
                  static_cast<unsigned long long>(
                      checkpointer->result().trials),
                  static_cast<unsigned long long>(checkpointer->next_unit()),
                  checkpointer->done() ? " (already complete)" : "");
    } else {
      if (!opt.resume) checkpointer->begin(fp);
      std::printf("checkpointing to %s after every wave\n",
                  opt.checkpoint_path.c_str());
    }
    cfg.checkpoint = checkpointer.get();
  }

  const std::string dtype_text =
      opt.dtype + (opt.native ? " (native execution)" : "") +
      (opt.per_layer_dtype.empty()
           ? ""
           : ", per-layer overrides: " + opt.per_layer_dtype);
  if (stratified) {
    std::printf("campaign: %lld trial budget, stratified single-bit-flip "
                "sampler, dtype %s%s\n",
                static_cast<long long>(opt.trials), dtype_text.c_str(),
                opt.ci_target > 0.0 ? ", adaptive CI stop" : "");
  } else {
    std::printf("campaign: %lld trials, error model %s, dtype %s%s\n",
                static_cast<long long>(opt.trials),
                cfg.error_model.name.c_str(), dtype_text.c_str(),
                opt.per_layer ? ", one fault per layer" : "");
  }

  core::CampaignResult r;
  Proportion p{};
  std::string efficiency;
  if (stratified) {
    scfg.base = cfg;  // picks up the checkpoint/trace pointers set above
    const core::StratifiedResult sr = core::run_stratified_campaign(fi, ds, scfg);
    r = sr.totals;
    p = sr.estimate();
    efficiency = core::stratified_efficiency_footer(sr);
  } else {
    r = core::run_classification_campaign(fi, ds, cfg);
    p = r.corruption_probability();
  }
  print_results(r, p, opt.trials);
  if (!efficiency.empty()) std::printf("%s\n", efficiency.c_str());
  const std::string prefix_footer = core::campaign_prefix_footer(fi);
  if (!prefix_footer.empty()) std::printf("  %s\n", prefix_footer.c_str());

  if (want_trace) {
    if (cfg.checkpoint != nullptr) {
      // The checkpointer streamed the trace wave-by-wave; the file already
      // holds the full (resume-consistent) event history. Rewriting it here
      // would destroy the prefix from earlier runs.
      std::printf("\ntrace: streamed to %s (%zu events this run)\n",
                  opt.trace_path.c_str(), sink.events().size());
    } else {
      trace::write_trace_jsonl(opt.trace_path, sink.events());
      std::printf("\ntrace: %zu injection events written to %s\n",
                  sink.events().size(), opt.trace_path.c_str());
    }
  }
  if (opt.profile) {
    // Replicas do not inherit the profiler, so with --threads > 1 these
    // stats cover the primary worker's share of the campaign.
    std::printf("\nper-layer profile (primary worker):\n%s",
                profiler.table().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A refusal — a malformed checkpoint or calibration file, a config the
  // runners reject — exits with status 2 and its message, like pfi_merge
  // and pfi_launch, instead of aborting.
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
