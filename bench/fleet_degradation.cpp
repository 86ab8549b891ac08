// Fleet degradation: accuracy-over-time and time-to-first-SDC for a model
// serving inference while a persistent memory-fault process (core/
// persistent.hpp) corrupts its weights in place. This is the long-horizon
// companion to the transient campaigns: instead of inject -> score ->
// restore per trial, faults ACCUMULATE across inference events, so the
// curve shows when a deployed model silently goes bad at a given bit error
// rate.
//
// One row block per BER in the ramp: the per-event top-1 accuracy (sampled
// down to ~12 timeline rows), the cumulative persistent-fault count, and
// the first event whose batch scored below the golden top-1 (the first
// silent data corruption). A final summary table compares the ramp.
//
// Environment knobs (strict parsing via util/env.hpp — malformed values
// abort loudly):
//   PFI_MODEL     model name (default squeezenet)
//   PFI_DTYPE     fp32 | fp16 | bf16 | int8, with optional -native suffix
//                 (default fp32)
//   PFI_HORIZON   inference events per run (default 80)
//   PFI_EPOCHS    training epochs for the synthetic model (default 2)
//   PFI_THREADS   worker threads, 0 = hardware concurrency (default 0)
//   PFI_BER_RAMP  comma-separated BER values
//                 (default 1e-7,1e-6,1e-5,1e-4)
//   PFI_STUCK     additional stuck-at cells drawn at event 0 (default 0)
#include <cstdio>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/cli.hpp"
#include "models/trainer.hpp"
#include "models/zoo.hpp"
#include "util/env.hpp"
#include "util/strings.hpp"

// A refused setting (a malformed PFI_* value, a rejected config) exits 2
// with its message instead of aborting, as pfi_cli does.
int main() try {
  using namespace pfi;

  const std::string model_name = util::env_str("PFI_MODEL", "squeezenet");
  const std::string dtype_text = util::env_str("PFI_DTYPE", "fp32");
  const std::int64_t horizon = util::env_int("PFI_HORIZON", 80, 1, 1000000);
  const std::int64_t epochs = util::env_int("PFI_EPOCHS", 2, 1, 1000);
  const std::int64_t threads = util::env_int("PFI_THREADS", 0, 0, 1024);
  const std::int64_t stuck = util::env_int("PFI_STUCK", 0, 0, 1000000);
  const std::string ramp_text =
      util::env_str("PFI_BER_RAMP", "1e-7,1e-6,1e-5,1e-4");

  const auto dtype_spec = core::parse_dtype_spec(dtype_text);
  PFI_CHECK(dtype_spec.has_value())
      << "PFI_DTYPE expects fp32|fp16|bf16|int8 (optionally -native), got '"
      << dtype_text << "'";

  std::vector<double> ramp;
  for (std::size_t pos = 0; pos <= ramp_text.size();) {
    std::size_t comma = ramp_text.find(',', pos);
    if (comma == std::string::npos) comma = ramp_text.size();
    const std::string tok = ramp_text.substr(pos, comma - pos);
    const auto ber = util::parse_double(tok, 0.0, 1.0);
    PFI_CHECK(ber.has_value() && *ber < 1.0)
        << "PFI_BER_RAMP expects comma-separated rates in [0, 1), got '"
        << tok << "'";
    ramp.push_back(*ber);
    pos = comma + 1;
  }
  PFI_CHECK(!ramp.empty()) << "PFI_BER_RAMP must name at least one rate";

  data::SyntheticDataset ds(data::cifar10_like());
  const auto spec = ds.spec();

  Rng rng(17);
  auto model = models::make_model(
      model_name, {.num_classes = spec.classes, .image_size = spec.height},
      rng);
  std::printf("training %s on synthetic cifar10 (%lld epochs)...\n",
              model_name.c_str(), static_cast<long long>(epochs));
  models::train_classifier(*model, ds,
                           {.epochs = epochs,
                            .batches_per_epoch = 40,
                            .batch_size = 12,
                            .lr = 0.003f,
                            .seed = 17});

  core::FiConfig fi_cfg{.input_shape = {spec.channels, spec.height, spec.width},
                        .batch_size = 8};
  fi_cfg.dtype = dtype_spec->dtype;
  fi_cfg.native = dtype_spec->native;
  core::FaultInjector fi(model, fi_cfg);

  std::printf("=== Fleet degradation: %s, dtype %s, horizon %lld events, "
              "%lld stuck-at cells ===\n\n",
              model_name.c_str(), dtype_text.c_str(),
              static_cast<long long>(horizon), static_cast<long long>(stuck));

  struct Summary {
    double ber;
    core::FleetResult result;
  };
  std::vector<Summary> summaries;

  for (const double ber : ramp) {
    core::FleetCampaignConfig cfg;
    cfg.horizon = static_cast<std::uint64_t>(horizon);
    cfg.scenario.ber = ber;
    cfg.scenario.stuck_bits = stuck;
    cfg.scenario.seed = 0xf1ee7;
    cfg.batch_size = 8;
    cfg.seed = 19;
    cfg.threads = threads;

    // run_fleet_campaign heals the injector on exit, so the same fi serves
    // every BER row from identical golden weights.
    const core::FleetResult fr = core::run_fleet_campaign(fi, ds, cfg);
    summaries.push_back({ber, fr});

    std::printf("--- ber=%g%s ---\n", ber,
                stuck > 0 ? " (+stuck-at)" : "");
    std::printf("%10s %12s %10s\n", "event", "faults", "top-1");
    const std::size_t n = fr.timeline.size();
    const std::size_t step = n <= 12 ? 1 : (n + 11) / 12;
    for (std::size_t i = 0; i < n; i += step) {
      const std::size_t at = (i + step >= n) ? n - 1 : i;
      const core::FleetEvent& ev = fr.timeline[at];
      std::printf("%10llu %12llu %9.1f%%\n",
                  static_cast<unsigned long long>(ev.event),
                  static_cast<unsigned long long>(ev.faults),
                  ev.rows == 0 ? 0.0
                               : 100.0 * static_cast<double>(ev.correct) /
                                     static_cast<double>(ev.rows));
      if (at == n - 1) break;
    }
    std::printf("\n");
  }

  std::printf("=== Summary: time-to-first-SDC across the BER ramp ===\n");
  std::printf("%12s %12s %14s %14s %12s\n", "ber", "faults", "mismatch rows",
              "final top-1", "first SDC");
  for (const Summary& s : summaries) {
    const core::FleetResult& fr = s.result;
    const core::FleetEvent& last = fr.timeline.back();
    char sdc[32];
    if (fr.first_sdc == core::kNoSdc) {
      std::snprintf(sdc, sizeof sdc, "none");
    } else {
      std::snprintf(sdc, sizeof sdc, "event %llu",
                    static_cast<unsigned long long>(fr.first_sdc));
    }
    std::printf("%12g %12llu %14llu %13.1f%% %12s\n", s.ber,
                static_cast<unsigned long long>(fr.total_faults),
                static_cast<unsigned long long>(fr.mismatches),
                last.rows == 0 ? 0.0
                             : 100.0 * static_cast<double>(last.correct) /
                                   static_cast<double>(last.rows),
                sdc);
  }
  return 0;
} catch (const pfi::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
