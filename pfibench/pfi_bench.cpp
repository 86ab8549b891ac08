// pfi_bench — end-to-end campaign benchmark with a traced per-layer mode.
//
// One invocation measures one workload (the table in kWorkloads):
//
//   pfi_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--smoke] [--perturb-reference]
//
// A campaign is a batch job with no arrival process, so every workload is a
// closed loop of one campaign at a time. --seed is the campaign seed (inputs
// and fault draws); the model's initialization and training seeds are fixed
// per workload, so they are part of its identity.
//
// Timed mode (--trace 0): set the workload up kSetups times — model build,
// training, static calibration (native workload only), injector
// construction and one warm-up campaign — and report the median as
// setup_s. Then run the campaign of --seed back to back for about S seconds
// (at least three times) and report the median wall time and rate. Every
// repetition must fold to the same counters; the other output checks run
// outside the timed region (run_checks).
//
// Traced mode (--trace 1): set up once, time one untraced threads-1 run,
// repeat it with span hooks on every module, then call each layer directly.
// Prints the per-layer metrics and writes DIR/<workload>.spans.jsonl and
// DIR/<workload>.layers.json.
//
// Both modes print one line per metric, `<workload> <metric> <value> <unit>
// n=<samples>`, and end with one JSON object on the last line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed check prints "correct": false and exits 1. A malformed command
// line exits 2 with a message naming the argument.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/calibrate.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/cli.hpp"
#include "core/persistent.hpp"
#include "core/sampling.hpp"
#include "core/shard.hpp"
#include "kernels/kernels.hpp"
#include "kernels/lowp.hpp"
#include "models/trainer.hpp"
#include "models/zoo.hpp"
#include "nn/serialize.hpp"
#include "util/fileio.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

namespace {

using namespace pfi;
using Clock = std::chrono::steady_clock;

// -- Workloads ----------------------------------------------------------------

enum class Kind { kUniform, kWeight, kStratified, kFleet, kShard };

struct Workload {
  const char* name;
  const char* model;
  bool imagenet;      ///< imagenet_like 3x64x64 (true) or cifar10_like 3x32x32
  Kind kind;
  const char* dtype;  ///< core::parse_dtype_spec text
  bool static_calib;  ///< calibrate_static_act before building the injector
  std::int64_t threads;
  std::int64_t units;  ///< trials, weight faults, trial budget, or events
  std::int64_t batch;  ///< rows per forward (the injector's batch size)
  std::int64_t reps;   ///< injections per image (uniform, stratified, shard)
  float lr;            ///< training: one epoch of train_batches x 12 images
  std::int64_t train_batches;
};

// Why each exists is in README.md. Campaign sizes are the ones this
// repository's own runners use, so per-campaign fixed costs weigh as much
// as they do there: 1200 trials is bench/fig4_classification_resiliency's
// default (also with PFI_DTYPE=int8-native and, as a fixed budget, with
// PFI_SAMPLER=stratified); 200 faults of 4 images each is
// examples/vulnerability_profile's weight campaign; 200 sharded trials is
// bench/campaign_scaling's default. The fleet horizon of 800 events is ten
// times bench/fleet_degradation's default, so that persistent faults
// accumulate over a long timeline rather than a handful of events. The
// training budgets are the cheapest that make each model classify most
// inputs correctly, which keeps the share of skipped attempts (and so the
// work per campaign) nearly independent of the seed.
constexpr Workload kWorkloads[] = {
    {"fig4_uniform", "resnet50", true, Kind::kUniform, "int8", false, 1, 1200,
     1, 8, 0.01f, 48},
    {"fig4_native_mt", "alexnet", true, Kind::kUniform, "int8-native", true, 2,
     1200, 1, 8, 0.002f, 60},
    {"weight_fp32", "alexnet", false, Kind::kWeight, "fp32", false, 1, 200, 4,
     1, 0.003f, 40},
    {"stratified_prune", "vgg19", false, Kind::kStratified, "int8", false, 1,
     1200, 1, 8, 0.002f, 80},
    {"fleet_ber", "squeezenet", false, Kind::kFleet, "fp32", false, 1, 800, 8,
     1, 0.005f, 24},
    {"shard4", "shufflenet", true, Kind::kShard, "int8", false, 1, 200, 1, 8,
     0.04f, 40},
};

constexpr std::uint64_t kInitSeed = 101;   // model initialization
constexpr std::uint64_t kTrainSeed = 3;    // training batches
constexpr std::uint64_t kCalibSeed = 29;   // calibration batches
constexpr std::uint64_t kWarmUpSeed = 31;  // warm-up campaign
constexpr int kSetups = 3;                 // set-ups per timed run
constexpr std::uint64_t kMinTimedRuns = 3;
constexpr double kFleetBer = 1e-7;
constexpr std::int64_t kFleetStuckCells = 4;
constexpr std::int64_t kShards = 4;
constexpr const char* kShardContext = "pfi_bench|shard4";  // fingerprint
constexpr int kCheckpointCommits = 200;  // so p90 has 20 samples beyond it
constexpr int kEventsPerCommit = 8;

// -- Metric names (BENCHMARK.json lists exactly these) ------------------------

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"campaign_s", "s"},
    {"trials_per_s", "trials/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// A .p90 is the highest percentile every workload's sample count supports
// with at least ten samples beyond it (n >= 100; the printed n= shows it).
constexpr MetricName kPerLayer[] = {
    {"nn.clean_pass_us.p50", "us"},
    {"nn.clean_pass_us.p90", "us"},
    {"nn.faulty_pass_us.p50", "us"},
    {"nn.faulty_pass_us.p90", "us"},
    {"nn.clean_passes", "count"},
    {"nn.faulty_passes", "count"},
    {"nn.leaf_execs", "count"},
    {"nn.self_ms.conv", "ms"},
    {"nn.self_ms.linear", "ms"},
    {"nn.self_ms.batchnorm", "ms"},
    {"nn.self_ms.relu", "ms"},
    {"nn.self_ms.pool", "ms"},
    {"nn.self_ms.join", "ms"},
    {"nn.self_ms.other", "ms"},
    {"nn.conv_gflops_in_model", "GFLOP/s"},
    {"kernels.gemm_f32_gflops", "GFLOP/s"},
    {"kernels.gemm_i8_gops", "GOP/s"},
    {"kernels.flops_per_pass", "FLOP"},
    {"kernels.bytes_per_pass", "bytes"},
    {"prefix_cache.hit_rate", "ratio"},
    {"prefix_cache.layers_reused", "count"},
    {"prefix_cache.layers_recomputed", "count"},
    {"prefix_cache.site_serves", "count"},
    {"prefix_cache.fallbacks", "count"},
    {"prefix_cache.snapshot_mb", "MiB"},
    {"campaign.engine_ms", "ms"},
    {"campaign.engine_share", "ratio"},
    {"campaign.attempts", "count"},
    {"campaign.skipped", "count"},
    {"campaign.yield", "ratio"},
    {"campaign.replicate_ms", "ms"},
    {"data.batch_us", "us"},
    {"quant.calibrate_ms", "ms"},
    {"sampling.strata", "count"},
    {"sampling.pruned", "count"},
    {"sampling.prune_share", "ratio"},
    {"sampling.executed_passes", "count"},
    {"sampling.uniform_equiv_ratio", "ratio"},
    {"sampling.half_width", "ratio"},
    {"persistent.faults", "count"},
    {"persistent.stuck_cells", "count"},
    {"persistent.advance_us.p50", "us"},
    {"persistent.advance_us.p90", "us"},
    {"checkpoint.commit_us.p50", "us"},
    {"checkpoint.commit_us.p90", "us"},
    {"checkpoint.bytes", "bytes"},
    {"shard.run_ms", "ms"},
    {"shard.merge_ms", "ms"},
    {"shard.records", "count"},
    {"shard.clean_passes", "count"},
    {"shard.work_ratio", "ratio"},
    {"shard.log_bytes", "bytes"},
    {"trace.events", "count"},
    {"trace.jsonl_bytes", "bytes"},
    {"trace.serialize_ns_per_event", "ns"},
    {"trace.parse_ns_per_event", "ns"},
    {"trace_overhead", "ratio"},
};

// -- Command line -------------------------------------------------------------

constexpr const char* kUsage =
    "usage: pfi_bench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                 [--out DIR] [--smoke] [--perturb-reference]\n"
    "workloads: fig4_uniform fig4_native_mt weight_fp32 stratified_prune "
    "fleet_ber shard4\n";

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::int64_t seconds = 0;
  bool traced = false;
  std::string out = ".bench_build/trace";
  bool smoke = false;
  /// Self-test hook: run the cross-check's reference with a different seed,
  /// which must make the check fail.
  bool perturb_reference = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "pfi_bench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = flag != "--smoke" && flag != "--perturb-reference";
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--out" && has_value) {
      usage_error("unknown argument '" + flag + "'");
    }
    if (seen.count(flag) != 0) usage_error("duplicate " + flag);
    std::string value;
    if (has_value) {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      value = argv[++i];
    }
    seen[flag] = value;
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(required) == 0) {
      usage_error(std::string("missing ") + required);
    }
  }
  const std::string& name = seen["--workload"];
  for (const Workload& w : kWorkloads) {
    if (name == w.name) args.workload = &w;
  }
  if (args.workload == nullptr) {
    usage_error("--workload: unknown workload '" + name + "'");
  }
  const auto seed = util::parse_uint(seen["--seed"]);
  if (!seed) {
    usage_error("--seed expects an unsigned integer, got '" +
                seen["--seed"] + "'");
  }
  args.seed = *seed;
  const auto seconds = util::parse_int(seen["--seconds"], 1, 3600);
  if (!seconds) {
    usage_error("--seconds expects an integer in [1, 3600], got '" +
                seen["--seconds"] + "'");
  }
  args.seconds = *seconds;
  const std::string& trace = seen["--trace"];
  if (trace != "0" && trace != "1") {
    usage_error("--trace expects 0 or 1, got '" + trace + "'");
  }
  args.traced = trace == "1";
  if (seen.count("--out") != 0) {
    args.out = seen["--out"];
    if (args.out.empty()) usage_error("--out expects a directory");
  }
  args.smoke = seen.count("--smoke") != 0;
  args.perturb_reference = seen.count("--perturb-reference") != 0;
  return args;
}

// -- Small helpers ------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (p in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Seconds per call of `fn`, repeated until ~target_s of wall time.
template <typename Fn>
double time_per_call(Fn&& fn, double target_s) {
  fn();  // warm up (work buffers, pack caches)
  int reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const double s = seconds_since(t0);
    if (s >= target_s || reps >= (1 << 20)) return s / reps;
    reps *= s < target_s / 16.0 ? 8 : 2;
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- Set-up -------------------------------------------------------------------

core::DtypeSpec dtype_of(const Workload& w) {
  const auto spec = core::parse_dtype_spec(w.dtype);
  PFI_CHECK(spec.has_value()) << "workload dtype '" << w.dtype << "'";
  return *spec;
}

/// Everything a workload's campaigns run on. Members are declared so the
/// injector dies before the model it hooks.
struct Setup {
  explicit Setup(const Workload& w)
      : ds(w.imagenet ? data::imagenet_like() : data::cifar10_like()) {}

  data::SyntheticDataset ds;
  std::shared_ptr<nn::Sequential> model;
  std::shared_ptr<const quant::StaticActQuant> static_act;
  std::unique_ptr<core::FaultInjector> fi;
  std::uint64_t weights = 0;  ///< model_weight_fingerprint after training
};

Shape input_shape(const data::SyntheticDataset& ds) {
  const auto& s = ds.spec();
  return {s.channels, s.height, s.width};
}

std::vector<Tensor> calibration_batches(const data::SyntheticDataset& ds) {
  Rng rng(kCalibSeed);
  std::vector<Tensor> batches;
  for (int b = 0; b < 8; ++b) {
    batches.push_back(ds.sample_batch(12, rng).images);
  }
  return batches;
}

/// Static activation calibration on a plain fp32 injector; the injector is
/// gone (hooks removed) when this returns.
quant::StaticActQuant calibrate(const std::shared_ptr<nn::Module>& model,
                                const data::SyntheticDataset& ds,
                                std::span<const Tensor> batches) {
  core::FaultInjector plain(model, {.input_shape = input_shape(ds),
                                    .batch_size = 12});
  return core::calibrate_static_act(plain, batches);
}

core::FiConfig fi_config(const Workload& w, const Setup& s) {
  const core::DtypeSpec d = dtype_of(w);
  core::FiConfig cfg{.input_shape = input_shape(s.ds),
                     .batch_size = w.batch,
                     .dtype = d.dtype,
                     .native = d.native};
  cfg.prefix_cache = true;
  cfg.prefix_cache_mb = 256;  // not read from the environment
  cfg.static_act = s.static_act;
  return cfg;
}

std::unique_ptr<Setup> build_setup(const Workload& w, bool smoke) {
  auto s = std::make_unique<Setup>(w);
  const auto& spec = s->ds.spec();
  Rng init(kInitSeed);
  s->model = models::make_model(
      w.model, {.num_classes = spec.classes, .image_size = spec.height}, init);
  models::train_classifier(*s->model, s->ds,
                           {.epochs = 1,
                            .batches_per_epoch = smoke ? 2 : w.train_batches,
                            .batch_size = 12,
                            .lr = w.lr,
                            .seed = kTrainSeed});
  s->weights = core::model_weight_fingerprint(*s->model);
  if (w.static_calib) {
    s->static_act = std::make_shared<const quant::StaticActQuant>(
        calibrate(s->model, s->ds, calibration_batches(s->ds)));
  }
  s->fi = std::make_unique<core::FaultInjector>(s->model, fi_config(w, *s));
  return s;
}

// -- One campaign run ---------------------------------------------------------

struct RunSpec {
  std::uint64_t seed = 0;
  std::int64_t units = 0;
  std::int64_t threads = 1;
  bool sharded = false;       ///< shard workload: 4 shards + merge
  std::string shard_dir;      ///< where the shard files go (wiped first)
  trace::TraceSink* sink = nullptr;
};

struct RunResult {
  double seconds = 0.0;       ///< wall time of the runner call alone
  std::uint64_t digest = 0;   ///< FNV-1a over the folded counters
  std::uint64_t scored = 0;   ///< scored outcomes (rows for fleet)
  std::uint64_t attempts = 0;
  std::uint64_t skipped = 0;
  bool gave_up = false;
  core::StratifiedResult strat;  ///< stratified workload only
  core::FleetResult fleet;       ///< fleet workload only
};

std::string u64s(std::initializer_list<std::uint64_t> values) {
  std::string out;
  for (const std::uint64_t v : values) out += std::to_string(v) + ",";
  return out + ";";
}

std::string counts_text(const core::CampaignResult& r) {
  return u64s({r.trials, r.skipped, r.corruptions, r.non_finite, r.gave_up});
}

core::CampaignConfig uniform_config(const Workload& w, const RunSpec& rs) {
  core::CampaignConfig cfg;
  cfg.trials = rs.units;
  cfg.error_model = core::single_bit_flip();
  cfg.seed = rs.seed;
  cfg.batch_size = w.batch;
  cfg.injections_per_image = w.reps;
  cfg.threads = rs.threads;
  cfg.trace = rs.sink;
  return cfg;
}

core::FleetCampaignConfig fleet_config(const Workload& w, const RunSpec& rs) {
  core::FleetCampaignConfig cfg;
  cfg.horizon = static_cast<std::uint64_t>(rs.units);
  cfg.scenario.ber = kFleetBer;
  cfg.scenario.stuck_bits = kFleetStuckCells;
  cfg.scenario.seed = rs.seed + 0x5eedfa17ull;
  cfg.batch_size = w.batch;
  cfg.seed = rs.seed;
  cfg.threads = rs.threads;
  cfg.trace = rs.sink;
  return cfg;
}

void wipe_shard_files(const std::string& dir) {
  for (std::int64_t k = 0; k < kShards; ++k) {
    const core::ShardPaths p = core::shard_paths(dir, k, kShards);
    std::remove(p.checkpoint.c_str());
    std::remove(p.log.c_str());
    std::remove(p.manifest.c_str());
  }
}

/// Attempts a uniform campaign folded: every attempt draws one image, and an
/// eligible one yields `reps` trials (the last one possibly fewer).
std::uint64_t uniform_attempts(const core::CampaignResult& r,
                               std::int64_t reps) {
  const auto per = static_cast<std::uint64_t>(reps);
  return r.skipped + (r.trials + per - 1) / per;
}

RunResult run_campaign(const Workload& w, core::FaultInjector& fi,
                       const data::SyntheticDataset& ds, const RunSpec& rs) {
  RunResult out;
  switch (w.kind) {
    case Kind::kUniform:
    case Kind::kShard: {
      const core::CampaignConfig cfg = uniform_config(w, rs);
      core::CampaignResult r;
      if (rs.sharded) {
        util::ensure_dir(rs.shard_dir);
        wipe_shard_files(rs.shard_dir);
        core::CampaignConfig scfg = cfg;
        scfg.trace = nullptr;  // events flow through the merge sink instead
        // The shards record events only when the merge has a sink; the
        // workload always records them.
        trace::TraceSink own_sink;
        trace::TraceSink* sink = rs.sink != nullptr ? rs.sink : &own_sink;
        const auto t0 = Clock::now();
        r = core::run_sharded_classification(fi, ds, scfg, kShards,
                                             rs.shard_dir, sink,
                                             kShardContext);
        out.seconds = seconds_since(t0);
      } else {
        const auto t0 = Clock::now();
        r = core::run_classification_campaign(fi, ds, cfg);
        out.seconds = seconds_since(t0);
      }
      out.digest = util::fnv1a(counts_text(r));
      out.scored = r.trials;
      out.attempts = uniform_attempts(r, w.reps);
      out.skipped = r.skipped;
      out.gave_up = r.gave_up != 0;
      break;
    }
    case Kind::kWeight: {
      core::WeightCampaignConfig cfg;
      cfg.faults = rs.units;
      cfg.images_per_fault = w.batch;
      cfg.error_model = core::single_bit_flip();
      cfg.seed = rs.seed;
      cfg.threads = rs.threads;
      cfg.trace = rs.sink;
      const auto t0 = Clock::now();
      const core::CampaignResult r = core::run_weight_campaign(fi, ds, cfg);
      out.seconds = seconds_since(t0);
      out.digest = util::fnv1a(counts_text(r));
      out.scored = r.trials;
      out.attempts = static_cast<std::uint64_t>(rs.units);
      out.skipped = r.skipped;
      out.gave_up = r.gave_up != 0;
      break;
    }
    case Kind::kStratified: {
      core::StratifiedCampaignConfig cfg;
      cfg.base = uniform_config(w, rs);
      const auto t0 = Clock::now();
      out.strat = core::run_stratified_campaign(fi, ds, cfg);
      out.seconds = seconds_since(t0);
      const core::StratifiedResult& r = out.strat;
      std::string text = counts_text(r.totals) +
                         u64s({r.pruned, r.golden_passes, r.faulty_passes});
      for (const core::StratumOutcome& s : r.strata) {
        out.attempts += s.attempts;
        text += counts_text(s.counts) +
                u64s({s.pruned, s.executed, s.attempts,
                      s.stopped_early ? 1ull : 0ull, s.gave_up ? 1ull : 0ull});
      }
      out.digest = util::fnv1a(text);
      out.scored = r.totals.trials;
      out.skipped = r.totals.skipped;
      out.gave_up = r.totals.gave_up != 0;
      break;
    }
    case Kind::kFleet: {
      const core::FleetCampaignConfig cfg = fleet_config(w, rs);
      const auto t0 = Clock::now();
      out.fleet = core::run_fleet_campaign(fi, ds, cfg);
      out.seconds = seconds_since(t0);
      const core::FleetResult& r = out.fleet;
      std::string text = u64s({r.rows, r.mismatches, r.non_finite,
                               r.total_faults, r.first_sdc});
      for (const core::FleetEvent& ev : r.timeline) {
        text += u64s({ev.event, ev.faults, ev.correct, ev.rows, ev.non_finite});
      }
      out.digest = util::fnv1a(text);
      out.scored = r.rows;
      out.attempts = static_cast<std::uint64_t>(rs.units);
      break;
    }
  }
  return out;
}

// -- Run accounting and output checks -----------------------------------------

/// Counts every campaign run (warm-up, timed, check) and the ones that
/// failed: threw, gave up, or disagreed with a check.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "pfi_bench: check failed: %s\n", what.c_str());
    }
  }
};

struct Context {
  const Workload& w;
  const Args& args;
  std::string work_dir;  ///< this process's temporary files (shards, commits)
  std::int64_t units = 0;

  RunSpec spec(std::uint64_t seed, std::int64_t units_, std::int64_t threads,
               bool sharded, const std::string& sub,
               trace::TraceSink* sink) const {
    RunSpec rs;
    rs.seed = seed;
    rs.units = units_;
    rs.threads = threads;
    rs.sharded = sharded;
    rs.shard_dir = work_dir + "/" + sub;
    rs.sink = sink;
    return rs;
  }
  /// The campaign of --seed in the configuration the timed runs use.
  RunSpec timed(trace::TraceSink* sink) const {
    return spec(args.seed, units, w.threads, w.kind == Kind::kShard, "timed",
                sink);
  }
};

/// A run that is counted in the tally; exceptions propagate (the benchmark
/// then reports the failure and exits).
RunResult counted_run(const Context& cx, core::FaultInjector& fi,
                      const data::SyntheticDataset& ds, const RunSpec& rs,
                      Tally& tally, const std::string& what) {
  RunResult r = run_campaign(cx.w, fi, ds, rs);
  tally.record(!r.gave_up, what + " gave up");
  return r;
}

/// The output checks, all outside the timed region:
///  * reference cross-check — a reduced instance (1/8 of a run) in the
///    timed configuration against threads 1 with the prefix cache off, on an
///    nn::clone_model copy (two injectors never hook one model); counters
///    and trace JSONL bytes must be identical;
///  * fleet_ber: threads 1 against threads 2 on the reduced instance;
///  * shard4: the full merged result and merged trace against an unsharded
///    run (`timed_digest` and `timed_jsonl` are the timed campaign's).
void run_checks(const Context& cx, Setup& s, std::uint64_t timed_digest,
                const std::string& timed_jsonl, Tally& tally) {
  const Workload& w = cx.w;
  const std::uint64_t seed = cx.args.seed;
  const std::int64_t reduced = std::max<std::int64_t>(1, cx.units / 8);

  trace::TraceSink timed_sink;
  const RunResult a = counted_run(
      cx, *s.fi, s.ds,
      cx.spec(seed, reduced, w.threads, w.kind == Kind::kShard, "check",
              &timed_sink),
      tally, "reduced timed-configuration run");

  trace::TraceSink ref_sink;
  RunResult b;
  {
    core::FiConfig ref_cfg = s.fi->config();
    ref_cfg.prefix_cache = false;
    core::FaultInjector ref(nn::clone_model(*s.model), ref_cfg);
    RunSpec rs = cx.spec(seed, reduced, 1, false, "reference", &ref_sink);
    if (cx.args.perturb_reference) rs.seed += 1;
    b = counted_run(cx, ref, s.ds, rs, tally, "reduced reference run");
  }
  const std::string ref_jsonl = trace::trace_to_jsonl(ref_sink.events());
  tally.record(a.digest == b.digest,
               "reference cross-check: counters differ (threads " +
                   std::to_string(w.threads) +
                   ", prefix cache on vs threads 1, prefix cache off)");
  tally.record(trace::trace_to_jsonl(timed_sink.events()) == ref_jsonl,
               "reference cross-check: trace JSONL differs");

  if (w.kind == Kind::kFleet) {
    trace::TraceSink t2_sink;
    const RunResult c = counted_run(
        cx, *s.fi, s.ds, cx.spec(seed, reduced, 2, false, "threads2", &t2_sink),
        tally, "reduced threads-2 fleet run");
    tally.record(c.digest == a.digest &&
                     trace::trace_to_jsonl(t2_sink.events()) == ref_jsonl,
                 "fleet threads 1 vs threads 2 differ");
  }
  if (w.kind == Kind::kShard) {
    trace::TraceSink flat_sink;
    const RunResult c = counted_run(
        cx, *s.fi, s.ds,
        cx.spec(seed, cx.units, 1, false, "unsharded", &flat_sink), tally,
        "unsharded run");
    tally.record(c.digest == timed_digest,
                 "merged shard result differs from the unsharded run");
    tally.record(trace::trace_to_jsonl(flat_sink.events()) == timed_jsonl,
                 "merged shard trace differs from the unsharded trace");
  }
}

// -- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

class Report {
 public:
  explicit Report(const Workload& w) : w_(w) {}

  void add(const std::string& name, double value, std::size_t samples = 1) {
    const char* unit = nullptr;
    for (const auto& table : {std::span<const MetricName>(kEndToEnd),
                              std::span<const MetricName>(kPerLayer)}) {
      for (const MetricName& m : table) {
        if (name == m.name) unit = m.unit;
      }
    }
    PFI_CHECK(unit != nullptr) << "metric '" << name << "' is not in the table";
    PFI_CHECK(std::isfinite(value)) << "metric '" << name << "' is " << value;
    metrics_.push_back({name, value, unit, samples});
  }

  /// Metric lines, then the JSON result as the last line of stdout.
  void print(const Tally& tally) const {
    for (const Metric& m : metrics_) {
      std::printf("%s %s %.6g %s n=%zu\n", w_.name, m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    std::printf("%s runs attempted=%lld failed=%lld\n", w_.name,
                static_cast<long long>(tally.attempted),
                static_cast<long long>(tally.failed));
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                tally.failed == 0 ? "true" : "false",
                static_cast<long long>(tally.attempted),
                static_cast<long long>(tally.failed), metrics_json().c_str());
    std::fflush(stdout);
  }

  /// {"<name>": {"value": <all digits>, "unit": "<unit>"}, ...}
  std::string metrics_json() const {
    std::string json = "{";
    for (const Metric& m : metrics_) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      json += (json.size() == 1 ? "\"" : ", \"") + m.name +
              "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    }
    return json + "}";
  }

 private:
  const Workload& w_;
  std::vector<Metric> metrics_;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// -- Timed mode ---------------------------------------------------------------

/// A 1/16-size campaign that pays first-run costs (allocator, pack caches,
/// thread start) outside the timed runs. Its seed is fixed, so the set-up
/// does the same work for every --seed.
void warm_up(const Context& cx, Setup& s, Tally& tally) {
  counted_run(
      cx, *s.fi, s.ds,
      cx.spec(kWarmUpSeed, std::max<std::int64_t>(1, cx.units / 16),
              cx.w.threads, cx.w.kind == Kind::kShard, "warmup", nullptr),
      tally, "warm-up run");
}

int run_timed(const Context& cx) {
  const Workload& w = cx.w;
  const bool shard = w.kind == Kind::kShard;
  Tally tally;
  Report report(w);

  // Set up kSetups times and keep the last; each set-up must train to the
  // same weights. The previous set-up is destroyed first so peak RSS is
  // that of one set-up.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  std::uint64_t weights = 0;
  for (int i = 0; i < (cx.args.smoke ? 1 : kSetups); ++i) {
    s.reset();
    const auto t0 = Clock::now();
    s = build_setup(w, cx.args.smoke);
    warm_up(cx, *s, tally);
    setup_s.push_back(seconds_since(t0));
    if (i == 0) weights = s->weights;
    tally.record(s->weights == weights,
                 "set-up " + std::to_string(i) + " trained different weights");
  }

  // Closed loop, one campaign at a time: the identical campaign of --seed,
  // at least kMinTimedRuns times, and another only while it should end
  // within --seconds. Every repetition must fold to the same counters (run
  // agreement); for shard4 the merged trace must repeat too.
  std::vector<double> walls;
  std::uint64_t digest = 0, scored = 0;
  std::string jsonl;  // shard4's merged trace
  const auto start = Clock::now();
  for (std::uint64_t i = 0;
       i < kMinTimedRuns ||
       (!cx.args.smoke &&
        seconds_since(start) + walls.back() <= cx.args.seconds);
       ++i) {
    trace::TraceSink sink;
    const RunResult r =
        counted_run(cx, *s->fi, s->ds, cx.timed(shard ? &sink : nullptr),
                    tally, "timed campaign " + std::to_string(i));
    const std::string text =
        shard ? trace::trace_to_jsonl(sink.events()) : std::string();
    if (i == 0) {
      digest = r.digest;
      scored = r.scored;
      jsonl = text;
    }
    tally.record(r.digest == digest && text == jsonl,
                 "timed campaign " + std::to_string(i) +
                     " folded to a different result than campaign 0");
    walls.push_back(r.seconds);
  }

  // Peak RSS of set-up plus the timed campaigns; the checks below build
  // extra model copies that a user's campaign would not.
  const double rss_mb = peak_rss_mib();
  run_checks(cx, *s, digest, jsonl, tally);

  // A run holds a handful of campaigns, too few for any percentile above
  // the median to have ten samples beyond it.
  const double wall = median(walls);
  report.add("campaign_s", wall, walls.size());
  report.add("trials_per_s", static_cast<double>(scored) / wall,
             walls.size());
  report.add("setup_s", median(setup_s), setup_s.size());
  report.add("peak_rss_mb", rss_mb);
  std::printf("%s result_digest %s\n", w.name, hex64(digest).c_str());
  report.print(tally);
  return tally.failed == 0 ? 0 : 1;
}

// -- Traced mode: spans around every module -----------------------------------

const char* category_of(const std::string& kind) {
  if (kind == "Conv2d") return "conv";
  if (kind == "Linear") return "linear";
  if (kind == "BatchNorm2d") return "batchnorm";
  if (kind == "ReLU" || kind == "LeakyReLU") return "relu";
  if (kind == "MaxPool2d" || kind == "AvgPool2d" || kind == "GlobalAvgPool") {
    return "pool";
  }
  if (kind == "Residual" || kind == "Concat") return "join";
  return "other";
}

/// In the order of the nn.self_ms.* metrics.
constexpr const char* kCategories[] = {"conv", "linear", "batchnorm", "relu",
                                       "pool", "join",   "other"};

/// Records one span per module call from forward pre/post hooks registered
/// AFTER the FaultInjector's, so a conv's span includes the injection hook.
/// A module served by the prefix cache skips its post-hooks; its span is
/// closed, marked served, at the next hook event that proves it finished
/// (its next sibling starting or its parent ending).
class SpanRecorder {
 public:
  struct ModuleInfo {
    nn::Module* module = nullptr;
    std::string path;
    std::string kind;
    std::int64_t parent = -1;  ///< index into modules(), -1 for the root
    bool leaf = false;
    double conv_flops = 0.0;   ///< per sample, convs only
  };
  struct Span {
    std::int64_t parent = -1;
    std::uint64_t attempt = 0;
    std::uint64_t pass = 0;
    std::uint32_t module = 0;
    std::int64_t batch = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
    bool served = false;
    bool faulty = false;  ///< root spans: any fault active at the pre-hook
  };

  explicit SpanRecorder(core::FaultInjector& fi) : fi_(fi), t0_(Clock::now()) {
    std::map<const nn::Module*, std::int64_t> index;
    for (auto& [path, m] : fi.model().named_modules()) {
      index[m] = static_cast<std::int64_t>(modules_.size());
      modules_.push_back({.module = m, .path = path, .kind = m->kind()});
    }
    for (ModuleInfo& info : modules_) {
      info.leaf = info.module->children().empty();
      for (nn::Module* child : info.module->children()) {
        modules_[static_cast<std::size_t>(index.at(child))].parent =
            index.at(info.module);
      }
    }
    for (std::int64_t i = 0; i < fi.num_layers(); ++i) {
      auto* conv = dynamic_cast<nn::Conv2d*>(&fi.layer(i));
      if (conv == nullptr) continue;
      const auto& o = conv->options();
      const Shape& out = fi.layer_shape(i);
      modules_[static_cast<std::size_t>(index.at(conv))].conv_flops =
          2.0 * static_cast<double>(o.out_channels) * out[2] * out[3] *
          static_cast<double>(o.in_channels / o.groups) * o.kernel * o.kernel;
    }
    for (std::size_t i = 0; i < modules_.size(); ++i) {
      nn::Module* m = modules_[i].module;
      const auto idx = static_cast<std::uint32_t>(i);
      handles_.emplace_back(
          m, m->register_forward_pre_hook(
                 [this, idx](nn::Module&, Tensor& in) { on_pre(idx, in); }));
      handles_.emplace_back(
          m, m->register_forward_hook(
                 [this, idx](nn::Module&, const Tensor&, Tensor&) {
                   on_post(idx);
                 }));
    }
  }

  ~SpanRecorder() {
    for (auto& [m, h] : handles_) m->remove_hook(h);
  }

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  const std::vector<ModuleInfo>& modules() const { return modules_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  void on_pre(std::uint32_t idx, const Tensor& in) {
    const std::int64_t now = now_ns();
    const std::int64_t parent = modules_[idx].parent;
    while (!open_.empty() &&
           static_cast<std::int64_t>(spans_[open_.back()].module) != parent) {
      close(now, true);
    }
    Span s;
    s.module = idx;
    s.start_ns = now;
    s.batch = in.dim() > 0 ? in.size(0) : 0;
    s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    if (parent < 0) {
      const bool faulty = fi_.active_neuron_faults() +
                              fi_.active_weight_faults() +
                              fi_.active_persistent_faults() >
                          0;
      if (!faulty && last_faulty_) ++attempt_;
      last_faulty_ = faulty;
      s.faulty = faulty;
      ++pass_;
    }
    s.attempt = attempt_;
    s.pass = pass_;
    open_.push_back(spans_.size());
    spans_.push_back(s);
  }

  void on_post(std::uint32_t idx) {
    const std::int64_t now = now_ns();
    while (!open_.empty() && spans_[open_.back()].module != idx) {
      close(now, true);
    }
    if (!open_.empty()) close(now, false);
  }

  void close(std::int64_t now, bool served) {
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end_ns = now;
    s.served = served;
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].child_ns += now - s.start_ns;
    }
  }

  core::FaultInjector& fi_;
  Clock::time_point t0_;
  std::vector<ModuleInfo> modules_;
  std::vector<std::pair<nn::Module*, nn::HookHandle>> handles_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t attempt_ = 0;
  std::uint64_t pass_ = 0;
  bool last_faulty_ = false;
};

void write_spans(const std::string& path, const SpanRecorder& rec) {
  std::string out;
  const auto& spans = rec.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecorder::Span& s = spans[i];
    const auto& m = rec.modules()[s.module];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"parent\":%lld,\"attempt\":%llu,\"pass\":%llu,",
                  i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.attempt),
                  static_cast<unsigned long long>(s.pass));
    out += buf;
    out += "\"name\":\"" + util::json_escape(m.kind) + "\",\"path\":\"" +
           util::json_escape(m.path) + "\"";
    std::snprintf(buf, sizeof buf,
                  ",\"start_ns\":%lld,\"end_ns\":%lld,\"served\":%s}\n",
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  s.served ? "true" : "false");
    out += buf;
  }
  util::atomic_write_file(path, out);
}

// -- Traced mode: direct layer calls ------------------------------------------

struct GemmShape {
  std::int64_t m = 0, n = 0, k = 0;
  std::int64_t weight = 0;  ///< groups x batch occurrences per forward
};

/// The im2col GEMM of every conv of the workload's model at its batch size
/// (as in bench/kernel_gemm.cpp), identical shapes merged.
std::vector<GemmShape> conv_shapes(core::FaultInjector& fi,
                                   std::int64_t batch) {
  std::vector<GemmShape> shapes;
  for (std::int64_t i = 0; i < fi.num_layers(); ++i) {
    auto* conv = dynamic_cast<nn::Conv2d*>(&fi.layer(i));
    if (conv == nullptr) continue;
    const auto& o = conv->options();
    const Shape& out = fi.layer_shape(i);
    const GemmShape s{o.out_channels / o.groups, out[2] * out[3],
                      (o.in_channels / o.groups) * o.kernel * o.kernel,
                      o.groups * batch};
    auto it =
        std::find_if(shapes.begin(), shapes.end(), [&](const GemmShape& t) {
          return t.m == s.m && t.n == s.n && t.k == s.k;
        });
    if (it != shapes.end()) {
      it->weight += s.weight;
    } else {
      shapes.push_back(s);
    }
  }
  return shapes;
}

struct KernelRates {
  double f32_gflops = 0.0;
  double i8_gops = 0.0;
  double flops_per_pass = 0.0;
  double bytes_per_pass = 0.0;
};

/// The GEMM path the workload's convs run on its conv shapes: the fp32
/// blocked GEMM, or for a native workload the static INT8 path
/// (quantize+pack, gemm_i8, requantize to the frozen grid). The rate is the
/// flop-weighted total; the other path's rate stays 0.
KernelRates time_kernels(const std::vector<GemmShape>& shapes, bool native,
                         double budget_s) {
  KernelRates r;
  double f32_s = 0.0, i8_s = 0.0;
  const double per_shape = std::max(0.002, budget_s / shapes.size());
  Rng rng(7);
  for (const GemmShape& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    std::vector<float> bias(static_cast<std::size_t>(s.m));
    for (auto& x : a) x = rng.uniform(-1.0f, 1.0f);
    for (auto& x : b) x = rng.uniform(-1.0f, 1.0f);
    for (auto& x : bias) x = rng.uniform(-1.0f, 1.0f);
    const double w = static_cast<double>(s.weight);
    const double flops = 2.0 * static_cast<double>(s.m) * s.n * s.k;
    r.flops_per_pass += flops * w;
    r.bytes_per_pass +=
        4.0 * static_cast<double>(s.m * s.k + s.k * s.n + s.m * s.n) * w;

    if (!native) {
      f32_s += w * time_per_call(
                       [&] {
                         kernels::gemm_blocked(s.m, s.n, s.k, a.data(), s.k,
                                               false, b.data(), s.n, false,
                                               c.data(), s.n,
                                               kernels::Epilogue::kBiasRow,
                                               bias.data());
                       },
                       per_shape);
      continue;
    }
    const auto row_scales =
        kernels::per_row_scales_i8(s.m, s.k, a.data(), s.k, false);
    kernels::PackedPanelsI8 pa, pb;
    kernels::quantize_pack_a_i8(s.m, s.k, a.data(), s.k, false,
                                kernels::block_config().mr, row_scales.data(),
                                pa);
    const auto absmax = [](const std::vector<float>& v) {
      return kernels::finite_absmax_i8(v.data(),
                                       static_cast<std::int64_t>(v.size()));
    };
    const float act_scale = kernels::scale_from_absmax(absmax(b));
    const float out_scale = kernels::scale_from_absmax(absmax(c));
    std::vector<std::int32_t> acc(static_cast<std::size_t>(s.m * s.n));
    i8_s += w * time_per_call(
                    [&] {
                      kernels::quantize_pack_b_i8_static(s.k, s.n, b.data(),
                                                         s.n, false, act_scale,
                                                         pb);
                      kernels::gemm_i8(s.m, s.n, s.k, pa, pb, acc.data(), s.n);
                      kernels::requantize_rows_grid(
                          s.m, s.n, acc.data(), s.n, row_scales.data(),
                          pb.scale[0], bias.data(), out_scale, true, c.data(),
                          s.n);
                    },
                    per_shape);
  }
  r.f32_gflops = ratio(r.flops_per_pass, f32_s) * 1e-9;
  r.i8_gops = ratio(r.flops_per_pass, i8_s) * 1e-9;
  return r;
}

struct CommitTiming {
  std::vector<double> us;
  double bytes = 0.0;
};

/// kCheckpointCommits commits in `dir`, each streaming a wave of
/// kEventsPerCommit events (fsync included).
CommitTiming time_commits(const std::string& dir,
                          const std::vector<trace::InjectionEvent>& source) {
  std::vector<trace::InjectionEvent> wave(kEventsPerCommit);
  for (std::size_t i = 0; i < wave.size() && i < source.size(); ++i) {
    wave[i] = source[i];
  }
  util::ensure_dir(dir);
  const std::string ckpt_path = dir + "/commits.ckpt";
  const std::string trace_path = dir + "/commits.jsonl";
  CommitTiming t;
  {
    core::CampaignCheckpointer ckpt(ckpt_path, trace_path);
    ckpt.begin(0x9f1b3c5e7a2d4f68ull);
    core::CampaignResult folded;
    for (int i = 0; i < kCheckpointCommits; ++i) {
      folded.trials += kEventsPerCommit;
      const auto t0 = Clock::now();
      ckpt.commit(folded, static_cast<std::uint64_t>(i + 1), false, wave);
      t.us.push_back(seconds_since(t0) * 1e6);
    }
  }
  t.bytes = static_cast<double>(util::file_size(ckpt_path) +
                                util::file_size(trace_path));
  std::remove(ckpt_path.c_str());
  std::remove(trace_path.c_str());
  return t;
}

struct ShardFiles {
  double merge_ms = 0.0;
  double records = 0.0;
  double log_bytes = 0.0;
  std::uint64_t digest = 0;  ///< of the re-merged result
};

/// Reads the manifests a finished sharded campaign left in `dir` and times
/// merge_shards over them.
ShardFiles time_merge(const std::string& dir) {
  ShardFiles f;
  std::vector<std::string> paths;
  for (std::int64_t k = 0; k < kShards; ++k) {
    paths.push_back(core::shard_paths(dir, k, kShards).manifest);
    const core::ShardManifest m = core::read_shard_manifest(paths.back());
    f.records += static_cast<double>(m.records);
    f.log_bytes += static_cast<double>(m.log_bytes);
  }
  f.merge_ms = time_per_call(
                   [&] {
                     trace::TraceSink sink;
                     f.digest = util::fnv1a(counts_text(
                         core::merge_shards(paths, &sink).classification));
                   },
                   0.2) *
               1e3;
  return f;
}

// -- Traced mode --------------------------------------------------------------

int run_traced(const Context& cx) {
  const Workload& w = cx.w;
  Tally tally;
  Report report(w);
  std::unique_ptr<Setup> s = build_setup(w, cx.args.smoke);
  core::FaultInjector& fi = *s->fi;
  warm_up(cx, *s, tally);
  const bool shard = w.kind == Kind::kShard;

  // One untraced threads-1 run, later repeated with span hooks. Shard runs
  // record events, as when timed; shard4 is timed at threads 1, so this run
  // also gives the checks the timed configuration's merged result and trace.
  trace::TraceSink plain_sink;
  RunSpec t1 = cx.spec(cx.args.seed, cx.units, 1, shard, "traced",
                       shard ? &plain_sink : nullptr);
  const RunResult plain = counted_run(cx, fi, s->ds, t1, tally, "untraced run");
  run_checks(cx, *s, plain.digest, trace::trace_to_jsonl(plain_sink.events()),
             tally);

  trace::TraceSink merged_sink;  // shard4: the traced run's merged trace
  t1.sink = shard ? &merged_sink : nullptr;
  core::PrefixCacheStats before;
  if (fi.prefix_cache() != nullptr) before = fi.prefix_cache()->stats();
  std::unique_ptr<SpanRecorder> rec = std::make_unique<SpanRecorder>(fi);
  const RunResult traced = counted_run(cx, fi, s->ds, t1, tally, "traced run");
  const double traced_ms = traced.seconds * 1e3;
  tally.record(traced.digest == plain.digest,
               "traced run's result_digest differs from the untraced run's");
  core::PrefixCacheStats after;
  if (fi.prefix_cache() != nullptr) after = fi.prefix_cache()->stats();

  // nn: spans, totalled per category and per module.
  struct ModuleTotals {
    double calls = 0.0, served = 0.0, self_ms = 0.0;
  };
  std::vector<ModuleTotals> per_module(rec->modules().size());
  std::vector<double> clean_us, faulty_us;
  double root_ms = 0.0, leaf_execs = 0.0, conv_flops = 0.0, conv_exec_ms = 0.0;
  std::map<std::string, double> self_ms;
  for (const SpanRecorder::Span& sp : rec->spans()) {
    const SpanRecorder::ModuleInfo& m = rec->modules()[sp.module];
    const double dur_ms = static_cast<double>(sp.end_ns - sp.start_ns) * 1e-6;
    const double own_ms =
        static_cast<double>(sp.end_ns - sp.start_ns - sp.child_ns) * 1e-6;
    self_ms[category_of(m.kind)] += own_ms;
    ModuleTotals& t = per_module[sp.module];
    ++t.calls;
    t.served += sp.served ? 1.0 : 0.0;
    t.self_ms += own_ms;
    if (m.parent < 0) {
      (sp.faulty ? faulty_us : clean_us).push_back(dur_ms * 1e3);
      root_ms += dur_ms;
    }
    if (m.leaf && !sp.served) ++leaf_execs;
    if (m.conv_flops > 0.0 && !sp.served) {
      conv_flops += m.conv_flops * static_cast<double>(sp.batch);
      conv_exec_ms += own_ms;
    }
  }
  util::ensure_dir(cx.args.out);
  write_spans(cx.args.out + "/" + w.name + ".spans.jsonl", *rec);
  std::string layers_json;
  for (std::size_t i = 0; i < per_module.size(); ++i) {
    const SpanRecorder::ModuleInfo& m = rec->modules()[i];
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "\", \"kind\": \"%s\", \"calls\": %.0f, \"served\": %.0f, "
                  "\"self_ms\": %.6f}",
                  m.kind.c_str(), per_module[i].calls, per_module[i].served,
                  per_module[i].self_ms);
    layers_json += std::string(i == 0 ? "" : ",\n") + "  {\"path\": \"" +
                   util::json_escape(m.path) + buf;
  }
  rec.reset();  // hooks off before the direct calls

  const double clean_n = static_cast<double>(clean_us.size());
  report.add("nn.clean_pass_us.p50", median(clean_us), clean_us.size());
  report.add("nn.clean_pass_us.p90", percentile(clean_us, 0.9),
             clean_us.size());
  report.add("nn.faulty_pass_us.p50", median(faulty_us), faulty_us.size());
  report.add("nn.faulty_pass_us.p90", percentile(faulty_us, 0.9),
             faulty_us.size());
  report.add("nn.clean_passes", clean_n);
  report.add("nn.faulty_passes", static_cast<double>(faulty_us.size()));
  report.add("nn.leaf_execs", leaf_execs);
  for (const char* cat : kCategories) {
    report.add(std::string("nn.self_ms.") + cat, self_ms[cat]);
  }
  report.add("nn.conv_gflops_in_model", ratio(conv_flops, conv_exec_ms) * 1e-6);

  // kernels: direct calls on the model's own conv shapes.
  const KernelRates k = time_kernels(conv_shapes(fi, w.batch),
                                     dtype_of(w).native,
                                     cx.args.smoke ? 0.05 : 1.0);
  report.add("kernels.gemm_f32_gflops", k.f32_gflops);
  report.add("kernels.gemm_i8_gops", k.i8_gops);
  report.add("kernels.flops_per_pass", k.flops_per_pass);
  report.add("kernels.bytes_per_pass", k.bytes_per_pass);

  // prefix_cache: stat deltas over the traced run (deterministic counts).
  const double reused =
      static_cast<double>(after.layers_reused - before.layers_reused);
  const double recomputed =
      static_cast<double>(after.layers_recomputed - before.layers_recomputed);
  report.add("prefix_cache.hit_rate", ratio(reused, reused + recomputed));
  report.add("prefix_cache.layers_reused", reused);
  report.add("prefix_cache.layers_recomputed", recomputed);
  report.add("prefix_cache.site_serves",
             static_cast<double>(after.injection_site_serves -
                                 before.injection_site_serves));
  report.add("prefix_cache.fallbacks",
             static_cast<double>(after.fallback_passes -
                                 before.fallback_passes));
  report.add("prefix_cache.snapshot_mb",
             fi.prefix_cache() == nullptr
                 ? 0.0
                 : static_cast<double>(fi.prefix_cache()->snapshot_bytes()) /
                       (1024.0 * 1024.0));

  // campaign: engine time is the run minus its root forwards. Replicas are
  // built only by campaigns on more than one thread.
  std::vector<double> replicate_ms;
  for (int i = 0; w.threads > 1 && i < 3; ++i) {
    fi.clear();
    const auto t0 = Clock::now();
    const auto replica = fi.replicate();
    replicate_ms.push_back(seconds_since(t0) * 1e3);
  }
  report.add("campaign.engine_ms", traced_ms - root_ms);
  report.add("campaign.engine_share", ratio(traced_ms - root_ms, traced_ms));
  report.add("campaign.attempts", static_cast<double>(traced.attempts));
  report.add("campaign.skipped", static_cast<double>(traced.skipped));
  report.add("campaign.yield", ratio(static_cast<double>(traced.scored),
                                     static_cast<double>(traced.attempts)));
  report.add("campaign.replicate_ms", median(replicate_ms),
             replicate_ms.size());

  // data: batch generation at the workload's batch size.
  {
    Rng rng(cx.args.seed);
    std::vector<double> us;
    const auto t0 = Clock::now();
    while (us.size() < 20 || (seconds_since(t0) < 0.1 && us.size() < 100000)) {
      const auto t1 = Clock::now();
      const data::Batch b = s->ds.sample_batch(w.batch, rng);
      us.push_back(seconds_since(t1) * 1e6);
    }
    report.add("data.batch_us", median(us), us.size());
  }

  // quant: static calibration of a copy of the model (native workload).
  {
    double calibrate_ms = 0.0;
    if (w.static_calib) {
      auto copy = nn::clone_model(*s->model);
      const std::vector<Tensor> batches = calibration_batches(s->ds);
      const auto t0 = Clock::now();
      calibrate(copy, s->ds, batches);
      calibrate_ms = seconds_since(t0) * 1e3;
    }
    report.add("quant.calibrate_ms", calibrate_ms);
  }

  // sampling: fields of the traced run's StratifiedResult.
  {
    const core::StratifiedResult& r = traced.strat;
    const bool on = w.kind == Kind::kStratified;
    const double executed = static_cast<double>(r.executed_passes());
    const double uniform = on ? r.uniform_equivalent_trials() : 0.0;
    report.add("sampling.strata", static_cast<double>(r.strata.size()));
    report.add("sampling.pruned", static_cast<double>(r.pruned));
    report.add("sampling.prune_share",
               ratio(static_cast<double>(r.pruned),
                     static_cast<double>(r.totals.trials)));
    report.add("sampling.executed_passes", executed);
    report.add("sampling.uniform_equiv_ratio",
               std::isfinite(uniform) ? ratio(uniform, executed) : 0.0);
    report.add("sampling.half_width", on ? r.estimate().half_width() : 0.0);
  }

  // persistent: fleet result, plus advance_to over a replica.
  {
    std::vector<double> advance_us;
    if (w.kind == Kind::kFleet) {
      fi.clear();
      const auto replica = fi.replicate();
      core::PersistentFaultSet faults(*replica, fleet_config(w, t1).scenario);
      for (std::int64_t t = 1; t <= cx.units; ++t) {
        const auto t0 = Clock::now();
        faults.advance_to(static_cast<std::uint64_t>(t));
        advance_us.push_back(seconds_since(t0) * 1e6);
      }
      faults.heal();
    }
    report.add("persistent.faults",
               static_cast<double>(traced.fleet.total_faults));
    report.add("persistent.stuck_cells",
               w.kind == Kind::kFleet ? static_cast<double>(kFleetStuckCells)
                                      : 0.0);
    report.add("persistent.advance_us.p50", median(advance_us),
               advance_us.size());
    report.add("persistent.advance_us.p90", percentile(advance_us, 0.9),
               advance_us.size());
  }

  // checkpoint, shard and trace: the layers only shard4 runs; 0 elsewhere.
  // checkpoint: direct commits of waves taken from the merged trace.
  {
    CommitTiming c;
    if (shard) c = time_commits(cx.work_dir + "/commits", merged_sink.events());
    report.add("checkpoint.commit_us.p50", median(c.us), c.us.size());
    report.add("checkpoint.commit_us.p90", percentile(c.us, 0.9), c.us.size());
    report.add("checkpoint.bytes", c.bytes);
  }

  // shard: the untraced sharded campaign's wall time, the manifests the
  // traced one left, and merge_shards re-run over them.
  ShardFiles sf;
  if (shard) {
    sf = time_merge(t1.shard_dir);
    tally.record(sf.digest == plain.digest,
                 "re-merging the shard manifests changed the result");
  }
  report.add("shard.run_ms", shard ? plain.seconds * 1e3 : 0.0);
  report.add("shard.merge_ms", sf.merge_ms);
  report.add("shard.records", sf.records);
  report.add("shard.clean_passes", shard ? clean_n : 0.0);
  report.add("shard.work_ratio",
             ratio(sf.records, static_cast<double>(plain.attempts)));
  report.add("shard.log_bytes", sf.log_bytes);

  // trace: serialize and parse the merged trace.
  {
    const std::vector<trace::InjectionEvent>& events = merged_sink.events();
    const std::string jsonl = trace::trace_to_jsonl(events);
    std::vector<std::string> lines;
    for (std::size_t pos = 0, nl = 0; pos < jsonl.size(); pos = nl + 1) {
      nl = std::min(jsonl.find('\n', pos), jsonl.size());
      lines.push_back(jsonl.substr(pos, nl - pos));
    }
    const double n = static_cast<double>(events.size());
    double ser_ns = 0.0, parse_ns = 0.0;
    if (!events.empty()) {
      std::size_t bytes = 0;
      ser_ns = time_per_call(
                   [&] { bytes += trace::trace_to_jsonl(events).size(); },
                   0.05) *
               1e9 / n;
      parse_ns = time_per_call(
                     [&] {
                       for (const std::string& line : lines) {
                         bytes +=
                             trace::event_from_json(line).layer_name.size();
                       }
                     },
                     0.05) *
                 1e9 / n;
      tally.record(bytes > 0, "trace serialization produced nothing");
    }
    report.add("trace.events", n);
    report.add("trace.jsonl_bytes", static_cast<double>(jsonl.size()));
    report.add("trace.serialize_ns_per_event", ser_ns);
    report.add("trace.parse_ns_per_event", parse_ns);
  }

  report.add("trace_overhead", ratio(traced.seconds, plain.seconds));
  std::printf("%s result_digest %s\n", w.name, hex64(plain.digest).c_str());

  util::atomic_write_file(cx.args.out + "/" + w.name + ".layers.json",
                          "{\"workload\": \"" + std::string(w.name) +
                              "\",\n \"result_digest\": \"" +
                              hex64(plain.digest) + "\",\n \"metrics\": " +
                              report.metrics_json() + ",\n \"modules\": [\n" +
                              layers_json + "\n ]}\n");
  report.print(tally);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& w = *args.workload;
  Context cx{w, args,
             ".bench_build/work/" + std::string(w.name) + "-" +
                 std::to_string(static_cast<long long>(::getpid())),
             args.smoke ? std::max<std::int64_t>(1, w.units / 20) : w.units};
  std::printf("# pfi_bench workload=%s seed=%llu mode=%s model=%s dtype=%s "
              "threads=%lld units=%lld%s\n",
              w.name, static_cast<unsigned long long>(args.seed),
              args.traced ? "traced" : "timed", w.model, w.dtype,
              static_cast<long long>(w.threads),
              static_cast<long long>(cx.units), args.smoke ? " smoke" : "");
  std::fflush(stdout);
  int code = 1;
  try {
    code = args.traced ? run_traced(cx) : run_timed(cx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfi_bench: %s: %s\n", w.name, e.what());
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
    code = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(cx.work_dir, ignored);
  return code;
}
