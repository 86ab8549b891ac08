// Tests for the multi-process sharded campaign fabric (core/shard.hpp).
// The headline guarantee: merging S shards is byte-identical to the
// single-process run — counts, CSV, and trace JSONL — for S in {1,2,3,7},
// at 1 and 4 worker threads, for both the uniform and the stratified
// fixed-budget samplers, with the prefix cache on or off, and after any
// shard crashes mid-wave and resumes from its checkpoint. The merge must
// also refuse incomplete or mismatched shard sets with distinct,
// actionable error messages.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fault_injector.hpp"
#include "core/report.hpp"
#include "core/sampling.hpp"
#include "core/shard.hpp"
#include "core/trace.hpp"
#include "data/synthetic.hpp"
#include "json_fuzz.hpp"
#include "models/trainer.hpp"
#include "nn/container.hpp"
#include "nn/layers.hpp"
#include "util/fileio.hpp"
#include "util/strings.hpp"

namespace pfi::core {
namespace {

// ------------------------------------------------------------- fixture ----

/// Jitter- and noise-free dataset: exactly 3 distinct images, one per
/// class (same fixture as test_sampling.cpp), so campaigns are fast and
/// every run is a pure function of (seed, attempt index).
data::SyntheticSpec tiny_spec() {
  data::SyntheticSpec spec;
  spec.name = "tiny";
  spec.classes = 3;
  spec.channels = 1;
  spec.height = 8;
  spec.width = 8;
  spec.noise_stddev = 0.0f;
  spec.jitter = 0.0f;
  spec.seed = 11;
  return spec;
}

std::shared_ptr<nn::Sequential> tiny_model() {
  Rng rng(42);
  auto m = std::make_shared<nn::Sequential>();
  m->emplace<nn::Conv2d>(
      nn::Conv2dOptions{.in_channels = 1, .out_channels = 3, .kernel = 3,
                        .padding = 1},
      rng);
  m->emplace<nn::ReLU>();
  m->emplace<nn::Conv2d>(
      nn::Conv2dOptions{.in_channels = 3, .out_channels = 4, .kernel = 3,
                        .stride = 2, .padding = 1},
      rng);
  m->emplace<nn::ReLU>();
  m->emplace<nn::GlobalAvgPool>();
  m->emplace<nn::Flatten>();
  m->emplace<nn::Linear>(4, 3, rng);
  return m;
}

struct TinyFixture {
  data::SyntheticDataset ds;
  std::shared_ptr<nn::Sequential> model;
};

/// Train once per process; campaigns never mutate parameters, so every
/// test shares the weights and builds its own (cheap) FaultInjector.
const TinyFixture& tiny() {
  static const TinyFixture* fx = [] {
    auto* f = new TinyFixture{data::SyntheticDataset(tiny_spec()),
                              tiny_model()};
    models::train_classifier(*f->model, f->ds,
                             {.epochs = 25,
                              .batches_per_epoch = 10,
                              .batch_size = 9,
                              .lr = 0.05f,
                              .seed = 7});
    f->model->eval();
    return f;
  }();
  return *fx;
}

FiConfig tiny_fi_config(bool prefix_cache = true) {
  FiConfig cfg{.input_shape = {1, 8, 8}, .batch_size = 1};
  cfg.prefix_cache = prefix_cache;
  return cfg;
}

/// Native-int8 variant: faults land in the deployed quantized codes, so
/// sharded runs must reproduce the native single-process bytes exactly.
FiConfig tiny_native_fi_config(bool prefix_cache = true) {
  FiConfig cfg = tiny_fi_config(prefix_cache);
  cfg.dtype = DType::kInt8;
  cfg.native = true;
  return cfg;
}

CampaignConfig uniform_config(std::int64_t threads = 1,
                              std::int64_t trials = 24) {
  CampaignConfig cfg;
  cfg.trials = trials;
  cfg.error_model = single_bit_flip();
  cfg.seed = 91;
  cfg.batch_size = 1;
  cfg.injections_per_image = 4;
  cfg.threads = threads;
  return cfg;
}

StratifiedCampaignConfig stratified_config(std::int64_t threads = 1,
                                           std::int64_t trials = 48) {
  StratifiedCampaignConfig scfg;
  scfg.base.trials = trials;
  scfg.base.seed = 91;
  scfg.base.batch_size = 1;
  scfg.base.injections_per_image = 4;
  scfg.base.threads = threads;
  return scfg;
}

bool same_bits(const CampaignResult& a, const CampaignResult& b) {
  return std::memcmp(&a, &b, sizeof(CampaignResult)) == 0;
}

/// A shard directory under /tmp, wiped of every shard file (for any shard
/// count the tests use) on both ends so reruns never see stale state.
struct ShardDir {
  explicit ShardDir(std::string p) : path(std::move(p)) { wipe(); }
  ~ShardDir() {
    wipe();
    ::rmdir(path.c_str());
  }
  void wipe() {
    for (std::int64_t s = 1; s <= 8; ++s) {
      for (std::int64_t k = 0; k < s; ++k) {
        const ShardPaths sp = shard_paths(path, k, s);
        std::remove(sp.checkpoint.c_str());
        std::remove((sp.checkpoint + ".tmp").c_str());
        std::remove(sp.log.c_str());
        std::remove(sp.manifest.c_str());
        std::remove((sp.manifest + ".tmp").c_str());
      }
    }
  }
  std::vector<std::string> manifests(std::int64_t shards) const {
    std::vector<std::string> out;
    for (std::int64_t k = 0; k < shards; ++k) {
      out.push_back(shard_paths(path, k, shards).manifest);
    }
    return out;
  }
  std::string path;
};

/// Run `fn`, expect a pfi::Error whose message mentions `needle`. The
/// refusal taxonomy promises DISTINCT messages, so each test pins the
/// phrase that makes its failure actionable.
void expect_refusal(const std::function<void()>& fn,
                    const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected an error mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error did not mention '" << needle << "'; got: " << e.what();
  }
}

/// Single-process reference run with an event trace: what every sharded
/// configuration must reproduce byte-for-byte.
struct Reference {
  CampaignResult result;
  std::string jsonl;
  std::string csv;
};

std::string csv_bytes(const CampaignResult& r) {
  // The pid keeps test processes that ctest runs in parallel apart.
  static int n = 0;
  const std::string path = "/tmp/pfi_shard_csv_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(n++);
  write_campaign_csv(path, {{"tiny", r}});
  std::string text = util::read_file(path);
  std::remove(path.c_str());
  return text;
}

Reference uniform_reference(std::int64_t threads = 1) {
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  trace::TraceSink sink(false);
  CampaignConfig cfg = uniform_config(threads);
  cfg.trace = &sink;
  Reference ref;
  ref.result = run_classification_campaign(fi, fx.ds, cfg);
  ref.jsonl = trace::trace_to_jsonl(sink.take_events());
  ref.csv = csv_bytes(ref.result);
  return ref;
}

// -------------------------------------------------- paths and manifest ----

TEST(ShardPathsTest, FilesAreDistinctAndNameIndexAndCount) {
  const ShardPaths p = shard_paths("/tmp/dir", 2, 7);
  EXPECT_NE(p.checkpoint, p.log);
  EXPECT_NE(p.log, p.manifest);
  for (const std::string& f : {p.checkpoint, p.log, p.manifest}) {
    EXPECT_EQ(f.find("/tmp/dir/"), 0u) << f;
    EXPECT_NE(f.find('2'), std::string::npos) << f;
    EXPECT_NE(f.find('7'), std::string::npos) << f;
  }
}

TEST(ShardManifestTest, UniformJsonRoundTrip) {
  ShardManifest m;
  m.kind = "classification";
  m.fingerprint = 0xdeadbeefcafef00dull;
  m.shards = 7;
  m.shard_index = 3;
  m.records = 41;
  m.horizon = 96;
  m.log_bytes = 12345;
  m.log_digest = 0x123456789abcdef0ull;
  m.done = 1;
  m.record_events = true;
  m.log = "shard \"quoted\".log";  // name survives JSON escaping
  m.trials_target = 500;
  m.attempt_cap = 10'500;
  m.max_yield = 4;

  const ShardManifest r = shard_manifest_from_json(shard_manifest_to_json(m));
  EXPECT_EQ(r.version, kShardManifestVersion);
  EXPECT_EQ(r.kind, m.kind);
  EXPECT_EQ(r.fingerprint, m.fingerprint);
  EXPECT_EQ(r.shards, m.shards);
  EXPECT_EQ(r.shard_index, m.shard_index);
  EXPECT_EQ(r.records, m.records);
  EXPECT_EQ(r.horizon, m.horizon);
  EXPECT_EQ(r.log_bytes, m.log_bytes);
  EXPECT_EQ(r.log_digest, m.log_digest);
  EXPECT_EQ(r.done, m.done);
  EXPECT_EQ(r.record_events, m.record_events);
  EXPECT_EQ(r.log, m.log);
  EXPECT_EQ(r.trials_target, m.trials_target);
  EXPECT_EQ(r.attempt_cap, m.attempt_cap);
  EXPECT_EQ(r.max_yield, m.max_yield);
  EXPECT_TRUE(r.strata.empty());
}

TEST(ShardManifestTest, StratifiedJsonRoundTrip) {
  ShardManifest m;
  m.kind = "stratified";
  m.fingerprint = 99;
  m.shards = 2;
  m.shard_index = 1;
  m.done = 0;
  m.log = "s.log";
  m.trials_budget = 64;
  m.max_yield = 4;
  m.strata = {
      {.layer = 0, .bit_class = 0, .bit_lo = 31, .bit_hi = 31, .weight = 0.5},
      {.layer = 2, .bit_class = 1, .bit_lo = 23, .bit_hi = 30,
       .weight = 0.25}};
  m.stratum_caps.assign(m.strata.size(), 5);
  m.stratum_attempt_caps.assign(m.strata.size(), 5'100);

  const ShardManifest r = shard_manifest_from_json(shard_manifest_to_json(m));
  EXPECT_EQ(r.kind, "stratified");
  EXPECT_EQ(r.trials_budget, m.trials_budget);
  ASSERT_EQ(r.strata.size(), m.strata.size());
  for (std::size_t s = 0; s < m.strata.size(); ++s) {
    EXPECT_EQ(r.strata[s].layer, m.strata[s].layer);
    EXPECT_EQ(r.strata[s].bit_class, m.strata[s].bit_class);
    EXPECT_EQ(r.strata[s].bit_lo, m.strata[s].bit_lo);
    EXPECT_EQ(r.strata[s].bit_hi, m.strata[s].bit_hi);
    // Weights round-trip through hex bit patterns, so equality is exact.
    EXPECT_EQ(r.strata[s].weight, m.strata[s].weight);
  }
  EXPECT_EQ(r.stratum_caps, m.stratum_caps);
  EXPECT_EQ(r.stratum_attempt_caps, m.stratum_attempt_caps);
}

TEST(ShardManifestTest, RejectsUnsupportedVersion) {
  ShardManifest m;
  m.version = kShardManifestVersion + 1;
  m.kind = "classification";
  m.log = "x.log";
  expect_refusal([&] { shard_manifest_from_json(shard_manifest_to_json(m)); },
                 "unsupported shard manifest version");
}

TEST(ShardManifestTest, RejectsMalformedJson) {
  EXPECT_THROW(shard_manifest_from_json("{\"version\":1"), Error);
  EXPECT_THROW(shard_manifest_from_json("not json at all"), Error);
  // One edit away from a stratified manifest, each of these used to read
  // as a different one: bit_class 2^32 + 1 as 1, a 17-digit weight without
  // its top digit, and "00" as 0.
  ShardManifest m;
  m.kind = "stratified";
  m.log = "s.log";
  m.strata = {{.layer = 0, .bit_class = 1, .bit_lo = 23, .bit_hi = 30,
               .weight = 0.25}};
  m.stratum_caps = {5};
  m.stratum_attempt_caps = {5'100};
  const std::string good = shard_manifest_to_json(m);
  ASSERT_NO_THROW(shard_manifest_from_json(good));
  const auto edit = [&](const std::string& from, const std::string& to) {
    std::string out = good;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return out.replace(at, from.size(), to);
  };
  EXPECT_THROW(shard_manifest_from_json(edit("[0,1,", "[0,4294967297,")),
               Error);
  EXPECT_THROW(shard_manifest_from_json(
                   edit("\"0x3fd0000000000000\"", "\"0x13fd0000000000000\"")),
               Error);
  EXPECT_THROW(
      shard_manifest_from_json(edit("\"records\":0", "\"records\":00")),
      Error);
  // A kind no writer produces is refused by the reader, naming the field.
  expect_refusal(
      [&] {
        shard_manifest_from_json(
            edit("\"kind\":\"stratified\"", "\"kind\":\"bogus\""));
      },
      "'kind' is 'bogus'");
}

/// A valid uniform manifest whose `key` value is replaced verbatim.
std::string manifest_with(const std::string& key, const std::string& value) {
  ShardManifest m;
  m.kind = "classification";
  m.log = "x.log";
  const std::string text = shard_manifest_to_json(m);
  const std::string k = "\"" + key + "\":";
  const std::size_t at = text.find(k) + k.size();
  return text.substr(0, at) + value + text.substr(text.find(',', at));
}

TEST(ShardManifestTest, RejectsOverflowingNumbersNamingTheField) {
  // Out-of-range values must be refused, never wrapped: 2^64 + 1 would
  // otherwise read back as shards=1, a plausible and wrong shard count.
  expect_refusal(
      [] {
        shard_manifest_from_json(
            manifest_with("records", "123456789012345678901"));
      },
      "'records' overflows");
  expect_refusal(
      [] {
        shard_manifest_from_json(
            manifest_with("shards", "18446744073709551617"));
      },
      "'shards' overflows");
  // A shard count or index no writer can produce (kMaxShards bounds them
  // all) is refused before the merge sizes anything from it.
  for (const char* bad : {"-1", "0", "4097", "9000000000000000000"}) {
    expect_refusal(
        [&] { shard_manifest_from_json(manifest_with("shards", bad)); },
        "'shards' overflows [1, 4096]");
  }
  for (const char* bad : {"-1", "4096"}) {
    expect_refusal(
        [&] { shard_manifest_from_json(manifest_with("shard_index", bad)); },
        "'shard_index' overflows [0, 4095]");
  }
  expect_refusal(
      [] {
        shard_manifest_from_json(
            manifest_with("horizon", "-9223372036854775809"));
      },
      "'horizon' overflows");
  expect_refusal(
      [] {
        shard_manifest_from_json(
            manifest_with("attempt_cap", "9223372036854775808"));
      },
      "'attempt_cap' overflows");
}

TEST(ShardManifestTest, AcceptsTheExactIntegerExtremes) {
  EXPECT_EQ(shard_manifest_from_json(
                manifest_with("records", "18446744073709551615"))
                .records,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(shard_manifest_from_json(
                manifest_with("horizon", "-9223372036854775808"))
                .horizon,
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(shard_manifest_from_json(
                manifest_with("attempt_cap", "9223372036854775807"))
                .attempt_cap,
            std::numeric_limits<std::int64_t>::max());
}

// ------------------------------------------------ uniform equivalence ----

TEST(ShardEquivalence, UniformMergedMatchesSingleProcessAtAnyShardCount) {
  const Reference ref = uniform_reference();
  for (const std::int64_t shards : {1, 2, 3, 7}) {
    for (const std::int64_t threads : {1, 4}) {
      const TinyFixture& fx = tiny();
      FaultInjector fi(fx.model, tiny_fi_config());
      ShardDir dir("/tmp/pfi_shard_u" + std::to_string(shards) + "_t" +
                   std::to_string(threads));
      trace::TraceSink sink(false);
      const CampaignResult merged = run_sharded_classification(
          fi, fx.ds, uniform_config(threads), shards, dir.path, &sink);
      EXPECT_TRUE(same_bits(merged, ref.result))
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(trace::trace_to_jsonl(sink.take_events()), ref.jsonl)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(csv_bytes(merged), ref.csv)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ShardEquivalence, UniformMatchesWithPrefixCacheOff) {
  // The cache is a pure optimization; merged bytes must not depend on it.
  const Reference ref = uniform_reference();
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config(/*prefix_cache=*/false));
  ShardDir dir("/tmp/pfi_shard_u_nocache");
  trace::TraceSink sink(false);
  const CampaignResult merged = run_sharded_classification(
      fi, fx.ds, uniform_config(), 3, dir.path, &sink);
  EXPECT_TRUE(same_bits(merged, ref.result));
  EXPECT_EQ(trace::trace_to_jsonl(sink.take_events()), ref.jsonl);
}

TEST(ShardEquivalence, NativeInt8MergedMatchesSingleProcessAcrossCaches) {
  // Native-dtype campaigns inherit the full shard contract: merged counts,
  // trace JSONL, and CSV equal the single-process native run for any shard
  // count, with the prefix cache on or off. The reference events must carry
  // the deployed representation, not fp32.
  const TinyFixture& fx = tiny();
  Reference ref;
  {
    FaultInjector fi(fx.model, tiny_native_fi_config());
    trace::TraceSink sink(false);
    CampaignConfig cfg = uniform_config();
    cfg.trace = &sink;
    ref.result = run_classification_campaign(fi, fx.ds, cfg);
    const auto events = sink.take_events();
    ASSERT_FALSE(events.empty());
    for (const auto& ev : events) EXPECT_EQ(ev.dtype, DType::kInt8);
    ref.jsonl = trace::trace_to_jsonl(events);
    ref.csv = csv_bytes(ref.result);
  }

  for (const bool cache : {true, false}) {
    for (const std::int64_t shards : {1, 3}) {
      FaultInjector fi(fx.model, tiny_native_fi_config(cache));
      ShardDir dir("/tmp/pfi_shard_n" + std::to_string(shards) +
                   (cache ? "_c1" : "_c0"));
      trace::TraceSink sink(false);
      const CampaignResult merged = run_sharded_classification(
          fi, fx.ds, uniform_config(), shards, dir.path, &sink);
      const std::string tag = "shards=" + std::to_string(shards) +
                              " cache=" + (cache ? "on" : "off");
      EXPECT_TRUE(same_bits(merged, ref.result)) << tag;
      EXPECT_EQ(trace::trace_to_jsonl(sink.take_events()), ref.jsonl) << tag;
      EXPECT_EQ(csv_bytes(merged), ref.csv) << tag;
    }
  }
}

TEST(ShardEquivalence, UniformCountsOnlyMergeNeedsNoEvents) {
  // Without a merge sink, shards may skip event recording entirely.
  const Reference ref = uniform_reference();
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir dir("/tmp/pfi_shard_u_noevents");
  const CampaignResult merged =
      run_sharded_classification(fi, fx.ds, uniform_config(), 2, dir.path);
  EXPECT_TRUE(same_bits(merged, ref.result));
}

TEST(ShardEquivalence, UniformAttemptCapGivesUpIdentically) {
  // A cap too small for the trial target: the single-process engine folds
  // cap attempts and returns a partial result with gave_up set. The merge
  // must reproduce that, not throw ShardHorizonExhausted.
  const TinyFixture& fx = tiny();
  CampaignConfig cfg = uniform_config(1, /*trials=*/1000);
  cfg.attempt_cap = 4;
  CampaignResult single;
  {
    FaultInjector fi(fx.model, tiny_fi_config());
    single = run_classification_campaign(fi, fx.ds, cfg);
  }
  ASSERT_EQ(single.gave_up, 1u);

  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir dir("/tmp/pfi_shard_u_cap");
  const CampaignResult merged =
      run_sharded_classification(fi, fx.ds, cfg, 3, dir.path);
  EXPECT_TRUE(same_bits(merged, single));
}

// ------------------------------------------------ driver start horizon ----

/// The in-process driver's first horizon (below the attempt cap): the
/// fewest attempts that could reach the trial target.
std::int64_t start_horizon(const CampaignConfig& cfg) {
  const std::int64_t yield = cfg.batch_size * cfg.injections_per_image;
  return (cfg.trials + yield - 1) / yield;
}

/// Attempts the unsharded fold consumed. With batch_size 1 every attempt
/// either skips its one image or yields injections_per_image trials (the
/// last one possibly fewer).
std::uint64_t serial_attempts(const CampaignResult& r,
                              const CampaignConfig& cfg) {
  const auto per = static_cast<std::uint64_t>(cfg.injections_per_image);
  return r.skipped + (r.trials + per - 1) / per;
}

/// Run the driver at 1, 2, 3 and 7 shards against the unsharded run of the
/// same model and config: merged counts, CSV and trace JSONL must match byte
/// for byte, and the shards together may record at most twice the attempts
/// the serial fold consumed. Returns the unsharded result and the smallest
/// final horizon any shard count ended at.
std::pair<CampaignResult, std::int64_t> expect_driver_matches_serial(
    const std::shared_ptr<nn::Sequential>& model, const CampaignConfig& cfg,
    const std::string& name) {
  const TinyFixture& fx = tiny();
  Reference ref;
  {
    FaultInjector fi(model, tiny_fi_config());
    trace::TraceSink sink(false);
    CampaignConfig rcfg = cfg;
    rcfg.trace = &sink;
    ref.result = run_classification_campaign(fi, fx.ds, rcfg);
    ref.jsonl = trace::trace_to_jsonl(sink.take_events());
    ref.csv = csv_bytes(ref.result);
  }
  const std::uint64_t attempts = serial_attempts(ref.result, cfg);
  std::int64_t min_horizon = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t shards : {1, 2, 3, 7}) {
    const std::string tag = name + " shards=" + std::to_string(shards);
    FaultInjector fi(model, tiny_fi_config());
    ShardDir dir("/tmp/pfi_shard_h_" + name + std::to_string(shards));
    trace::TraceSink sink(false);
    const CampaignResult merged =
        run_sharded_classification(fi, fx.ds, cfg, shards, dir.path, &sink);
    EXPECT_TRUE(same_bits(merged, ref.result)) << tag;
    EXPECT_EQ(merged.gave_up, ref.result.gave_up) << tag;
    EXPECT_EQ(trace::trace_to_jsonl(sink.take_events()), ref.jsonl) << tag;
    EXPECT_EQ(csv_bytes(merged), ref.csv) << tag;

    std::uint64_t records = 0;
    for (const std::string& path : dir.manifests(shards)) {
      const ShardManifest m = read_shard_manifest(path);
      records += m.records;
      min_horizon = std::min(min_horizon, m.horizon);
    }
    EXPECT_LE(records, 2 * attempts) << tag << " serial attempts=" << attempts;
  }
  return {ref.result, min_horizon};
}

TEST(ShardStartHorizon, WellClassifiedCampaignNeedsOneRound) {
  // Every golden run is correct, so the minimal horizon is exactly enough.
  const CampaignConfig cfg = uniform_config();
  const auto [ref, horizon] =
      expect_driver_matches_serial(tiny().model, cfg, "ok");
  EXPECT_EQ(ref.skipped, 0u);
  EXPECT_EQ(horizon, start_horizon(cfg));
}

TEST(ShardStartHorizon, MisclassifyingModelExtendsAndStillMatches) {
  // An untrained model gets some golden runs wrong: those attempts yield
  // no trials, the start horizon runs dry, and the driver must double and
  // resume — every shard count still merges to the serial bytes.
  auto untrained = tiny_model();
  untrained->eval();
  const CampaignConfig cfg = uniform_config();
  const auto [ref, horizon] =
      expect_driver_matches_serial(untrained, cfg, "miss");
  EXPECT_GT(ref.skipped, 0u);
  EXPECT_EQ(ref.gave_up, 0u);
  EXPECT_GT(horizon, start_horizon(cfg))
      << "the start horizon was never exhausted — no multi-round coverage";
}

TEST(ShardStartHorizon, AttemptCapBelowStartHorizonGivesUpIdentically) {
  CampaignConfig cfg = uniform_config(1, /*trials=*/1000);
  cfg.attempt_cap = 5;
  ASSERT_LT(cfg.attempt_cap, start_horizon(cfg));
  auto untrained = tiny_model();
  untrained->eval();
  const auto [ref, horizon] =
      expect_driver_matches_serial(untrained, cfg, "cap");
  EXPECT_EQ(ref.gave_up, 1u);
  EXPECT_EQ(horizon, cfg.attempt_cap);
}

// ---------------------------------------------- stratified equivalence ----

TEST(ShardEquivalence, StratifiedMergedMatchesSingleProcessAtAnyShardCount) {
  const TinyFixture& fx = tiny();
  StratifiedResult ref;
  std::string ref_jsonl;
  {
    FaultInjector fi(fx.model, tiny_fi_config());
    trace::TraceSink sink(false);
    StratifiedCampaignConfig scfg = stratified_config();
    scfg.base.trace = &sink;
    ref = run_stratified_campaign(fi, fx.ds, scfg);
    ref_jsonl = trace::trace_to_jsonl(sink.take_events());
  }
  std::string ref_csv;
  {
    static const std::string path = "/tmp/pfi_shard_sref.csv";
    write_stratified_csv(path, {{"tiny", ref}});
    ref_csv = util::read_file(path);
    std::remove(path.c_str());
  }

  for (const std::int64_t shards : {1, 2, 3, 7}) {
    for (const std::int64_t threads : {1, 4}) {
      FaultInjector fi(fx.model, tiny_fi_config());
      ShardDir dir("/tmp/pfi_shard_s" + std::to_string(shards) + "_t" +
                   std::to_string(threads));
      trace::TraceSink sink(false);
      const StratifiedResult merged = run_sharded_stratified(
          fi, fx.ds, stratified_config(threads), shards, dir.path, &sink);

      const std::string tag = "shards=" + std::to_string(shards) +
                              " threads=" + std::to_string(threads);
      EXPECT_TRUE(same_bits(merged.totals, ref.totals)) << tag;
      EXPECT_EQ(merged.pruned, ref.pruned) << tag;
      EXPECT_EQ(merged.golden_passes, ref.golden_passes) << tag;
      EXPECT_EQ(merged.faulty_passes, ref.faulty_passes) << tag;
      ASSERT_EQ(merged.strata.size(), ref.strata.size()) << tag;
      for (std::size_t s = 0; s < ref.strata.size(); ++s) {
        EXPECT_TRUE(same_bits(merged.strata[s].counts, ref.strata[s].counts))
            << tag << " stratum " << s;
        EXPECT_EQ(merged.strata[s].pruned, ref.strata[s].pruned)
            << tag << " stratum " << s;
        EXPECT_EQ(merged.strata[s].executed, ref.strata[s].executed)
            << tag << " stratum " << s;
        EXPECT_EQ(merged.strata[s].attempts, ref.strata[s].attempts)
            << tag << " stratum " << s;
        EXPECT_EQ(merged.strata[s].stopped_early, ref.strata[s].stopped_early)
            << tag << " stratum " << s;
        EXPECT_EQ(merged.strata[s].gave_up, ref.strata[s].gave_up)
            << tag << " stratum " << s;
      }
      EXPECT_EQ(trace::trace_to_jsonl(sink.take_events()), ref_jsonl) << tag;

      const std::string path = "/tmp/pfi_shard_smerged.csv";
      write_stratified_csv(path, {{"tiny", merged}});
      EXPECT_EQ(util::read_file(path), ref_csv) << tag;
      std::remove(path.c_str());
    }
  }
}

// ----------------------------------------------------- crash recovery ----

TEST(ShardCrash, KilledShardResumesToIdenticalMerge) {
  const Reference ref = uniform_reference();
  const TinyFixture& fx = tiny();
  const std::int64_t S = 2;
  ShardDir dir("/tmp/pfi_shard_crash");
  CampaignConfig cfg = uniform_config();

  // Shard 1 completes; shard 0 "dies" right after its first durable commit
  // (exactly the on-disk state of a kill -9 mid-run).
  {
    FaultInjector fi(fx.model, tiny_fi_config());
    ShardPlan p1{.shards = S, .shard_index = 1, .record_events = true};
    EXPECT_EQ(run_classification_shard(fi, fx.ds, cfg, p1, dir.path)
                  .manifest.done,
              1u);
    ShardPlan p0{.shards = S, .shard_index = 0, .record_events = true,
                 .fail_after_commits = 1};
    EXPECT_THROW(run_classification_shard(fi, fx.ds, cfg, p0, dir.path),
                 CampaignAborted);
  }

  // Restart shard 0: it resumes from its checkpoint and finishes.
  {
    FaultInjector fi(fx.model, tiny_fi_config());
    ShardPlan p0{.shards = S, .shard_index = 0, .record_events = true};
    EXPECT_EQ(run_classification_shard(fi, fx.ds, cfg, p0, dir.path)
                  .manifest.done,
              1u);
  }

  trace::TraceSink sink(false);
  const ShardMerge merged = merge_shards(dir.manifests(S), &sink);
  EXPECT_EQ(merged.kind, "classification");
  EXPECT_TRUE(same_bits(merged.classification, ref.result));
  EXPECT_EQ(trace::trace_to_jsonl(sink.take_events()), ref.jsonl);
}

TEST(ShardCrash, TornLogTailIsIgnored) {
  const Reference ref = uniform_reference();
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir dir("/tmp/pfi_shard_torn");
  CampaignConfig cfg = uniform_config();
  for (std::int64_t k = 0; k < 2; ++k) {
    ShardPlan p{.shards = 2, .shard_index = k, .record_events = true};
    run_classification_shard(fi, fx.ds, cfg, p, dir.path);
  }
  // A kill mid-append leaves a torn, non-JSON tail past the committed size;
  // the digest covers only the committed prefix, so the merge ignores it.
  util::append_file_sync(shard_paths(dir.path, 0, 2).log, "{\"rec\":1,\"at");
  const ShardMerge merged = merge_shards(dir.manifests(2));
  EXPECT_TRUE(same_bits(merged.classification, ref.result));
}

TEST(ShardCrash, HorizonExhaustionResumesAndMergesIdentically) {
  // A deliberately tiny horizon: 4 attempts cannot yield 24 trials, so the
  // merge demands a resume round — after which the bytes match anyway.
  const Reference ref = uniform_reference();
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir dir("/tmp/pfi_shard_horizon");
  CampaignConfig cfg = uniform_config();
  const auto run_all = [&](std::int64_t horizon) {
    for (std::int64_t k = 0; k < 2; ++k) {
      ShardPlan p{.shards = 2, .shard_index = k, .horizon = horizon,
                  .record_events = true};
      run_classification_shard(fi, fx.ds, cfg, p, dir.path);
    }
  };
  run_all(4);
  expect_refusal([&] { merge_shards(dir.manifests(2)); },
                 "resume the shards with a larger horizon");
  EXPECT_THROW(merge_shards(dir.manifests(2)), ShardHorizonExhausted);

  run_all(16);  // same checkpoints — only the new attempts are computed
  trace::TraceSink sink(false);
  const ShardMerge merged = merge_shards(dir.manifests(2), &sink);
  EXPECT_TRUE(same_bits(merged.classification, ref.result));
  EXPECT_EQ(trace::trace_to_jsonl(sink.take_events()), ref.jsonl);
}

// ----------------------------------------------------- merge refusals ----

/// A complete, healthy 2-shard uniform campaign to perturb.
struct HealthySet {
  explicit HealthySet(const std::string& dir_path) : dir(dir_path) {
    const TinyFixture& fx = tiny();
    FaultInjector fi(fx.model, tiny_fi_config());
    const CampaignConfig cfg = uniform_config();
    for (std::int64_t k = 0; k < 2; ++k) {
      ShardPlan p{.shards = 2, .shard_index = k, .record_events = true};
      run_classification_shard(fi, fx.ds, cfg, p, dir.path);
    }
  }
  ShardDir dir;
};

TEST(ShardMergeRefusal, EmptyManifestSet) {
  expect_refusal([] { merge_shards({}); }, "at least one shard manifest");
}

TEST(ShardMergeRefusal, SinkMustNotCaptureLogits) {
  HealthySet set("/tmp/pfi_shard_ref_logits");
  trace::TraceSink sink(true);
  expect_refusal([&] { merge_shards(set.dir.manifests(2), &sink); },
                 "must not capture logits");
}

TEST(ShardMergeRefusal, FingerprintMismatch) {
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir a("/tmp/pfi_shard_ref_fpa");
  ShardDir b("/tmp/pfi_shard_ref_fpb");
  CampaignConfig cfg = uniform_config();
  run_classification_shard(fi, fx.ds, cfg,
                           ShardPlan{.shards = 2, .shard_index = 0}, a.path);
  cfg.seed += 1;  // a different campaign entirely
  run_classification_shard(fi, fx.ds, cfg,
                           ShardPlan{.shards = 2, .shard_index = 1}, b.path);
  expect_refusal(
      [&] {
        merge_shards({shard_paths(a.path, 0, 2).manifest,
                      shard_paths(b.path, 1, 2).manifest});
      },
      "disagree on the campaign fingerprint");
}

TEST(ShardMergeRefusal, KindMix) {
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir a("/tmp/pfi_shard_ref_kinda");
  ShardDir b("/tmp/pfi_shard_ref_kindb");
  run_classification_shard(fi, fx.ds, uniform_config(),
                           ShardPlan{.shards = 2, .shard_index = 0}, a.path);
  run_stratified_shard(fi, fx.ds, stratified_config(),
                       ShardPlan{.shards = 2, .shard_index = 1}, b.path);
  expect_refusal(
      [&] {
        merge_shards({shard_paths(a.path, 0, 2).manifest,
                      shard_paths(b.path, 1, 2).manifest});
      },
      "mix campaign kinds");
}

TEST(ShardMergeRefusal, ShardCountMismatch) {
  HealthySet set("/tmp/pfi_shard_ref_count");
  const std::string path = shard_paths(set.dir.path, 1, 2).manifest;
  ShardManifest m = read_shard_manifest(path);
  m.shards = 3;
  util::atomic_write_file(path, shard_manifest_to_json(m));
  expect_refusal([&] { merge_shards(set.dir.manifests(2)); },
                 "disagree on the shard count");
}

TEST(ShardMergeRefusal, HorizonMismatch) {
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir dir("/tmp/pfi_shard_ref_horizon");
  const CampaignConfig cfg = uniform_config();
  run_classification_shard(
      fi, fx.ds, cfg,
      ShardPlan{.shards = 2, .shard_index = 0, .horizon = 64}, dir.path);
  run_classification_shard(
      fi, fx.ds, cfg,
      ShardPlan{.shards = 2, .shard_index = 1, .horizon = 128}, dir.path);
  expect_refusal([&] { merge_shards(dir.manifests(2)); },
                 "disagree on the attempt horizon");
}

TEST(ShardMergeRefusal, OutOfRangeShardIndex) {
  HealthySet set("/tmp/pfi_shard_ref_range");
  const std::string path = shard_paths(set.dir.path, 1, 2).manifest;
  ShardManifest m = read_shard_manifest(path);
  m.shard_index = 5;
  util::atomic_write_file(path, shard_manifest_to_json(m));
  expect_refusal(
      [&] {
        merge_shards({shard_paths(set.dir.path, 0, 2).manifest, path});
      },
      "is out of range");
}

TEST(ShardMergeRefusal, DuplicateShardIndex) {
  HealthySet set("/tmp/pfi_shard_ref_dup");
  const std::string m0 = shard_paths(set.dir.path, 0, 2).manifest;
  expect_refusal([&] { merge_shards({m0, m0}); }, "duplicate shard index 0");
}

TEST(ShardMergeRefusal, MissingShard) {
  HealthySet set("/tmp/pfi_shard_ref_missing");
  expect_refusal(
      [&] { merge_shards({shard_paths(set.dir.path, 0, 2).manifest}); },
      "missing shard 1 of 2");
}

TEST(ShardMergeRefusal, UnfinishedShard) {
  const TinyFixture& fx = tiny();
  ShardDir dir("/tmp/pfi_shard_ref_undone");
  const CampaignConfig cfg = uniform_config();
  {
    FaultInjector fi(fx.model, tiny_fi_config());
    run_classification_shard(fi, fx.ds, cfg,
                             ShardPlan{.shards = 2, .shard_index = 1},
                             dir.path);
    // Crash after the SECOND durable commit: the manifest on disk is wave
    // one's, honestly reporting done=0.
    ShardPlan p0{.shards = 2, .shard_index = 0, .fail_after_commits = 2};
    EXPECT_THROW(run_classification_shard(fi, fx.ds, cfg, p0, dir.path),
                 CampaignAborted);
  }
  ASSERT_EQ(read_shard_manifest(shard_paths(dir.path, 0, 2).manifest).done,
            0u);
  expect_refusal([&] { merge_shards(dir.manifests(2)); },
                 "has not finished");
}

TEST(ShardMergeRefusal, TruncatedLog) {
  HealthySet set("/tmp/pfi_shard_ref_trunc");
  const std::string log = shard_paths(set.dir.path, 0, 2).log;
  std::string text = util::read_file(log);
  ASSERT_GT(text.size(), 10u);
  text.resize(text.size() - 10);
  util::atomic_write_file(log, text);
  expect_refusal([&] { merge_shards(set.dir.manifests(2)); },
                 "is truncated");
}

TEST(ShardMergeRefusal, CorruptedLog) {
  HealthySet set("/tmp/pfi_shard_ref_corrupt");
  const std::string log = shard_paths(set.dir.path, 0, 2).log;
  std::string text = util::read_file(log);
  ASSERT_GT(text.size(), 20u);
  text[text.size() / 2] ^= 1;  // same length, different bytes
  util::atomic_write_file(log, text);
  expect_refusal([&] { merge_shards(set.dir.manifests(2)); },
                 "log digest mismatch");
}

TEST(ShardMergeRefusal, TraceRequestedButEventsNotRecorded) {
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir dir("/tmp/pfi_shard_ref_noev");
  const CampaignConfig cfg = uniform_config();
  for (std::int64_t k = 0; k < 2; ++k) {
    ShardPlan p{.shards = 2, .shard_index = k};  // record_events = false
    run_classification_shard(fi, fx.ds, cfg, p, dir.path);
  }
  trace::TraceSink sink(false);
  expect_refusal([&] { merge_shards(dir.manifests(2), &sink); },
                 "recorded no events");
}

// ------------------------------------------------------------ fuzzing ----

// JsonFuzz for shard logs: re-commit a mutant of shard 0's log — with the
// manifest's log_bytes and log_digest recomputed, so the parser sees the
// mutant rather than the digest check — and merge. Each mutant must be
// refused with pfi::Error or merge; nothing else may escape.
TEST(JsonFuzz, ShardLogsMergeOrAreRefused) {
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir uniform("/tmp/pfi_shard_fuzz_u");
  ShardDir stratified("/tmp/pfi_shard_fuzz_s");
  for (std::int64_t k = 0; k < 2; ++k) {
    const ShardPlan plan{.shards = 2, .shard_index = k, .record_events = true};
    run_classification_shard(fi, fx.ds, uniform_config(), plan, uniform.path);
    run_stratified_shard(fi, fx.ds, stratified_config(), plan,
                         stratified.path);
  }
  const auto write = [](const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  };
  const std::vector<std::string> pool = {
      util::read_file(shard_paths(uniform.path, 0, 2).log),
      util::read_file(shard_paths(stratified.path, 0, 2).log)};
  std::uint64_t seed = 0;
  for (const ShardDir* dir : {&uniform, &stratified}) {
    const ShardPaths p = shard_paths(dir->path, 0, 2);
    const std::string log = util::read_file(p.log);
    ShardManifest m = read_shard_manifest(p.manifest);
    ASSERT_NO_THROW(merge_shards(dir->manifests(2)));
    Rng rng(++seed);
    int merged = 0;
    int refused = 0;
    for (int i = 0; i < 1'000; ++i) {
      const std::string mutant = fuzz::mutate(log, pool, rng);
      write(p.log, mutant);
      m.log_bytes = mutant.size();
      m.log_digest = util::fnv1a(mutant);
      write(p.manifest, shard_manifest_to_json(m));
      trace::TraceSink sink(false);
      try {
        merge_shards(dir->manifests(2), &sink);
        ++merged;
      } catch (const Error&) {
        ++refused;
      } catch (const std::exception& e) {
        FAIL() << m.kind << " log mutant " << i << " threw "
               << typeid(e).name() << " (" << e.what()
               << ") instead of pfi::Error:\n"
               << mutant;
      }
    }
    EXPECT_GT(merged, 0) << m.kind;
    EXPECT_GT(refused, 0) << m.kind;
  }
}

// ------------------------------------------------------ shard refusals ----

TEST(ShardRun, RefusesExternalCheckpoint) {
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir dir("/tmp/pfi_shard_ref_ckpt");
  CampaignCheckpointer ckpt("/tmp/pfi_shard_ref_ckpt_external.json");
  CampaignConfig cfg = uniform_config();
  cfg.checkpoint = &ckpt;
  expect_refusal(
      [&] {
        run_classification_shard(fi, fx.ds, cfg,
                                 ShardPlan{.shards = 2, .shard_index = 0},
                                 dir.path);
      },
      "manage their own checkpoint");
  std::remove("/tmp/pfi_shard_ref_ckpt_external.json");
}

TEST(ShardRun, RefusesCiTargetStratified) {
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir dir("/tmp/pfi_shard_ref_ci");
  StratifiedCampaignConfig scfg = stratified_config();
  scfg.target_half_width = 0.05;
  expect_refusal(
      [&] {
        run_stratified_shard(fi, fx.ds, scfg,
                             ShardPlan{.shards = 2, .shard_index = 0},
                             dir.path);
      },
      "cannot be sharded");
}

TEST(ShardRun, RefusesInvalidPlan) {
  const TinyFixture& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  ShardDir dir("/tmp/pfi_shard_ref_plan");
  EXPECT_THROW(run_classification_shard(
                   fi, fx.ds, uniform_config(),
                   ShardPlan{.shards = 2, .shard_index = 2}, dir.path),
               Error);
  EXPECT_THROW(run_classification_shard(
                   fi, fx.ds, uniform_config(),
                   ShardPlan{.shards = 0, .shard_index = 0}, dir.path),
               Error);
  EXPECT_THROW(run_classification_shard(
                   fi, fx.ds, uniform_config(),
                   ShardPlan{.shards = 4097, .shard_index = 0}, dir.path),
               Error);
}

}  // namespace
}  // namespace pfi::core
