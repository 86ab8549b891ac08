// Tests for golden-prefix activation reuse (core/prefix_cache.hpp): leaf
// execution-order recording, cached-replay bit-identity on branching
// topologies (DenseNet / GoogLeNet / PreResNet), resume AT the injection
// site (the injected layer's snapshot is served with its faults applied on
// a clone — including the INT8 quantized domain), multi-injection resume
// from the EARLIEST injected layer, weight-fault prefixes, byte-budget
// exhaustion fallback, profiler auto-disable, strict env parsing, and the
// headline guarantee — campaign counts, CSV, trace JSONL, and checkpoints
// are byte-identical with the cache on or off, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fault_injector.hpp"
#include "core/perturbation_layer.hpp"
#include "core/prefix_cache.hpp"
#include "core/profile.hpp"
#include "core/report.hpp"
#include "models/zoo.hpp"
#include "util/env.hpp"
#include "util/fileio.hpp"

namespace pfi::core {
namespace {

using models::make_model;

FiConfig small_config() { return {.input_shape = {3, 32, 32}, .batch_size = 4}; }

Tensor small_input(std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::rand({4, 3, 32, 32}, rng, -1.0f, 1.0f);
}

/// Fresh injector over a zoo model built from a fixed weight seed, so two
/// calls produce bit-identical networks.
struct Rig {
  std::shared_ptr<nn::Module> model;
  std::unique_ptr<FaultInjector> fi;

  explicit Rig(const std::string& net, FiConfig cfg = small_config(),
               std::uint64_t weight_seed = 90) {
    Rng rng(weight_seed);
    model = make_model(net, {.num_classes = 10}, rng);
    model->eval();
    fi = std::make_unique<FaultInjector>(model, cfg);
  }
};

// -------------------------------------------------------------- recording ----

TEST(PrefixCache, RecordsLeafExecutionOrderForBranchingTopologies) {
  for (const std::string net : {"densenet", "googlenet", "preresnet110"}) {
    Rig rig(net);
    PrefixCache* cache = rig.fi->prefix_cache();
    ASSERT_NE(cache, nullptr) << net;
    EXPECT_FALSE(cache->recorded()) << net;

    const Tensor in = small_input(7);
    (void)rig.fi->forward(in, ForwardMode::kRecordGolden);
    EXPECT_TRUE(cache->recorded()) << net;
    EXPECT_GT(cache->num_events(), 0u) << net;
    EXPECT_GT(cache->snapshot_bytes(), 0u) << net;

    // Every instrumented conv executed and was indexed; indices are unique
    // per module (the FIRST execution) and inside the event list.
    std::vector<std::size_t> seen;
    for (std::int64_t l = 0; l < rig.fi->num_layers(); ++l) {
      const std::size_t idx =
          cache->first_execution_index(&rig.fi->layer(l));
      ASSERT_NE(idx, PrefixCache::kNoEvent) << net << " layer " << l;
      ASSERT_LT(idx, cache->num_events()) << net << " layer " << l;
      for (const std::size_t other : seen) EXPECT_NE(idx, other) << net;
      seen.push_back(idx);
    }
    EXPECT_EQ(cache->first_execution_index(rig.model.get()),
              PrefixCache::kNoEvent)
        << "a container is not a leaf event";
  }
}

TEST(PrefixCache, HooksAreLazyAndLeaveNoResidue) {
  Rig rig("squeezenet");
  nn::Module& first = rig.fi->layer(0);
  const std::size_t idle_hooks = first.forward_hook_count();

  const Tensor in = small_input(8);
  (void)rig.fi->forward(in, ForwardMode::kRecordGolden);
  // Record hooks are removed the moment the golden pass ends; a plain
  // forward afterwards pays nothing (the Fig. 3 idle-overhead property).
  EXPECT_EQ(first.forward_hook_count(), idle_hooks);

  rig.fi->declare_neuron_fault({.layer = 2, .c = 0, .h = 0, .w = 0},
                               constant_value(3.0f));
  (void)rig.fi->forward(in, ForwardMode::kReusePrefix);
  rig.fi->clear();
  EXPECT_EQ(first.forward_hook_count(), idle_hooks);
}

// ------------------------------------------------------- replay bit-identity ----

/// Golden-record, arm one deterministic fault mid-network, and check the
/// reuse pass is bit-identical to a full recompute of the same faulty
/// forward. constant_value keeps the injection itself deterministic so the
/// two passes are comparable.
TEST(PrefixReplay, CachedReplayBitIdenticalOnBranchingTopologies) {
  for (const std::string net : {"densenet", "googlenet", "preresnet110"}) {
    Rig rig(net);
    const Tensor in = small_input(11);
    (void)rig.fi->forward(in, ForwardMode::kRecordGolden);

    const std::int64_t mid = rig.fi->num_layers() / 2;
    rig.fi->declare_neuron_fault({.layer = mid, .c = 0, .h = 0, .w = 0},
                                 constant_value(1e4f));

    const PrefixCacheStats before = rig.fi->prefix_cache()->stats();
    const Tensor reused = rig.fi->forward(in, ForwardMode::kReusePrefix);
    const PrefixCacheStats after = rig.fi->prefix_cache()->stats();
    const Tensor recomputed = rig.fi->forward(in, ForwardMode::kPlain);
    rig.fi->clear();

    EXPECT_TRUE(allclose(reused, recomputed, 0.0f)) << net;
    EXPECT_EQ(after.reuse_passes, before.reuse_passes + 1) << net;
    const std::uint64_t reused_layers =
        after.layers_reused - before.layers_reused;
    // Reuse extends THROUGH the injected layer: its event is served as a
    // snapshot clone with the fault applied, so the prefix is one longer
    // than the events strictly before it.
    EXPECT_EQ(reused_layers,
              rig.fi->prefix_cache()->first_execution_index(
                  &rig.fi->layer(mid)) +
                  1)
        << net << ": events up to AND INCLUDING the injected layer replay";
    EXPECT_EQ(after.injection_site_serves, before.injection_site_serves + 1)
        << net;
    EXPECT_GT(reused_layers, 0u) << net;
  }
}

TEST(PrefixReplay, MultiInjectionResumesFromEarliestInjectedLayer) {
  Rig rig("densenet");
  const Tensor in = small_input(13);
  (void)rig.fi->forward(in, ForwardMode::kRecordGolden);
  PrefixCache* cache = rig.fi->prefix_cache();

  const std::int64_t lo = rig.fi->num_layers() / 3;
  const std::int64_t hi = (2 * rig.fi->num_layers()) / 3;
  ASSERT_NE(lo, hi);
  rig.fi->declare_neuron_fault({.layer = hi, .c = 0, .h = 0, .w = 0},
                               constant_value(50.0f));
  rig.fi->declare_neuron_fault({.layer = lo, .c = 0, .h = 1, .w = 1},
                               constant_value(-50.0f));

  // The EARLIEST injected layer is the resume site (served mutated); the
  // later one recomputes and its real hook applies the second fault.
  const std::size_t expected =
      std::min(cache->first_execution_index(&rig.fi->layer(lo)),
               cache->first_execution_index(&rig.fi->layer(hi))) +
      1;
  const PrefixCacheStats before = cache->stats();
  const Tensor reused = rig.fi->forward(in, ForwardMode::kReusePrefix);
  const std::uint64_t reused_layers =
      cache->stats().layers_reused - before.layers_reused;
  const Tensor recomputed = rig.fi->forward(in, ForwardMode::kPlain);
  rig.fi->clear();

  EXPECT_TRUE(allclose(reused, recomputed, 0.0f));
  EXPECT_EQ(reused_layers, expected)
      << "reuse must resume AT the EARLIEST injected layer";
}

/// The fig4 configuration end-to-end at the forward level: INT8 emulation +
/// random single-bit flips, where resume-at-injection must reproduce the
/// cache-off pass BIT-identically — same quantization params (recorded, not
/// recalibrated), same RNG draw order, same injection count.
TEST(PrefixReplay, Int8BitFlipResumeAtInjectionMatchesCacheOffBitExactly) {
  FiConfig cfg = small_config();
  cfg.dtype = DType::kInt8;
  Rig on("squeezenet", cfg);
  FiConfig off_cfg = cfg;
  off_cfg.prefix_cache = false;
  Rig off("squeezenet", off_cfg);
  ASSERT_EQ(off.fi->prefix_cache(), nullptr);

  const Tensor in = small_input(47);
  (void)on.fi->forward(in, ForwardMode::kRecordGolden);

  const std::int64_t n = on.fi->num_layers();
  for (std::int64_t trial = 0; trial < 10; ++trial) {
    // First three trials pin the layer-0 / mid / last boundaries (layer 0
    // was a guaranteed full recompute before resume-at-injection); the rest
    // sample neurons uniformly like the fig4 campaign does.
    NeuronLocation loc{.layer = trial < 3 ? (trial * (n - 1)) / 2 : 0,
                       .c = 0, .h = 0, .w = 0};
    if (trial >= 3) {
      Rng pick(static_cast<std::uint64_t>(100 + trial));
      loc = on.fi->random_neuron_location(pick);
    }
    on.fi->reseed(static_cast<std::uint64_t>(trial));
    off.fi->reseed(static_cast<std::uint64_t>(trial));
    on.fi->declare_neuron_fault(loc, single_bit_flip());
    off.fi->declare_neuron_fault(loc, single_bit_flip());
    const Tensor a = on.fi->forward(in, ForwardMode::kReusePrefix);
    const Tensor b = off.fi->forward(in, ForwardMode::kPlain);
    on.fi->clear();
    off.fi->clear();
    EXPECT_TRUE(allclose(a, b, 0.0f)) << "trial " << trial;
  }
  // Coarser scopes share the same application path; pin one fmap fault.
  on.fi->reseed(99);
  off.fi->reseed(99);
  on.fi->declare_fmap_fault(0, 0, kAllBatchElements, single_bit_flip());
  off.fi->declare_fmap_fault(0, 0, kAllBatchElements, single_bit_flip());
  const Tensor a = on.fi->forward(in, ForwardMode::kReusePrefix);
  const Tensor b = off.fi->forward(in, ForwardMode::kPlain);
  on.fi->clear();
  off.fi->clear();
  EXPECT_TRUE(allclose(a, b, 0.0f));

  const PrefixCacheStats& s = on.fi->prefix_cache()->stats();
  EXPECT_GT(s.injection_site_serves, 0u);
  EXPECT_EQ(s.fallback_passes, 0u)
      << "every neuron injection resumes at its site — even layer 0";
  EXPECT_EQ(on.fi->injections_performed(), off.fi->injections_performed());
}

TEST(PrefixReplay, WeightFaultReusesOnlyLayersStrictlyBeforePerturbedConv) {
  Rig rig("preresnet110");
  const Tensor in = small_input(17);
  (void)rig.fi->forward(in, ForwardMode::kRecordGolden);
  PrefixCache* cache = rig.fi->prefix_cache();

  const std::int64_t target = rig.fi->num_layers() / 2;
  rig.fi->declare_weight_fault(
      {.layer = target, .out_c = 0, .in_c = 0, .kh = 0, .kw = 0},
      constant_value(4.0f));

  const PrefixCacheStats before = cache->stats();
  const Tensor reused = rig.fi->forward(in, ForwardMode::kReusePrefix);
  const std::uint64_t reused_layers =
      cache->stats().layers_reused - before.layers_reused;
  const Tensor recomputed = rig.fi->forward(in, ForwardMode::kPlain);
  rig.fi->clear();

  EXPECT_TRUE(allclose(reused, recomputed, 0.0f));
  // The perturbed conv itself recomputes (its forward changed), so the
  // prefix is exactly the events before its first execution.
  EXPECT_EQ(reused_layers,
            cache->first_execution_index(&rig.fi->layer(target)));
  EXPECT_GT(reused_layers, 0u);
}

TEST(PrefixReplay, ForwardOutputsNeverAlias) {
  // The safety claim behind both the zero-copy snapshot hand-out and the
  // weight campaign dropping its golden .clone(): a later forward never
  // mutates an earlier forward's output storage.
  for (const bool cache_on : {true, false}) {
    FiConfig cfg = small_config();
    cfg.prefix_cache = cache_on;
    Rig rig("googlenet", cfg);
    const Tensor in = small_input(19);
    const Tensor golden = rig.fi->forward(
        in, cache_on ? ForwardMode::kRecordGolden : ForwardMode::kPlain);
    const Tensor pinned = golden.clone();

    rig.fi->declare_weight_fault({.layer = 1, .out_c = 0, .in_c = 0},
                                 constant_value(1e6f));
    (void)rig.fi->forward(
        in, cache_on ? ForwardMode::kReusePrefix : ForwardMode::kPlain);
    rig.fi->clear();
    EXPECT_TRUE(allclose(golden, pinned, 0.0f)) << "cache_on=" << cache_on;
  }
}

TEST(PrefixReplay, NonDeterministicLeafTruncatesThePrefix) {
  // An armed PerturbationLayer reports deterministic_forward() == false, so
  // its snapshot must never be replayed: the reusable prefix ends at its
  // execution slot even when the injected conv sits later.
  auto seq = std::make_shared<nn::Sequential>();
  Rng rng(23);
  seq->emplace<nn::Conv2d>(
      nn::Conv2dOptions{.in_channels = 3, .out_channels = 4, .padding = 1},
      rng);
  auto perturb = seq->emplace<PerturbationLayer>();
  seq->emplace<nn::Conv2d>(
      nn::Conv2dOptions{.in_channels = 4, .out_channels = 4, .padding = 1},
      rng);
  seq->eval();
  perturb->arm(0, 0, 0, 0, constant_value(2.5f));

  FaultInjector fi(seq, {.input_shape = {3, 8, 8}, .batch_size = 1});
  Rng in_rng(24);
  const Tensor in = Tensor::rand({1, 3, 8, 8}, in_rng, -1.0f, 1.0f);
  (void)fi.forward(in, ForwardMode::kRecordGolden);

  fi.declare_neuron_fault({.layer = 1, .c = 0, .h = 0, .w = 0},
                          constant_value(9.0f));
  const PrefixCacheStats before = fi.prefix_cache()->stats();
  const Tensor reused = fi.forward(in, ForwardMode::kReusePrefix);
  const std::uint64_t reused_layers =
      fi.prefix_cache()->stats().layers_reused - before.layers_reused;
  const Tensor recomputed = fi.forward(in, ForwardMode::kPlain);
  fi.clear();

  EXPECT_TRUE(allclose(reused, recomputed, 0.0f));
  // Without the barrier this would be 2 (conv0 + perturbation layer).
  EXPECT_EQ(reused_layers, 1u)
      << "only the conv before the non-deterministic leaf may replay";
}

// ------------------------------------------------------- budget exhaustion ----

TEST(PrefixCache, ZeroBudgetFallsBackToFullRecompute) {
  FiConfig cfg = small_config();
  cfg.prefix_cache_mb = 0;
  Rig rig("squeezenet", cfg);
  const Tensor in = small_input(29);
  (void)rig.fi->forward(in, ForwardMode::kRecordGolden);

  rig.fi->declare_neuron_fault({.layer = 3, .c = 0, .h = 0, .w = 0},
                               constant_value(7.0f));
  const Tensor reused = rig.fi->forward(in, ForwardMode::kReusePrefix);
  const Tensor recomputed = rig.fi->forward(in, ForwardMode::kPlain);
  rig.fi->clear();

  const PrefixCacheStats& s = rig.fi->prefix_cache()->stats();
  EXPECT_TRUE(allclose(reused, recomputed, 0.0f));
  EXPECT_EQ(s.layers_reused, 0u);
  EXPECT_GE(s.fallback_passes, 1u);
  EXPECT_GE(s.budget_truncations, 1u);
  EXPECT_EQ(rig.fi->prefix_cache()->snapshot_bytes(), 0u);

  // The budget comes from the config alone: 256 MB unless set, and a
  // negative or overflowing value is refused.
  EXPECT_EQ(Rig("squeezenet").fi->prefix_cache()->budget_bytes(),
            std::size_t{256} << 20);
  for (const std::int64_t bad : {std::int64_t{-1}, std::int64_t{1048577}}) {
    cfg.prefix_cache_mb = bad;
    EXPECT_THROW(Rig("squeezenet", cfg), Error) << bad;
  }
}

TEST(PrefixCache, SmallBudgetTruncatesPrefixButStaysBitIdentical) {
  FiConfig cfg = small_config();
  cfg.prefix_cache_mb = 1;  // enough for the first few activations only
  Rig rig("densenet", cfg);
  const Tensor in = small_input(31);
  (void)rig.fi->forward(in, ForwardMode::kRecordGolden);
  PrefixCache* cache = rig.fi->prefix_cache();
  EXPECT_GE(cache->stats().budget_truncations, 1u);
  EXPECT_LE(cache->snapshot_bytes(), 1u << 20);

  const std::int64_t last = rig.fi->num_layers() - 1;
  rig.fi->declare_neuron_fault({.layer = last, .c = 0, .h = 0, .w = 0},
                               constant_value(-3.0f));
  const PrefixCacheStats before = cache->stats();
  const Tensor reused = rig.fi->forward(in, ForwardMode::kReusePrefix);
  const std::uint64_t reused_layers =
      cache->stats().layers_reused - before.layers_reused;
  const Tensor recomputed = rig.fi->forward(in, ForwardMode::kPlain);
  rig.fi->clear();

  EXPECT_TRUE(allclose(reused, recomputed, 0.0f));
  // Partial reuse: more than nothing, less than the full prefix the budget
  // would otherwise allow.
  EXPECT_GT(reused_layers, 0u);
  EXPECT_LT(reused_layers,
            cache->first_execution_index(&rig.fi->layer(last)));
}

TEST(PrefixCache, DifferentInputFallsBackInsteadOfReplayingWrongActivations) {
  Rig rig("squeezenet");
  (void)rig.fi->forward(small_input(37), ForwardMode::kRecordGolden);

  rig.fi->declare_neuron_fault({.layer = 4, .c = 0, .h = 0, .w = 0},
                               constant_value(5.0f));
  const Tensor other = small_input(38);
  const Tensor reused = rig.fi->forward(other, ForwardMode::kReusePrefix);
  const Tensor recomputed = rig.fi->forward(other, ForwardMode::kPlain);
  rig.fi->clear();

  EXPECT_TRUE(allclose(reused, recomputed, 0.0f));
  const PrefixCacheStats& s = rig.fi->prefix_cache()->stats();
  EXPECT_GE(s.input_mismatches, 1u);
  EXPECT_EQ(s.layers_reused, 0u);
}

// -------------------------------------------------- campaign byte-identity ----

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  ~TempFile() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

bool same_bits(const CampaignResult& a, const CampaignResult& b) {
  return std::memcmp(&a, &b, sizeof(CampaignResult)) == 0;
}

/// One full checkpointed+traced neuron campaign; returns the folded result
/// and leaves the checkpoint / streamed trace / CSV files behind for byte
/// comparison.
CampaignResult run_neuron_campaign(bool cache_on, std::int64_t threads,
                                   const std::string& ckpt_path,
                                   const std::string& trace_path,
                                   const std::string& csv_path,
                                   PrefixCacheStats* stats_out = nullptr) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FiConfig fi_cfg = small_config();
  fi_cfg.prefix_cache = cache_on;
  FaultInjector fi(model, fi_cfg);

  trace::TraceSink sink;
  CampaignConfig cfg;
  cfg.trials = 24;
  cfg.error_model = single_bit_flip();
  cfg.seed = 91;
  cfg.batch_size = 4;
  cfg.injections_per_image = 2;
  cfg.threads = threads;
  cfg.trace = &sink;
  CampaignCheckpointer ckpt(ckpt_path, trace_path);
  ckpt.begin(campaign_fingerprint(cfg, "prefix-identity"));
  cfg.checkpoint = &ckpt;

  const CampaignResult r = run_classification_campaign(fi, ds, cfg);
  write_campaign_csv(csv_path, {{"squeezenet", r}});
  if (stats_out != nullptr && fi.prefix_cache() != nullptr) {
    *stats_out = fi.prefix_cache()->stats();
  }
  return r;
}

TEST(PrefixCampaign, CsvTraceCheckpointByteIdenticalCacheOnOffAt1And4Threads) {
  struct Run {
    bool cache;
    std::int64_t threads;
  };
  const std::vector<Run> runs{{true, 1}, {false, 1}, {true, 4}, {false, 4}};

  CampaignResult reference{};
  std::string trace_bytes, csv_bytes;
  // Checkpoint bytes are compared within a thread count: the final
  // next_unit in the file depends on wave sizing (waves scale with worker
  // count — pre-existing, cache-independent), while counters, CSV, and
  // trace are pinned across ALL four runs.
  std::map<std::int64_t, std::string> ckpt_bytes_by_threads;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::string tag = std::to_string(i);
    TempFile ck("/tmp/pfi_prefix_ck_" + tag + ".ckpt");
    TempFile tr("/tmp/pfi_prefix_tr_" + tag + ".jsonl");
    TempFile csv("/tmp/pfi_prefix_csv_" + tag + ".csv");
    PrefixCacheStats stats;
    const CampaignResult r = run_neuron_campaign(
        runs[i].cache, runs[i].threads, ck.path, tr.path, csv.path, &stats);
    if (runs[i].cache) {
      EXPECT_GT(stats.golden_records, 0u) << "run " << i;
      EXPECT_GT(stats.layers_reused, 0u)
          << "run " << i << ": the cache must actually engage";
    }
    const auto [it, fresh] =
        ckpt_bytes_by_threads.emplace(runs[i].threads, util::read_file(ck.path));
    if (!fresh) {
      EXPECT_EQ(it->second, util::read_file(ck.path))
          << "run " << i << " (threads=" << runs[i].threads << ")";
    }
    if (i == 0) {
      reference = r;
      trace_bytes = util::read_file(tr.path);
      csv_bytes = util::read_file(csv.path);
      EXPECT_FALSE(trace_bytes.empty());
      continue;
    }
    EXPECT_TRUE(same_bits(reference, r))
        << "run " << i << " (cache=" << runs[i].cache
        << ", threads=" << runs[i].threads << ")";
    EXPECT_EQ(trace_bytes, util::read_file(tr.path)) << "run " << i;
    EXPECT_EQ(csv_bytes, util::read_file(csv.path)) << "run " << i;
  }
}

TEST(PrefixCampaign, WeightCampaignIdenticalCacheOnOffAt1And4Threads) {
  auto run = [](bool cache_on, std::int64_t threads) {
    Rng rng(92);
    data::SyntheticDataset ds(data::cifar10_like());
    auto model = make_model("squeezenet", {.num_classes = 10}, rng);
    FiConfig fi_cfg = small_config();
    fi_cfg.prefix_cache = cache_on;
    FaultInjector fi(model, fi_cfg);
    WeightCampaignConfig cfg;
    cfg.faults = 24;
    cfg.images_per_fault = 4;
    cfg.error_model = single_bit_flip();
    cfg.seed = 93;
    cfg.threads = threads;
    return run_weight_campaign(fi, ds, cfg);
  };
  const CampaignResult reference = run(true, 1);
  EXPECT_TRUE(same_bits(reference, run(false, 1)));
  EXPECT_TRUE(same_bits(reference, run(true, 4)));
  EXPECT_TRUE(same_bits(reference, run(false, 4)));
}

TEST(PrefixCampaign, WorkerStatsFoldIntoPrimaryInjector) {
  Rig rig("squeezenet");
  auto replica = rig.fi->replicate();
  const Tensor in = small_input(41);
  (void)replica->forward(in, ForwardMode::kRecordGolden);
  replica->declare_neuron_fault({.layer = 3, .c = 0, .h = 0, .w = 0},
                                constant_value(2.0f));
  (void)replica->forward(in, ForwardMode::kReusePrefix);
  replica->clear();

  EXPECT_EQ(rig.fi->prefix_cache()->stats().golden_records, 0u);
  rig.fi->absorb_prefix_stats(*replica);
  const PrefixCacheStats& s = rig.fi->prefix_cache()->stats();
  EXPECT_EQ(s.golden_records, 1u);
  EXPECT_EQ(s.reuse_passes, 1u);
  EXPECT_GT(s.layers_reused, 0u);
  EXPECT_EQ(s.injection_site_serves, 1u)
      << "resume-at-injection tallies must fold across workers too";
}

// -------------------------------------------------------- profiler gating ----

TEST(PrefixProfiler, AttachedProfilerDisablesReuseAndMatchesCacheOff) {
  auto run = [](bool cache_on, trace::Profiler& profiler) {
    FiConfig cfg = small_config();
    cfg.prefix_cache = cache_on;
    Rig rig("squeezenet", cfg);
    rig.fi->set_profiler(&profiler);
    const Tensor in = small_input(43);
    (void)rig.fi->forward(in, ForwardMode::kRecordGolden);
    rig.fi->declare_neuron_fault({.layer = 2, .c = 1, .h = 1, .w = 1},
                                 constant_value(11.0f));
    const Tensor faulty = rig.fi->forward(in, ForwardMode::kReusePrefix);
    rig.fi->clear();
    if (cache_on) {
      // Reuse never engaged: the profiler's numbers describe full passes.
      const PrefixCacheStats& s = rig.fi->prefix_cache()->stats();
      EXPECT_EQ(s.golden_records, 0u);
      EXPECT_EQ(s.reuse_passes, 0u);
      EXPECT_EQ(s.layers_reused, 0u);
    }
    rig.fi->set_profiler(nullptr);
    return faulty.clone();
  };

  trace::Profiler with_cache, without_cache;
  const Tensor a = run(true, with_cache);
  const Tensor b = run(false, without_cache);
  EXPECT_TRUE(allclose(a, b, 0.0f));

  // Activation statistics (everything deterministic — hook wall time is
  // not) must be equal: with a profiler attached the cache-on injector
  // executed exactly what the cache-off one did.
  ASSERT_EQ(with_cache.layers().size(), without_cache.layers().size());
  for (std::size_t i = 0; i < with_cache.layers().size(); ++i) {
    const auto& p = with_cache.layers()[i];
    const auto& q = without_cache.layers()[i];
    EXPECT_EQ(p.forwards, q.forwards) << i;
    EXPECT_EQ(p.count, q.count) << i;
    EXPECT_EQ(p.non_finite, q.non_finite) << i;
    EXPECT_EQ(p.min, q.min) << i;
    EXPECT_EQ(p.max, q.max) << i;
    EXPECT_EQ(p.sum, q.sum) << i;
  }
  // The cache-on profile announces why it can trust its own numbers.
  EXPECT_NE(with_cache.table().find("prefix-cache reuse disabled"),
            std::string::npos);
}

// ------------------------------------------------------ env knob parsing ----

struct ScopedEnv {
  explicit ScopedEnv(const char* n) : name(n) { ::unsetenv(name); }
  ~ScopedEnv() { ::unsetenv(name); }
  void set(const char* value) { ::setenv(name, value, 1); }
  const char* name;
};

TEST(PrefixEnv, ToggleParsesStrictly) {
  ScopedEnv env("PFI_PREFIX_CACHE");
  EXPECT_TRUE(util::env_flag("PFI_PREFIX_CACHE", true));
  EXPECT_FALSE(util::env_flag("PFI_PREFIX_CACHE", false));
  env.set("1");
  EXPECT_TRUE(util::env_flag("PFI_PREFIX_CACHE", false));
  env.set("0");
  EXPECT_FALSE(util::env_flag("PFI_PREFIX_CACHE", true));
  for (const char* bad : {"2", "yes", "on", " 1", "01", "true"}) {
    env.set(bad);
    EXPECT_THROW(util::env_flag("PFI_PREFIX_CACHE", true), Error) << bad;
  }
}

TEST(PrefixEnv, SummaryLineMentionsHitRateAndBudget) {
  PrefixCacheStats s;
  s.golden_records = 3;
  s.layers_reused = 75;
  s.layers_recomputed = 25;
  s.fallback_passes = 2;
  const std::string line = prefix_cache_summary(s, 256u << 20);
  EXPECT_NE(line.find("75/100"), std::string::npos) << line;
  EXPECT_NE(line.find("75.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("256 MB"), std::string::npos) << line;
}

}  // namespace
}  // namespace pfi::core
