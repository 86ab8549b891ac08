// Tests for the parallel campaign engine: the ThreadPool primitive,
// counter-based seed derivation, injector replication, and the headline
// guarantee — a campaign's CampaignResult counts are bit-identical for any
// thread count (ISSUE: threads=1 vs threads=4, and run-to-run at threads=4).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fault_injector.hpp"
#include "models/zoo.hpp"
#include "util/thread_pool.hpp"

namespace pfi::core {
namespace {

using models::make_model;

// ------------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  util::ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.run(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    pool.run(7, [&](std::size_t) { ++count; });
  }
  EXPECT_EQ(count.load(), 35);
}

TEST(ThreadPool, PropagatesTaskException) {
  util::ThreadPool pool(2);
  EXPECT_THROW(pool.run(8,
                        [](std::size_t i) {
                          if (i == 3) throw std::runtime_error("task 3 died");
                        }),
               std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> ok{0};
  pool.run(4, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1u);
}

// ------------------------------------------------------------ derive_seed ----

TEST(DeriveSeed, PureFunctionOfInputs) {
  EXPECT_EQ(derive_seed(7, 0), derive_seed(7, 0));
  EXPECT_EQ(derive_seed(7, 3, 1), derive_seed(7, 3, 1));
}

TEST(DeriveSeed, DistinctAcrossIndexSeedAndStream) {
  EXPECT_NE(derive_seed(7, 0), derive_seed(7, 1));
  EXPECT_NE(derive_seed(7, 0), derive_seed(8, 0));
  EXPECT_NE(derive_seed(7, 0, 0), derive_seed(7, 0, 1));
  // Nearby indices must not produce correlated low bits (counter mode).
  EXPECT_NE(derive_seed(7, 0) & 0xffff, derive_seed(7, 1) & 0xffff);
}

// -------------------------------------------------------------- replicate ----

FiConfig parallel_config() {
  return {.input_shape = {3, 32, 32}, .batch_size = 4};
}

data::SyntheticSpec campaign_spec() {
  // Untrained models are near-constant classifiers, so with k classes about
  // 1/k of uniformly drawn labels match by luck — enough eligible rows for a
  // short campaign. (Fewer classes do NOT help: a constant predictor can be
  // anti-correlated with 2-class labels and starve the campaign entirely.)
  return data::cifar10_like();
}

TEST(Replicate, CloneMatchesOriginalBitForBit) {
  Rng rng(80);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  auto copy = fi.replicate();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->num_layers(), fi.num_layers());

  data::SyntheticDataset ds(campaign_spec());
  Rng draw(81);
  const auto batch = ds.sample_batch(4, draw);
  const Tensor a = fi.forward(batch.images).clone();
  const Tensor b = copy->forward(batch.images);
  EXPECT_TRUE(allclose(a, b, 0.0f));
}

TEST(Replicate, CloneIsIsolatedFromOriginal) {
  Rng rng(82);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  auto copy = fi.replicate();

  data::SyntheticDataset ds(campaign_spec());
  Rng draw(83);
  const auto batch = ds.sample_batch(4, draw);
  const Tensor golden = fi.forward(batch.images).clone();

  // Corrupt the replica's weights; the original must be untouched.
  Rng pick(84);
  copy->declare_weight_fault(copy->random_weight_location(pick),
                             constant_value(1e6f));
  const Tensor original_after = fi.forward(batch.images);
  EXPECT_TRUE(allclose(golden, original_after, 0.0f));
}

TEST(Replicate, RequiresQuiescentInjector) {
  Rng rng(85);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  Rng pick(86);
  fi.declare_weight_fault(fi.random_weight_location(pick), zero_value());
  EXPECT_THROW(fi.replicate(), Error);
  fi.clear();
  EXPECT_NE(fi.replicate(), nullptr);
}

// ------------------------------------------- thread-count invariance ----

bool same_result(const CampaignResult& a, const CampaignResult& b) {
  return a.trials == b.trials && a.skipped == b.skipped &&
         a.corruptions == b.corruptions && a.non_finite == b.non_finite;
}

// Each run builds its model from the same seed, so any count difference can
// only come from the execution schedule. single_bit_flip() with no fixed bit
// draws from the injector's internal RNG — the hardest case for determinism.
// `one_fault_per_layer` arms a fault in every instrumented layer per rep
// (pfi_cli --per-layer); `sink`, when set, receives the campaign's trace.
CampaignResult run_neuron(std::int64_t threads,
                          bool one_fault_per_layer = false,
                          trace::TraceSink* sink = nullptr) {
  Rng rng(90);
  data::SyntheticDataset ds(campaign_spec());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  CampaignConfig cfg;
  cfg.trials = 24;
  cfg.error_model = single_bit_flip();
  cfg.seed = 91;
  cfg.batch_size = 4;
  cfg.injections_per_image = 2;
  cfg.one_fault_per_layer = one_fault_per_layer;
  cfg.threads = threads;
  cfg.trace = sink;
  return run_classification_campaign(fi, ds, cfg);
}

TEST(CampaignParallel, NeuronCampaignIdenticalForOneAndFourThreads) {
  for (const bool per_layer : {false, true}) {
    SCOPED_TRACE(per_layer ? "one_fault_per_layer" : "one fault per rep");
    trace::TraceSink sink;
    const auto serial = run_neuron(1, per_layer, &sink);
    const auto parallel = run_neuron(4, per_layer);
    EXPECT_EQ(serial.trials, 24u);
    EXPECT_TRUE(same_result(serial, parallel))
        << "threads=1 {" << serial.trials << "," << serial.skipped << ","
        << serial.corruptions << "," << serial.non_finite
        << "} vs threads=4 {" << parallel.trials << "," << parallel.skipped
        << "," << parallel.corruptions << "," << parallel.non_finite << "}";
    if (!per_layer) continue;
    // Every rep arms one fault per instrumented layer, so its events name
    // each layer exactly once.
    Rng rng(90);
    const FaultInjector fi(make_model("squeezenet", {.num_classes = 10}, rng),
                           parallel_config());
    const std::vector<int> once(static_cast<std::size_t>(fi.num_layers()), 1);
    const auto reps = trace::split_reps(sink.events());
    ASSERT_FALSE(reps.empty());
    for (const auto& rep : reps) {
      std::vector<int> hits(once.size(), 0);
      for (const trace::InjectionEvent& ev : rep) {
        ++hits.at(static_cast<std::size_t>(ev.layer));
      }
      EXPECT_EQ(hits, once) << "attempt " << rep.front().attempt << " rep "
                            << rep.front().rep;
    }
  }
}

TEST(CampaignParallel, NeuronCampaignStableRunToRun) {
  EXPECT_TRUE(same_result(run_neuron(4), run_neuron(4)));
}

// An Inf written into an emulated INT8 layer's output reaches the next
// layer's calibration. The finite-only absmax keeps the campaign running
// (the scale comes from the finite values, the Inf saturates to code 127),
// and the saturated codes are the same at any thread count.
TEST(CampaignParallel, EmulatedInt8InfCampaignIdenticalForOneAndFourThreads) {
  auto run = [](std::int64_t threads, trace::TraceSink& sink) {
    Rng rng(90);
    data::SyntheticDataset ds(campaign_spec());
    auto model = make_model("squeezenet", {.num_classes = 10}, rng);
    FiConfig fi_cfg = parallel_config();
    fi_cfg.dtype = DType::kInt8;
    FaultInjector fi(model, fi_cfg);
    CampaignConfig cfg;
    cfg.trials = 16;
    cfg.error_model = constant_value(std::numeric_limits<float>::infinity());
    cfg.seed = 93;
    cfg.batch_size = 4;
    cfg.injections_per_image = 2;
    cfg.threads = threads;
    cfg.trace = &sink;
    return run_classification_campaign(fi, ds, cfg);
  };
  trace::TraceSink serial_sink;
  trace::TraceSink parallel_sink;
  const auto serial = run(1, serial_sink);
  const auto parallel = run(4, parallel_sink);
  EXPECT_EQ(serial.trials, 16u);
  EXPECT_TRUE(same_result(serial, parallel));
  const std::string jsonl = trace::trace_to_jsonl(serial_sink.events());
  EXPECT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl, trace::trace_to_jsonl(parallel_sink.events()));
}

TEST(CampaignParallel, AttemptCapGiveUpIdenticalAcrossThreadCounts) {
  // An unreachable target under a tiny attempt cap: every thread count must
  // fold exactly the attempts below the cap — never a wave past it — give
  // up identically, and leave a final checkpoint whose next unit IS the cap.
  constexpr std::int64_t kCap = 6;
  CampaignResult serial;
  for (const std::int64_t threads :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{4}}) {
    Rng rng(90);
    data::SyntheticDataset ds(campaign_spec());
    auto model = make_model("squeezenet", {.num_classes = 10}, rng);
    FaultInjector fi(model, parallel_config());
    CampaignConfig cfg;
    cfg.trials = 1'000'000;
    cfg.error_model = single_bit_flip();
    cfg.seed = 91;
    cfg.batch_size = 4;
    cfg.injections_per_image = 2;
    cfg.attempt_cap = kCap;
    cfg.threads = threads;
    // The pid keeps test processes that ctest runs in parallel apart.
    const std::string path = "/tmp/pfi_cap_ckpt_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(threads) + ".json";
    CampaignCheckpointer ckpt(path);
    ckpt.begin(campaign_fingerprint(cfg, "attempt-cap"));
    cfg.checkpoint = &ckpt;
    const CampaignResult r = run_classification_campaign(fi, ds, cfg);
    std::remove(path.c_str());

    EXPECT_EQ(r.gave_up, 1u) << "threads=" << threads;
    EXPECT_TRUE(ckpt.done()) << "threads=" << threads;
    EXPECT_EQ(ckpt.next_unit(), static_cast<std::uint64_t>(kCap))
        << "threads=" << threads;
    if (threads == 1) {
      serial = r;
      EXPECT_LT(serial.trials, 1'000'000u);
    } else {
      EXPECT_TRUE(same_result(serial, r))
          << "threads=1 {" << serial.trials << "," << serial.skipped << ","
          << serial.corruptions << "} vs threads=" << threads << " {"
          << r.trials << "," << r.skipped << "," << r.corruptions << "}";
      EXPECT_EQ(r.gave_up, serial.gave_up);
    }
  }
}

TEST(CampaignParallel, ThreadsZeroUsesHardwareConcurrency) {
  const auto r = run_neuron(0);
  EXPECT_TRUE(same_result(r, run_neuron(1)));
}

CampaignResult run_weight(std::int64_t threads) {
  Rng rng(92);
  data::SyntheticDataset ds(campaign_spec());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  WeightCampaignConfig cfg;
  cfg.faults = 24;
  cfg.images_per_fault = 4;
  cfg.error_model = single_bit_flip();
  cfg.seed = 93;
  cfg.threads = threads;
  return run_weight_campaign(fi, ds, cfg);
}

TEST(CampaignParallel, WeightCampaignIdenticalForOneAndFourThreads) {
  const auto serial = run_weight(1);
  const auto parallel = run_weight(4);
  EXPECT_EQ(serial.trials + serial.skipped, 24u * 4u);
  EXPECT_TRUE(same_result(serial, parallel));
  EXPECT_TRUE(same_result(parallel, run_weight(4)));
}

std::vector<CampaignResult> run_per_layer(std::int64_t threads) {
  // Model seed 90 is load-bearing: an untrained net maps each class texture
  // to one fixed (usually wrong) prediction, so golden accuracy — and with
  // it campaign speed — varies enormously with the weight seed. Seed 90
  // agrees with the labels ~15% of the time; some seeds produce a
  // derangement (0% agreement) and campaigns that crawl toward the attempt
  // cap. Reused from run_neuron, where it is verified fast.
  Rng rng(90);
  data::SyntheticDataset ds(campaign_spec());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, parallel_config());
  CampaignConfig cfg;
  cfg.trials = 8;
  cfg.error_model = random_value(-8.0f, 8.0f);
  cfg.seed = 95;
  cfg.batch_size = 4;
  cfg.injections_per_image = 2;
  cfg.threads = threads;
  return run_per_layer_campaign(fi, ds, cfg);
}

TEST(CampaignParallel, PerLayerCampaignIdenticalForOneAndFourThreads) {
  const auto serial = run_per_layer(1);
  const auto parallel = run_per_layer(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t l = 0; l < serial.size(); ++l) {
    EXPECT_TRUE(same_result(serial[l], parallel[l])) << "layer " << l;
  }
}

// --------------------------------------------- degenerate proportions ----

TEST(CampaignParallel, ZeroTrialsYieldsVacuousProportion) {
  CampaignResult r;  // trials == 0
  const auto p = r.corruption_probability();
  EXPECT_EQ(p.value, 0.0);
  EXPECT_EQ(p.lo, 0.0);
  EXPECT_EQ(p.hi, 1.0);
}

}  // namespace
}  // namespace pfi::core
