// Statistical test harness for the stratified adaptive campaign layer
// (core/sampling.hpp). The headline tests treat the sampler as a black-box
// estimator and check it against EXHAUSTIVE ground truth: on a jitter-free,
// noise-free dataset every image is a pure function of its label, so the
// fault space (label x neuron x bit) is finite and the true uniform
// corruption probability can be computed by sweeping every single fault.
// Against that truth we pin:
//
//  * coverage    — across 200 seeded replications, the pooled 99% CI
//                  contains the exhaustive truth at least the nominal
//                  fraction of the time, and the replication mean is
//                  unbiased;
//  * agreement   — the stratified and uniform samplers' CIs overlap;
//  * determinism — counts, CSV, and trace JSONL are byte-identical at 1 vs
//                  4 threads, under kill/resume at a wave boundary, and
//                  with the prefix cache on or off;
//  * pruning     — analytic masked-fault pruning never changes any counter
//                  (pure execution knob), and in PFI_PRUNE_VERIFY mode
//                  every pruned injection is re-executed and confirmed
//                  masked, across fp32 / fp16 / int8;
//  * degeneracy  — a stratum closed with zero trials contributes the
//                  vacuous [0, 1] interval to the pooled estimate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "core/sampling.hpp"
#include "models/trainer.hpp"
#include "nn/nn.hpp"
#include "util/env.hpp"
#include "util/fileio.hpp"

namespace pfi::core {
namespace {

// ------------------------------------------------------------- fixture ----

/// Jitter- and noise-free dataset: exactly 3 distinct images, one per
/// class, so the fault space is finite and exhaustively sweepable.
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

/// Two instrumented convs (192 + 64 = 256 neurons), each feeding a ReLU so
/// the masked-fault pruner has something to prove. Small enough that the
/// exhaustive sweep (3 labels x 256 neurons x 32 bits) runs in seconds.
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

/// Train once per process; every test shares the same weights. Campaigns
/// never mutate model parameters (neuron faults are forward-hook only), so
/// sharing is safe and keeps the whole file fast.
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

/// tiny()'s model with a NaN bias on class 2's logit. Classes 0 and 1 still
/// classify correctly, but every logits tensor — golden or faulty — is
/// non-finite, so every trial, pruned or executed, is a corruption.
std::shared_ptr<nn::Module> tiny_nan_logits_model() {
  static const std::shared_ptr<nn::Module> model = [] {
    auto m = nn::clone_model(*tiny().model);
    auto& seq = dynamic_cast<nn::Sequential&>(*m);
    auto& head = dynamic_cast<nn::Linear&>(seq.at(seq.size() - 1));
    head.bias().value[2] = std::numeric_limits<float>::quiet_NaN();
    return m;
  }();
  return model;
}

FiConfig tiny_fi_config(DType dtype = DType::kFloat32) {
  FiConfig cfg{.input_shape = {1, 8, 8}, .batch_size = 1};
  cfg.dtype = dtype;
  return cfg;
}

/// Native INT8 execution: the convs run the integer GEMM path, faults land
/// in the deployed codes. Every determinism matrix below must hold
/// unchanged.
FiConfig tiny_native_config() {
  FiConfig cfg = tiny_fi_config(DType::kInt8);
  cfg.native = true;
  return cfg;
}

bool logits_finite(const Tensor& t) {
  for (const float v : t.data()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// The campaign's per-row verdict (RepScorer, kTop1Mismatch) for a
/// batch-of-one faulty pass whose golden top-1 equals `label`.
bool corrupts(const Tensor& faulty, std::int64_t label) {
  return nn::argmax_rows(faulty)[0] != label || !logits_finite(faulty);
}

/// Exhaustive per-stratum truth: sweep EVERY (label, neuron, bit) fault in
/// the stratum and count corruptions. The campaign draws labels, neurons,
/// and bits uniformly within a stratum, so each sampled trial is a
/// Bernoulli draw with exactly this success probability.
struct ExhaustiveTruth {
  std::vector<double> per_stratum;
  double pooled = 0.0;  ///< sum of weight * per-stratum truth
};

ExhaustiveTruth exhaustive_truth(FaultInjector& fi,
                                 const data::SyntheticDataset& ds,
                                 const std::vector<Stratum>& strata) {
  ExhaustiveTruth truth;
  truth.per_stratum.resize(strata.size(), 0.0);
  const std::int64_t classes = ds.spec().classes;
  Rng render_rng(1);  // jitter and noise are zero: any rng renders the same
  for (std::int64_t label = 0; label < classes; ++label) {
    const auto batch = ds.render_batch({label}, render_rng);
    fi.clear();
    const Tensor golden =
        fi.forward(batch.images, ForwardMode::kRecordGolden);
    // The campaign only scores correctly-classified inferences; the fixture
    // trains to 100% on the 3 canonical images, verified by CoverageVs...
    EXPECT_EQ(nn::argmax_rows(golden)[0], label);
    for (std::size_t s = 0; s < strata.size(); ++s) {
      const Stratum& st = strata[s];
      const Shape& shape = fi.layer_shape(st.layer);
      std::uint64_t hits = 0;
      for (std::int64_t c = 0; c < shape[1]; ++c) {
        for (std::int64_t h = 0; h < shape[2]; ++h) {
          for (std::int64_t w = 0; w < shape[3]; ++w) {
            for (int bit = st.bit_lo; bit <= st.bit_hi; ++bit) {
              fi.declare_neuron_fault(
                  {.layer = st.layer, .batch = 0, .c = c, .h = h, .w = w},
                  single_bit_flip(bit));
              const Tensor faulty =
                  fi.forward(batch.images, ForwardMode::kReusePrefix);
              fi.clear();
              if (corrupts(faulty, label)) ++hits;
            }
          }
        }
      }
      const double space =
          static_cast<double>(shape[1] * shape[2] * shape[3]) *
          static_cast<double>(st.bit_hi - st.bit_lo + 1);
      truth.per_stratum[s] += static_cast<double>(hits) /
                              (space * static_cast<double>(classes));
    }
  }
  for (std::size_t s = 0; s < strata.size(); ++s) {
    truth.pooled += strata[s].weight * truth.per_stratum[s];
  }
  return truth;
}

StratifiedCampaignConfig tiny_campaign(std::uint64_t seed,
                                       std::int64_t threads = 1,
                                       std::int64_t trials = 64) {
  StratifiedCampaignConfig scfg;
  scfg.base.trials = trials;
  scfg.base.seed = seed;
  scfg.base.batch_size = 1;
  scfg.base.injections_per_image = 4;
  scfg.base.threads = threads;
  return scfg;
}

bool same_bits(const CampaignResult& a, const CampaignResult& b) {
  return std::memcmp(&a, &b, sizeof(CampaignResult)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

/// Removes the file (and the atomic-write temp sibling) on both ends of the
/// test so reruns never see stale state.
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

std::string csv_bytes(const StratifiedResult& r, const std::string& tag) {
  TempFile f("/tmp/pfi_sampling_csv_" + tag + ".csv");
  write_stratified_csv(f.path, {{"tiny", r}});
  return util::read_file(f.path);
}

// ----------------------------------------------- strata enumeration ----

TEST(Sampling, StrataWeightsPartitionUnity) {
  const auto& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  for (const DType dtype :
       {DType::kFloat32, DType::kFloat16, DType::kInt8}) {
    const auto strata = make_strata(fi, -1, dtype);
    EXPECT_EQ(strata.size(), 2 * bit_classes(dtype).size());
    double sum = 0.0;
    for (const Stratum& s : strata) {
      EXPECT_GT(s.weight, 0.0);
      EXPECT_LE(s.bit_lo, s.bit_hi);
      sum += s.weight;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // Restricted to one layer the weights still partition unity.
  const auto one = make_strata(fi, 1, DType::kFloat32);
  double sum = 0.0;
  for (const Stratum& s : one) {
    EXPECT_EQ(s.layer, 1);
    sum += s.weight;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Sampling, ReluAdjacencyDetection) {
  const auto& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  const auto adj = relu_adjacent_layers(fi);
  ASSERT_EQ(adj.size(), 2u);
  EXPECT_TRUE(adj[0]);
  EXPECT_TRUE(adj[1]);

  // A conv NOT followed by a ReLU must not be pruned against.
  Rng rng(9);
  auto bare = std::make_shared<nn::Sequential>();
  bare->emplace<nn::Conv2d>(
      nn::Conv2dOptions{.in_channels = 1, .out_channels = 2, .kernel = 3,
                        .padding = 1},
      rng);
  bare->emplace<nn::GlobalAvgPool>();
  bare->emplace<nn::Flatten>();
  bare->emplace<nn::Linear>(2, 3, rng);
  FaultInjector bare_fi(bare, tiny_fi_config());
  const auto bare_adj = relu_adjacent_layers(bare_fi);
  ASSERT_EQ(bare_adj.size(), 1u);
  EXPECT_FALSE(bare_adj[0]);
}

TEST(Sampling, RejectsUnsupportedModes) {
  const auto& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  StratifiedCampaignConfig scfg = tiny_campaign(1);
  scfg.base.one_fault_per_layer = true;
  EXPECT_THROW(run_stratified_campaign(fi, fx.ds, scfg), Error);
  scfg = tiny_campaign(1);
  scfg.target_half_width = 1.0;
  EXPECT_THROW(run_stratified_campaign(fi, fx.ds, scfg), Error);
  scfg = tiny_campaign(1);
  scfg.base.trials = 0;
  EXPECT_THROW(run_stratified_campaign(fi, fx.ds, scfg), Error);
}

// -------------------------------------- coverage vs exhaustive truth ----

// The headline statistical guarantee. 200 seeded replications of a
// 64-trial stratified campaign; the pooled 99% CI must contain the
// exhaustively computed truth at least the nominal fraction of the time
// (Wilson intervals are conservative, so the realized coverage should sit
// at or above 99%; we assert >= 97.5% to absorb the finite replication
// count), and the replication mean must be unbiased.
TEST(Sampling, CoverageVsExhaustiveTruth) {
  const auto& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());

  // Precondition for ground truth: the model classifies every canonical
  // image correctly (campaigns skip wrong-golden rows, which would change
  // the sampled measure).
  Rng render_rng(2);
  for (std::int64_t label = 0; label < 3; ++label) {
    const auto b = fx.ds.render_batch({label}, render_rng);
    ASSERT_EQ(nn::argmax_rows(fi.forward(b.images))[0], label)
        << "fixture model failed to learn class " << label;
  }

  const auto strata = make_strata(fi, -1, DType::kFloat32);
  const ExhaustiveTruth truth = exhaustive_truth(fi, fx.ds, strata);
  ASSERT_GT(truth.pooled, 0.0) << "degenerate fixture: no fault corrupts";
  ASSERT_LT(truth.pooled, 0.5);

  constexpr int kReps = 200;
  int contained = 0;
  double mean = 0.0;
  Proportion last{};
  for (int i = 0; i < kReps; ++i) {
    // injections_per_image = 1: each trial draws its own label, so
    // per-stratum counts are independent Bernoulli draws — the regime the
    // Wilson interval models. (Golden-pass amortization deliberately
    // correlates same-attempt trials; that is an orthogonal speed knob.)
    StratifiedCampaignConfig scfg =
        tiny_campaign(5000 + static_cast<std::uint64_t>(i));
    scfg.base.injections_per_image = 1;
    const StratifiedResult r = run_stratified_campaign(fi, fx.ds, scfg);
    EXPECT_EQ(r.totals.trials, 64u);
    last = r.estimate();
    if (last.lo <= truth.pooled && truth.pooled <= last.hi) ++contained;
    mean += last.value / kReps;
  }
  EXPECT_GE(contained, 195)
      << "99% CI coverage collapsed: " << contained << "/" << kReps
      << " contained truth " << truth.pooled;
  // Unbiasedness: the replication mean of the stratified point estimate
  // must sit within ~3 standard errors of the truth. With p ~ truth and
  // 200 x 64 effective trials the SE is a few parts in a thousand.
  const double se =
      std::sqrt(truth.pooled * (1.0 - truth.pooled) / (64.0 * kReps));
  EXPECT_NEAR(mean, truth.pooled, 3.5 * se)
      << "stratified estimator is biased";

  // Agreement with the uniform sampler: the two estimators target the same
  // quantity, so their 99% intervals must overlap.
  CampaignConfig ucfg;
  ucfg.trials = 256;
  ucfg.error_model = single_bit_flip();
  ucfg.seed = 9001;
  ucfg.batch_size = 1;
  ucfg.injections_per_image = 4;
  ucfg.threads = 1;
  const CampaignResult ur = run_classification_campaign(fi, fx.ds, ucfg);
  const Proportion up = ur.corruption_probability();
  EXPECT_LE(up.lo, last.hi);
  EXPECT_LE(last.lo, up.hi);
  // And the uniform CI itself contains the truth (sanity on the oracle).
  EXPECT_LE(up.lo, truth.pooled);
  EXPECT_GE(up.hi, truth.pooled);
}

// ----------------------------------------------------- determinism ----

StratifiedResult run_tiny(FaultInjector& fi, std::uint64_t seed,
                          std::int64_t threads, trace::TraceSink* sink,
                          CampaignCheckpointer* ckpt = nullptr) {
  const auto& fx = tiny();
  StratifiedCampaignConfig scfg = tiny_campaign(seed, threads);
  scfg.base.injections_per_image = 2;  // several waves before completion
  scfg.base.trace = sink;
  scfg.base.checkpoint = ckpt;
  return run_stratified_campaign(fi, fx.ds, scfg);
}

TEST(Sampling, ThreadCountInvariantCsvAndTrace) {
  const auto& fx = tiny();
  FaultInjector fi1(fx.model, tiny_fi_config());
  FaultInjector fi4(fx.model, tiny_fi_config());
  trace::TraceSink sink1;
  trace::TraceSink sink4;
  const StratifiedResult a = run_tiny(fi1, 31, 1, &sink1);
  const StratifiedResult b = run_tiny(fi4, 31, 4, &sink4);

  EXPECT_TRUE(same_bits(a.totals, b.totals));
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.golden_passes, b.golden_passes);
  EXPECT_EQ(a.faulty_passes, b.faulty_passes);
  ASSERT_EQ(a.strata.size(), b.strata.size());
  for (std::size_t s = 0; s < a.strata.size(); ++s) {
    EXPECT_TRUE(same_bits(a.strata[s].counts, b.strata[s].counts))
        << "stratum " << s;
    EXPECT_EQ(a.strata[s].attempts, b.strata[s].attempts) << "stratum " << s;
  }
  EXPECT_EQ(csv_bytes(a, "t1"), csv_bytes(b, "t4"));
  ASSERT_FALSE(sink1.events().empty());
  EXPECT_EQ(trace::trace_to_jsonl(sink1.events()),
            trace::trace_to_jsonl(sink4.events()));
}

TEST(Sampling, PrefixCacheDoesNotChangeResults) {
  const auto& fx = tiny();
  FiConfig off = tiny_fi_config();
  off.prefix_cache = false;
  FaultInjector fi_on(fx.model, tiny_fi_config());
  FaultInjector fi_off(fx.model, off);
  trace::TraceSink sink_on;
  trace::TraceSink sink_off;
  const StratifiedResult a = run_tiny(fi_on, 33, 1, &sink_on);
  const StratifiedResult b = run_tiny(fi_off, 33, 1, &sink_off);
  EXPECT_TRUE(same_bits(a.totals, b.totals));
  EXPECT_EQ(csv_bytes(a, "cache_on"), csv_bytes(b, "cache_off"));
  EXPECT_EQ(trace::trace_to_jsonl(sink_on.events()),
            trace::trace_to_jsonl(sink_off.events()));
}

void kill_and_resume_case(std::int64_t threads,
                          const FiConfig& fi_cfg = tiny_fi_config(),
                          const std::string& suffix = "") {
  const auto& fx = tiny();
  const std::string tag = "t" + std::to_string(threads) + suffix;
  TempFile ck_ref("/tmp/pfi_sampling_ck_ref_" + tag + ".json");
  TempFile tr_ref("/tmp/pfi_sampling_tr_ref_" + tag + ".jsonl");
  TempFile ck_crash("/tmp/pfi_sampling_ck_crash_" + tag + ".json");
  TempFile tr_crash("/tmp/pfi_sampling_tr_crash_" + tag + ".jsonl");
  StratifiedCampaignConfig fp_cfg = tiny_campaign(37, threads);
  fp_cfg.base.injections_per_image = 2;
  const std::uint64_t fp = stratified_fingerprint(fp_cfg, "kill-test");

  // Uninterrupted reference.
  CampaignCheckpointer ref(ck_ref.path, tr_ref.path);
  ref.begin(fp);
  trace::TraceSink ref_sink;
  FaultInjector ref_fi(fx.model, fi_cfg);
  const StratifiedResult ref_result =
      run_tiny(ref_fi, 37, threads, &ref_sink, &ref);

  // Crash exactly after the first committed wave.
  CampaignCheckpointer crash(ck_crash.path, tr_crash.path);
  crash.begin(fp);
  crash.fail_after_commits(1);
  trace::TraceSink crash_sink;
  FaultInjector crash_fi(fx.model, fi_cfg);
  EXPECT_THROW(run_tiny(crash_fi, 37, threads, &crash_sink, &crash),
               CampaignAborted);

  // Worst case: the kill also tore a trace line mid-append.
  util::append_file_sync(tr_crash.path, "{\"attempt\":9999,\"tor");

  CampaignCheckpointer resumed(ck_crash.path, tr_crash.path);
  ASSERT_TRUE(resumed.resume(fp));
  EXPECT_FALSE(resumed.done());
  EXPECT_FALSE(resumed.strata().empty());
  EXPECT_LT(resumed.result().trials, ref_result.totals.trials);
  trace::TraceSink resume_sink;
  FaultInjector resume_fi(fx.model, fi_cfg);
  const StratifiedResult resumed_result =
      run_tiny(resume_fi, 37, threads, &resume_sink, &resumed);

  EXPECT_TRUE(same_bits(ref_result.totals, resumed_result.totals));
  EXPECT_EQ(ref_result.pruned, resumed_result.pruned);
  EXPECT_EQ(ref_result.golden_passes, resumed_result.golden_passes);
  EXPECT_EQ(ref_result.faulty_passes, resumed_result.faulty_passes);
  EXPECT_EQ(csv_bytes(ref_result, "ref_" + tag),
            csv_bytes(resumed_result, "res_" + tag));
  EXPECT_EQ(util::read_file(tr_ref.path), util::read_file(tr_crash.path));

  // Resuming a finished campaign re-executes nothing and reassembles the
  // identical result (including per-stratum flags) from the checkpoint.
  CampaignCheckpointer finished(ck_crash.path, tr_crash.path);
  ASSERT_TRUE(finished.resume(fp));
  EXPECT_TRUE(finished.done());
  FaultInjector replay_fi(fx.model, fi_cfg);
  trace::TraceSink replay_sink;
  const StratifiedResult replayed =
      run_tiny(replay_fi, 37, threads, &replay_sink, &finished);
  EXPECT_TRUE(same_bits(ref_result.totals, replayed.totals));
  EXPECT_EQ(csv_bytes(ref_result, "ref2_" + tag),
            csv_bytes(replayed, "rep_" + tag));
  EXPECT_TRUE(replay_sink.events().empty());
}

TEST(Sampling, KillAndResumeByteIdenticalSerial) { kill_and_resume_case(1); }
TEST(Sampling, KillAndResumeByteIdenticalParallel) { kill_and_resume_case(4); }

// ------------------------------------- native-dtype campaign equivalence ----

// The same determinism matrix with the convs EXECUTING in native INT8
// (integer GEMM over deployed codes) instead of fp32-with-emulation: the
// campaign counters, CSV, and trace JSONL must stay byte-identical at any
// thread count, under kill/resume, and with the prefix cache on or off.

TEST(Sampling, NativeInt8ThreadCountInvariantCsvAndTrace) {
  const auto& fx = tiny();
  FaultInjector fi1(fx.model, tiny_native_config());
  FaultInjector fi4(fx.model, tiny_native_config());
  trace::TraceSink sink1;
  trace::TraceSink sink4;
  const StratifiedResult a = run_tiny(fi1, 61, 1, &sink1);
  const StratifiedResult b = run_tiny(fi4, 61, 4, &sink4);
  EXPECT_TRUE(same_bits(a.totals, b.totals));
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.faulty_passes, b.faulty_passes);
  EXPECT_EQ(csv_bytes(a, "ni8_t1"), csv_bytes(b, "ni8_t4"));
  ASSERT_FALSE(sink1.events().empty());
  // Events must record the deployed representation, not fp32.
  for (const auto& ev : sink1.events()) {
    EXPECT_EQ(ev.dtype, DType::kInt8);
  }
  EXPECT_EQ(trace::trace_to_jsonl(sink1.events()),
            trace::trace_to_jsonl(sink4.events()));
}

TEST(Sampling, NativeInt8PrefixCacheDoesNotChangeResults) {
  const auto& fx = tiny();
  FiConfig off = tiny_native_config();
  off.prefix_cache = false;
  FaultInjector fi_on(fx.model, tiny_native_config());
  FaultInjector fi_off(fx.model, off);
  trace::TraceSink sink_on;
  trace::TraceSink sink_off;
  const StratifiedResult a = run_tiny(fi_on, 63, 1, &sink_on);
  const StratifiedResult b = run_tiny(fi_off, 63, 1, &sink_off);
  EXPECT_TRUE(same_bits(a.totals, b.totals));
  EXPECT_EQ(csv_bytes(a, "ni8_cache_on"), csv_bytes(b, "ni8_cache_off"));
  EXPECT_EQ(trace::trace_to_jsonl(sink_on.events()),
            trace::trace_to_jsonl(sink_off.events()));
}

TEST(Sampling, NativeKillAndResumeByteIdenticalSerial) {
  kill_and_resume_case(1, tiny_native_config(), "_native");
}
TEST(Sampling, NativeKillAndResumeByteIdenticalParallel) {
  kill_and_resume_case(4, tiny_native_config(), "_native");
}

TEST(Sampling, UniformCheckpointCannotResumeStratifiedRun) {
  const StratifiedCampaignConfig scfg = tiny_campaign(37);
  // Same base config, same context: the fingerprints must still differ so
  // a uniform checkpoint can never silently resume a stratified campaign.
  EXPECT_NE(stratified_fingerprint(scfg, "ctx"),
            campaign_fingerprint(scfg.base, "ctx"));
}

// --------------------------------------------------------- pruning ----

TEST(Sampling, PruningIsPureExecutionKnob) {
  const auto& fx = tiny();
  // The second model's golden logits hold a NaN: a pruned trial must score
  // the corruption its execution would.
  const std::shared_ptr<nn::Module> models[] = {fx.model,
                                                tiny_nan_logits_model()};
  for (const auto& model : models) {
    SCOPED_TRACE(model == fx.model ? "tiny" : "tiny with NaN logits");
    FaultInjector fi_on(model, tiny_fi_config());
    FaultInjector fi_off(model, tiny_fi_config());
    trace::TraceSink sink_on(/*capture_logits=*/true);
    trace::TraceSink sink_off(/*capture_logits=*/true);
    StratifiedCampaignConfig on = tiny_campaign(41);
    on.base.trace = &sink_on;
    StratifiedCampaignConfig off = tiny_campaign(41);
    off.prune = false;
    off.base.trace = &sink_off;
    const StratifiedResult a = run_stratified_campaign(fi_on, fx.ds, on);
    const StratifiedResult b = run_stratified_campaign(fi_off, fx.ds, off);

    EXPECT_GT(a.pruned, 0u) << "fixture produced no prunable injections";
    EXPECT_EQ(b.pruned, 0u);
    EXPECT_LT(a.faulty_passes, b.faulty_passes);
    EXPECT_TRUE(same_bits(a.totals, b.totals))
        << "corruptions " << a.totals.corruptions << " (prune on) vs "
        << b.totals.corruptions << " (prune off)";
    const Proportion pa = a.estimate();
    const Proportion pb = b.estimate();
    EXPECT_EQ(pa.value, pb.value);
    EXPECT_EQ(pa.lo, pb.lo);
    EXPECT_EQ(pa.hi, pb.hi);
    EXPECT_EQ(csv_bytes(a, "prune_on"), csv_bytes(b, "prune_off"));
    // Pruned injections compute their trace events analytically; the
    // stream must be byte-identical to real execution.
    ASSERT_FALSE(sink_on.events().empty());
    EXPECT_EQ(trace::trace_to_jsonl(sink_on.events()),
              trace::trace_to_jsonl(sink_off.events()));
    // A pruned rep's logits record carries the golden logits, which must
    // be exactly what executing it produced.
    const auto& lon = sink_on.logits();
    const auto& loff = sink_off.logits();
    ASSERT_FALSE(lon.empty());
    ASSERT_EQ(lon.size(), loff.size());
    for (std::size_t i = 0; i < lon.size(); ++i) {
      EXPECT_EQ(lon[i].attempt, loff[i].attempt) << "logits record " << i;
      EXPECT_EQ(lon[i].rep, loff[i].rep) << "logits record " << i;
      EXPECT_TRUE(same_bits(lon[i].logits, loff[i].logits))
          << "logits record " << i;
    }
  }
}

// PFI_PRUNE_VERIFY mode re-executes every pruned injection and PFI_CHECKs
// the logits are bit-identical to the golden pass — run across all three
// emulated dtypes, where the analytic model must reproduce the injector's
// quantize/dequantize arithmetic exactly. A pruner false-positive aborts.
TEST(Sampling, PruneVerifySoundAcrossDtypes) {
  const auto& fx = tiny();
  for (const DType dtype :
       {DType::kFloat32, DType::kFloat16, DType::kInt8}) {
    FaultInjector fi(fx.model, tiny_fi_config(dtype));
    StratifiedCampaignConfig scfg = tiny_campaign(43);
    scfg.base.trials = 96;
    scfg.prune_verify = true;
    const StratifiedResult verified = run_stratified_campaign(fi, fx.ds, scfg);
    EXPECT_GT(verified.pruned, 0u)
        << "dtype " << static_cast<int>(dtype)
        << " pruned nothing - verification vacuous";

    // Verification mode must not perturb any counter.
    FaultInjector fi2(fx.model, tiny_fi_config(dtype));
    scfg.prune_verify = false;
    const StratifiedResult plain = run_stratified_campaign(fi2, fx.ds, scfg);
    EXPECT_TRUE(same_bits(verified.totals, plain.totals));
    EXPECT_EQ(verified.pruned, plain.pruned);
    EXPECT_EQ(verified.faulty_passes, plain.faulty_passes);
  }
}

TEST(Sampling, PruneVerifyEnvStrictParse) {
  // The front ends read PFI_PRUNE_VERIFY through util::env_flag; exercise
  // its strict tri-state contract.
  ASSERT_EQ(setenv("PFI_PRUNE_VERIFY", "1", 1), 0);
  EXPECT_TRUE(util::env_flag("PFI_PRUNE_VERIFY", false));
  ASSERT_EQ(setenv("PFI_PRUNE_VERIFY", "0", 1), 0);
  EXPECT_FALSE(util::env_flag("PFI_PRUNE_VERIFY", false));
  ASSERT_EQ(setenv("PFI_PRUNE_VERIFY", "yes", 1), 0);
  EXPECT_THROW(util::env_flag("PFI_PRUNE_VERIFY", false), Error);
  ASSERT_EQ(unsetenv("PFI_PRUNE_VERIFY"), 0);
  EXPECT_FALSE(util::env_flag("PFI_PRUNE_VERIFY", false));
}

// ------------------------------------------- adaptive early stopping ----

TEST(Sampling, CiTargetStopsEarlyAndZeroTrialStratumIsVacuous) {
  const auto& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  StratifiedCampaignConfig scfg = tiny_campaign(47);
  scfg.base.trials = 4000;  // budget backstop far beyond what the CI needs
  scfg.target_half_width = 0.05;
  const StratifiedResult r = run_stratified_campaign(fi, fx.ds, scfg);

  // The layer-1 sign stratum's weight (0.25 * 1/32) is below the
  // per-stratum budget share sqrt(target^2 / 8), so the CI rule closes it
  // before its first attempt: zero trials, vacuous [0, 1] interval.
  bool saw_zero_trial = false;
  std::size_t stopped = 0;
  for (const StratumOutcome& s : r.strata) {
    if (s.stopped_early) ++stopped;
    if (s.counts.trials == 0) {
      saw_zero_trial = true;
      EXPECT_TRUE(s.stopped_early);
      const Proportion v = s.interval();
      EXPECT_EQ(v.value, 0.0);
      EXPECT_EQ(v.lo, 0.0);
      EXPECT_EQ(v.hi, 1.0);
    }
  }
  EXPECT_TRUE(saw_zero_trial);
  EXPECT_GT(stopped, 0u);
  EXPECT_LT(r.totals.trials, 4000u) << "CI rule never engaged";

  // The pooled interval meets the requested half-width even though some
  // strata carry only their vacuous contribution, and the unsampled mass
  // widens the upper bound only.
  const Proportion est = r.estimate();
  EXPECT_LE((est.hi - est.lo) / 2.0, scfg.target_half_width);
  EXPECT_GE(est.hi, est.value);
  EXPECT_LE(est.lo, est.value);
}

TEST(Sampling, BudgetModeSpendsExactlyTheTrialBudget) {
  const auto& fx = tiny();
  FaultInjector fi(fx.model, tiny_fi_config());
  // 67 does not divide evenly across 8 strata: the largest-remainder
  // allocation must still land exactly on the budget.
  const StratifiedResult r =
      run_stratified_campaign(fi, fx.ds, tiny_campaign(53, 1, 67));
  EXPECT_EQ(r.totals.trials, 67u);
  std::uint64_t sum = 0;
  for (const StratumOutcome& s : r.strata) sum += s.counts.trials;
  EXPECT_EQ(sum, 67u);
}

// ------------------------------------------------ checkpoint format ----

TEST(Sampling, CheckpointStrataRoundTrip) {
  CheckpointState a;
  a.fingerprint = 0x5117e5;
  a.result.trials = 12;
  a.next_unit = 3;
  a.strata.push_back({.trials = 5,
                      .corruptions = 2,
                      .skipped = 1,
                      .non_finite = 1,
                      .pruned = 3,
                      .executed = 2,
                      .attempts = 4,
                      .flags = 1});
  a.strata.push_back({.trials = 7, .attempts = 2, .flags = 2});
  const CheckpointState b = checkpoint_from_json(checkpoint_to_json(a));
  ASSERT_EQ(b.strata.size(), 2u);
  EXPECT_EQ(std::memcmp(&a.strata[0], &b.strata[0],
                        sizeof(StratumCheckpoint)),
            0);
  EXPECT_EQ(std::memcmp(&a.strata[1], &b.strata[1],
                        sizeof(StratumCheckpoint)),
            0);
  EXPECT_EQ(b.result.trials, 12u);
  EXPECT_EQ(b.next_unit, 3u);
}

}  // namespace
}  // namespace pfi::core
