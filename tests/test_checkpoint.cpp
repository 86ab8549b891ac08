// Tests for the crash-safe campaign checkpoint subsystem: the on-disk JSON
// round trip, config fingerprinting, torn-tail trace recovery, and the
// headline guarantee — kill-at-any-wave + resume produces byte-identical
// campaign counts, CSV, and streaming trace JSONL to an uninterrupted run,
// at any thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fault_injector.hpp"
#include "core/report.hpp"
#include "core/sampling.hpp"
#include "models/zoo.hpp"
#include "util/fileio.hpp"

namespace pfi::core {
namespace {

using models::make_model;

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

// CampaignResult is a flat struct of uint64 counters precisely so resume
// correctness can be pinned bit-for-bit.
bool same_bits(const CampaignResult& a, const CampaignResult& b) {
  return std::memcmp(&a, &b, sizeof(CampaignResult)) == 0;
}

CampaignConfig neuron_config(std::int64_t threads) {
  CampaignConfig cfg;
  cfg.trials = 24;
  cfg.error_model = single_bit_flip();
  cfg.seed = 91;
  cfg.batch_size = 4;
  cfg.injections_per_image = 2;
  cfg.threads = threads;
  return cfg;
}

/// Fresh model + injector every call (seeds shared with the parallel-engine
/// tests; see test_campaign_parallel.cpp on why seed 90 matters), so crashed
/// and resumed runs start from bit-identical weights.
CampaignResult run_checkpointed(std::int64_t threads,
                                CampaignCheckpointer* ckpt,
                                trace::TraceSink* sink,
                                std::int64_t attempt_cap = 0,
                                std::int64_t trials = 24) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, {.input_shape = {3, 32, 32}, .batch_size = 4});
  CampaignConfig cfg = neuron_config(threads);
  cfg.trials = trials;
  cfg.attempt_cap = attempt_cap;
  cfg.trace = sink;
  cfg.checkpoint = ckpt;
  return run_classification_campaign(fi, ds, cfg);
}

// ---------------------------------------------------------- JSON format ----

TEST(CheckpointJson, RoundTripIsLossless) {
  CheckpointState a;
  a.fingerprint = 0xdeadbeefcafebabeull;
  a.result.trials = 123456789;
  a.result.skipped = 42;
  a.result.corruptions = 999;
  a.result.non_finite = 7;
  a.result.gave_up = 1;
  a.next_unit = 0xffffffffffffffffull;  // full uint64 range survives
  a.trace_bytes = 1ull << 40;
  a.done = 1;

  const CheckpointState b = checkpoint_from_json(checkpoint_to_json(a));
  EXPECT_EQ(b.version, kCheckpointVersion);
  EXPECT_EQ(b.fingerprint, a.fingerprint);
  EXPECT_TRUE(same_bits(a.result, b.result));
  EXPECT_EQ(b.next_unit, a.next_unit);
  EXPECT_EQ(b.trace_bytes, a.trace_bytes);
  EXPECT_EQ(b.done, a.done);
}

TEST(CheckpointJson, RejectsMalformedInput) {
  EXPECT_THROW(checkpoint_from_json(""), Error);
  EXPECT_THROW(checkpoint_from_json("not json at all"), Error);
  EXPECT_THROW(checkpoint_from_json("{\"version\":1}"), Error);
  // One edit away from the writer's output, each of these used to be read
  // as some checkpoint.
  const std::string good = checkpoint_to_json(CheckpointState{});
  ASSERT_NO_THROW(checkpoint_from_json(good));
  const std::string body = good.substr(0, good.size() - 2);  // drop "}\n"
  std::string dup = good;
  dup.insert(dup.find(",\"skipped\""), ",\"trials\":5");
  EXPECT_THROW(checkpoint_from_json(good + "x"), Error);
  EXPECT_THROW(checkpoint_from_json(dup), Error);
  EXPECT_THROW(checkpoint_from_json(body + ",\"bogus\":1}\n"), Error);
  EXPECT_THROW(checkpoint_from_json(body), Error);
  EXPECT_THROW(checkpoint_from_json(body + ",\"strata\":[]}\n"), Error);
}

TEST(CheckpointJson, RejectsUnknownVersion) {
  CheckpointState a;
  std::string json = checkpoint_to_json(a);
  const auto pos = json.find("\"version\":1");
  ASSERT_NE(pos, std::string::npos) << json;
  json.replace(pos, 11, "\"version\":99");
  EXPECT_THROW(checkpoint_from_json(json), Error);
}

// ---------------------------------------------------------- fingerprint ----

TEST(CheckpointFingerprint, SensitiveToOutcomeShapingFields) {
  const CampaignConfig base = neuron_config(1);
  const std::uint64_t fp = campaign_fingerprint(base, "ctx");

  CampaignConfig c = base;
  c.seed += 1;
  EXPECT_NE(campaign_fingerprint(c, "ctx"), fp);

  c = base;
  c.trials += 1;
  EXPECT_NE(campaign_fingerprint(c, "ctx"), fp);

  c = base;
  c.injections_per_image += 1;
  EXPECT_NE(campaign_fingerprint(c, "ctx"), fp);

  EXPECT_NE(campaign_fingerprint(base, "other-model"), fp);

  // Doubles are hashed by bit pattern, so values that print alike at six
  // significant digits must still fingerprint apart.
  StratifiedCampaignConfig strat;
  strat.base = base;
  strat.target_half_width = 0.01;
  StratifiedCampaignConfig strat2 = strat;
  strat2.target_half_width = 0.0100000001;
  EXPECT_NE(stratified_fingerprint(strat2, "ctx"),
            stratified_fingerprint(strat, "ctx"));

  FleetCampaignConfig fleet;
  fleet.scenario.ber = 1e-7;
  fleet.scenario.distance_mean = 1.5;
  fleet.scenario.distance_stddev = 0.25;
  const std::uint64_t fleet_fp = fleet_campaign_fingerprint(fleet, "ctx");
  FleetCampaignConfig f = fleet;
  f.scenario.ber = 1.0000001e-7;
  EXPECT_NE(fleet_campaign_fingerprint(f, "ctx"), fleet_fp);
  f = fleet;
  f.scenario.distance_mean = 1.5000001;
  EXPECT_NE(fleet_campaign_fingerprint(f, "ctx"), fleet_fp);
  f = fleet;
  f.scenario.distance_stddev = 0.25000001;
  EXPECT_NE(fleet_campaign_fingerprint(f, "ctx"), fleet_fp);
}

TEST(CheckpointFingerprint, ThreadCountDeliberatelyExcluded) {
  // Results are bit-identical at any thread count, so resuming with a
  // different worker count must be allowed.
  EXPECT_EQ(campaign_fingerprint(neuron_config(1), "ctx"),
            campaign_fingerprint(neuron_config(4), "ctx"));
}

// -------------------------------------------------- checkpointer basics ----

TEST(Checkpointer, ResumeWithoutFileFallsBackToBegin) {
  TempFile ck("/tmp/pfi_ckpt_nofile.json");
  CampaignCheckpointer c(ck.path);
  EXPECT_FALSE(c.resume(7));
  EXPECT_EQ(c.next_unit(), 0u);
  EXPECT_FALSE(c.done());
}

TEST(Checkpointer, ResumeRefusesWrongFingerprint) {
  TempFile ck("/tmp/pfi_ckpt_wrongfp.json");
  {
    CampaignCheckpointer a(ck.path);
    a.begin(7);
    CampaignResult folded;
    folded.trials = 5;
    a.commit(folded, 3, false, {});
  }
  CampaignCheckpointer b(ck.path);
  EXPECT_THROW(b.resume(8), Error);
  EXPECT_NO_THROW(b.resume(7));
  EXPECT_EQ(b.next_unit(), 3u);
  EXPECT_EQ(b.result().trials, 5u);
}

TEST(Checkpointer, TruncatesTornTraceTailOnResume) {
  TempFile ck("/tmp/pfi_ckpt_torn.json");
  TempFile tr("/tmp/pfi_trace_torn.jsonl");

  std::vector<trace::InjectionEvent> events(2);
  events[0].layer_name = "features.0";
  events[1].layer_name = "features.3";
  CampaignResult folded;
  folded.trials = 2;
  {
    CampaignCheckpointer a(ck.path, tr.path);
    a.begin(11);
    a.commit(folded, 2, false, events);
  }
  const std::int64_t committed = util::file_size(tr.path);
  ASSERT_GT(committed, 0);

  // A kill mid-append leaves a torn, non-JSON tail past the committed size.
  util::append_file_sync(tr.path, "{\"torn\":tru");
  CampaignCheckpointer b(ck.path, tr.path);
  ASSERT_TRUE(b.resume(11));
  EXPECT_EQ(util::file_size(tr.path), committed);
  EXPECT_EQ(b.next_unit(), 2u);
  EXPECT_TRUE(same_bits(b.result(), folded));
}

TEST(Checkpointer, ResumeRefusesShrunkenTraceFile) {
  TempFile ck("/tmp/pfi_ckpt_shrunk.json");
  TempFile tr("/tmp/pfi_trace_shrunk.jsonl");
  std::vector<trace::InjectionEvent> events(1);
  {
    CampaignCheckpointer a(ck.path, tr.path);
    a.begin(13);
    a.commit({}, 1, false, events);
  }
  // Committed trace bytes that vanished mean the trace is unrecoverable.
  util::truncate_file(tr.path, 0);
  CampaignCheckpointer b(ck.path, tr.path);
  EXPECT_THROW(b.resume(13), Error);
}

// ------------------------------------------------- kill-and-resume runs ----

/// Kill a `threads`-worker run after its first commit and resume it with
/// `resume_threads` workers: thread count is not fingerprinted, so a resume
/// may change it and must still land on the same bytes.
void kill_and_resume_case(std::int64_t threads, std::int64_t resume_threads) {
  // Enough trials that the serial path crosses several 32-attempt commit
  // intervals (and the parallel path several waves) before finishing, so
  // the crash below genuinely lands mid-run, not on the final commit.
  constexpr std::int64_t kKillTrials = 48;
  const std::string tag =
      "t" + std::to_string(threads) + "r" + std::to_string(resume_threads);
  TempFile ck_ref("/tmp/pfi_ckpt_ref_" + tag + ".json");
  TempFile tr_ref("/tmp/pfi_trace_ref_" + tag + ".jsonl");
  TempFile ck_crash("/tmp/pfi_ckpt_crash_" + tag + ".json");
  TempFile tr_crash("/tmp/pfi_trace_crash_" + tag + ".jsonl");
  CampaignConfig fp_cfg = neuron_config(threads);
  fp_cfg.trials = kKillTrials;
  const std::uint64_t fp = campaign_fingerprint(fp_cfg, "kill-test");

  // Uninterrupted reference run, streaming its trace.
  CampaignCheckpointer ref(ck_ref.path, tr_ref.path);
  ref.begin(fp);
  trace::TraceSink ref_sink;
  const CampaignResult ref_result =
      run_checkpointed(threads, &ref, &ref_sink, 0, kKillTrials);

  // Crashed run: the hook makes the first commit durable, then aborts — the
  // on-disk state is exactly a kill immediately after that commit.
  CampaignCheckpointer crash(ck_crash.path, tr_crash.path);
  crash.begin(fp);
  crash.fail_after_commits(1);
  trace::TraceSink crash_sink;
  EXPECT_THROW(run_checkpointed(threads, &crash, &crash_sink, 0, kKillTrials),
               CampaignAborted);

  // Worst case: the kill also tore a trace line mid-append.
  util::append_file_sync(tr_crash.path, "{\"attempt\":9999,\"tor");

  CampaignCheckpointer resumed(ck_crash.path, tr_crash.path);
  ASSERT_TRUE(resumed.resume(fp));
  EXPECT_GT(resumed.next_unit(), 0u);
  EXPECT_FALSE(resumed.done());
  EXPECT_LT(resumed.result().trials, ref_result.trials);
  trace::TraceSink resume_sink;
  const CampaignResult resumed_result = run_checkpointed(
      resume_threads, &resumed, &resume_sink, 0, kKillTrials);

  // The headline guarantee: counts, CSV, and trace bytes all identical.
  EXPECT_TRUE(same_bits(ref_result, resumed_result));
  EXPECT_EQ(util::read_file(tr_ref.path), util::read_file(tr_crash.path));

  TempFile csv_ref("/tmp/pfi_csv_ref_" + tag + ".csv");
  TempFile csv_res("/tmp/pfi_csv_res_" + tag + ".csv");
  write_campaign_csv(csv_ref.path, {{"squeezenet", ref_result}});
  write_campaign_csv(csv_res.path, {{"squeezenet", resumed_result}});
  EXPECT_EQ(util::read_file(csv_ref.path), util::read_file(csv_res.path));
}

TEST(CheckpointResume, KillAndResumeByteIdenticalSerial) {
  kill_and_resume_case(1, 1);
}

TEST(CheckpointResume, KillAndResumeByteIdenticalFourThreads) {
  kill_and_resume_case(4, 4);
}

TEST(CheckpointResume, KillAtFourThreadsResumeAtOne) {
  kill_and_resume_case(4, 1);
}

TEST(CheckpointResume, KillAtOneThreadResumeAtTwo) {
  kill_and_resume_case(1, 2);
}

TEST(CheckpointResume, StreamedTraceIdenticalAcrossThreadCounts) {
  TempFile ck1("/tmp/pfi_ckpt_x1.json");
  TempFile tr1("/tmp/pfi_trace_x1.jsonl");
  const std::uint64_t fp =
      campaign_fingerprint(neuron_config(1), "thread-invariance");

  CampaignCheckpointer c1(ck1.path, tr1.path);
  c1.begin(fp);
  trace::TraceSink s1;
  const auto r1 = run_checkpointed(1, &c1, &s1);
  const std::string bytes = util::read_file(tr1.path);
  EXPECT_FALSE(bytes.empty());
  // The streamed file is exactly the in-memory sink's JSONL.
  EXPECT_EQ(bytes, trace::trace_to_jsonl(s1.events()));

  for (const std::int64_t threads : {std::int64_t{2}, std::int64_t{4}}) {
    const std::string tag = std::to_string(threads);
    TempFile ck("/tmp/pfi_ckpt_x" + tag + ".json");
    TempFile tr("/tmp/pfi_trace_x" + tag + ".jsonl");
    CampaignCheckpointer c(ck.path, tr.path);
    c.begin(fp);
    trace::TraceSink s;
    const auto r = run_checkpointed(threads, &c, &s);

    EXPECT_TRUE(same_bits(r1, r)) << "threads=" << threads;
    EXPECT_EQ(bytes, util::read_file(tr.path)) << "threads=" << threads;
    // The final checkpoint names one past the last folded attempt, not the
    // end of the last wave, so it is byte-identical too.
    EXPECT_EQ(util::read_file(ck1.path), util::read_file(ck.path))
        << "threads=" << threads;
  }
}

TEST(CheckpointResume, SingleWorkerComputesNothingPastTheStop) {
  // One worker folds each attempt as it finishes and stops at the one that
  // reaches the target: every attempt it ran (one golden pass each) is
  // below the checkpoint's next unit, and none is past it.
  TempFile ck("/tmp/pfi_ckpt_serial_stop.json");
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, {.input_shape = {3, 32, 32}, .batch_size = 4});
  ASSERT_NE(fi.prefix_cache(), nullptr);
  CampaignConfig cfg = neuron_config(1);
  cfg.trials = 48;
  CampaignCheckpointer ckpt(ck.path);
  ckpt.begin(campaign_fingerprint(cfg, "serial-stop"));
  cfg.checkpoint = &ckpt;
  const CampaignResult r = run_classification_campaign(fi, ds, cfg);
  EXPECT_EQ(r.trials, 48u);
  EXPECT_TRUE(ckpt.done());
  EXPECT_EQ(fi.prefix_cache()->stats().golden_records, ckpt.next_unit());
}

TEST(CheckpointResume, ResumeOfFinishedRunReturnsWithoutWork) {
  TempFile ck("/tmp/pfi_ckpt_done.json");
  const std::uint64_t fp = campaign_fingerprint(neuron_config(1), "done");

  CampaignCheckpointer first(ck.path);
  first.begin(fp);
  const auto full = run_checkpointed(1, &first, nullptr);

  CampaignCheckpointer again(ck.path);
  ASSERT_TRUE(again.resume(fp));
  EXPECT_TRUE(again.done());
  const auto replay = run_checkpointed(1, &again, nullptr);
  EXPECT_TRUE(same_bits(full, replay));
  EXPECT_EQ(again.commits(), 0u);  // no new work, no new writes
}

// --------------------------------------------------------------- give-up ----

TEST(CampaignGiveUp, ReturnsPartialResultAndSurfacesInReports) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, {.input_shape = {3, 32, 32}, .batch_size = 4});
  CampaignConfig cfg = neuron_config(1);
  cfg.trials = 1'000'000;  // unreachable before the cap
  cfg.attempt_cap = 6;

  const CampaignResult r = run_classification_campaign(fi, ds, cfg);
  EXPECT_EQ(r.gave_up, 1u);
  EXPECT_LT(r.trials, 1'000'000u);

  const std::string table = campaign_table({{"squeezenet", r}});
  EXPECT_NE(table.find("GAVE UP"), std::string::npos) << table;

  TempFile csv("/tmp/pfi_csv_gaveup.csv");
  write_campaign_csv(csv.path, {{"squeezenet", r}});
  const std::string text = util::read_file(csv.path);
  const std::string row_prefix =
      "squeezenet," + std::to_string(r.trials) + "," +
      std::to_string(r.skipped) + "," + std::to_string(r.corruptions) + "," +
      std::to_string(r.non_finite) + ",1,";
  EXPECT_NE(text.find(row_prefix), std::string::npos) << text;
}

TEST(CampaignGiveUp, GiveUpCheckpointIsFinal) {
  TempFile ck("/tmp/pfi_ckpt_gaveup.json");
  CampaignConfig cfg = neuron_config(1);
  cfg.trials = 1'000'000;
  cfg.attempt_cap = 6;
  const std::uint64_t fp = campaign_fingerprint(cfg, "gave-up");

  CampaignCheckpointer first(ck.path);
  first.begin(fp);
  const auto partial =
      run_checkpointed(1, &first, nullptr, cfg.attempt_cap, cfg.trials);
  EXPECT_EQ(partial.gave_up, 1u);

  // The give-up checkpoint is marked done: resuming returns the partial
  // result instead of spinning against the cap again.
  CampaignCheckpointer again(ck.path);
  ASSERT_TRUE(again.resume(fp));
  EXPECT_TRUE(again.done());
  const auto replay =
      run_checkpointed(1, &again, nullptr, cfg.attempt_cap, cfg.trials);
  EXPECT_TRUE(same_bits(partial, replay));
}

// ------------------------------------------------------- weight campaign ----

// 40 faults so every thread count needs more than one wave (a 4-thread wave
// covers 32 faults) — otherwise the first commit is already the final one
// and there is nothing to resume.
constexpr std::int64_t kWeightFaults = 40;

CampaignResult run_weight_checkpointed(std::int64_t threads,
                                       CampaignCheckpointer* ckpt) {
  Rng rng(92);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, {.input_shape = {3, 32, 32}, .batch_size = 4});
  WeightCampaignConfig cfg;
  cfg.faults = kWeightFaults;
  cfg.images_per_fault = 4;
  cfg.error_model = single_bit_flip();
  cfg.seed = 93;
  cfg.threads = threads;
  cfg.checkpoint = ckpt;
  return run_weight_campaign(fi, ds, cfg);
}

TEST(CheckpointResume, WeightCampaignKillAndResume) {
  // (kill threads, resume threads): a resume may change the thread count.
  for (const auto& [threads, resume_threads] :
       {std::pair<std::int64_t, std::int64_t>{1, 1}, {4, 4}, {4, 1}, {1, 2}}) {
    TempFile ck_ref("/tmp/pfi_wckpt_ref.json");
    TempFile ck_crash("/tmp/pfi_wckpt_crash.json");
    WeightCampaignConfig fp_cfg;
    fp_cfg.faults = kWeightFaults;
    fp_cfg.images_per_fault = 4;
    fp_cfg.error_model = single_bit_flip();
    fp_cfg.seed = 93;
    const std::uint64_t fp = weight_campaign_fingerprint(fp_cfg, "w-kill");

    CampaignCheckpointer ref(ck_ref.path);
    ref.begin(fp);
    const auto full = run_weight_checkpointed(threads, &ref);

    CampaignCheckpointer crash(ck_crash.path);
    crash.begin(fp);
    crash.fail_after_commits(1);
    EXPECT_THROW(run_weight_checkpointed(threads, &crash), CampaignAborted);

    CampaignCheckpointer resumed(ck_crash.path);
    ASSERT_TRUE(resumed.resume(fp));
    EXPECT_GT(resumed.next_unit(), 0u);
    EXPECT_LT(resumed.next_unit(), static_cast<std::uint64_t>(kWeightFaults));
    const auto recovered = run_weight_checkpointed(resume_threads, &resumed);
    EXPECT_TRUE(same_bits(full, recovered))
        << "threads=" << threads << " resume_threads=" << resume_threads;
  }
}

TEST(CheckpointResume, PerLayerCampaignRefusesSharedCheckpoint) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, {.input_shape = {3, 32, 32}, .batch_size = 4});
  TempFile ck("/tmp/pfi_ckpt_perlayer.json");
  CampaignCheckpointer c(ck.path);
  c.begin(1);
  CampaignConfig cfg = neuron_config(1);
  cfg.checkpoint = &c;
  EXPECT_THROW(run_per_layer_campaign(fi, ds, cfg), Error);
}

}  // namespace
}  // namespace pfi::core
