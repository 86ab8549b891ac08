// Multi-process sharded campaign fabric with deterministic merge.
//
// A campaign's attempt space is split across S shard processes; each shard
// computes its owned attempts with the SAME per-attempt code the
// single-process engines use (core/campaign_internal.hpp's run_attempt),
// records every outcome to an append-only log, and describes itself in a
// versioned manifest. A separate merge step replays the single-process fold
// over the recorded outcomes in GLOBAL attempt order — so the merged
// CampaignResult, CSV, and trace JSONL are byte-identical to a
// single-process run, at any shard count x thread count.
//
// Why record-and-replay instead of splitting the trial quota: the uniform
// engine's stopping point is data-dependent (an attempt yields 0..batch*ipi
// trials depending on golden accuracy), so no static partition of the TRIAL
// budget reproduces the serial fold. Partitioning the ATTEMPT space does:
// shard k owns attempts {a : a mod S == k} up to a shared horizon, every
// attempt is a pure function of (seed, attempt index), and the merge simply
// folds attempts 0,1,2,... until the trial target is reached, exactly as
// the serial loop would. If the fold exhausts the horizon before the target,
// the merge throws ShardHorizonExhausted and the driver doubles the horizon
// and resumes every shard from its checkpoint. The in-process driver starts
// at the fewest attempts that could reach the target, ceil(trials /
// (batch_size x injections_per_image)), so it expects to extend whenever
// golden runs misclassify; resumes recompute nothing, and the final horizon
// stays below twice the attempts the serial fold consumes. pfi_launch starts
// at ShardPlan's generous default instead, since each of its rounds respawns
// (and retrains) every worker process.
//
// Stratified campaigns shard by STRATUM instead: in fixed-budget mode every
// scheduling decision for a stratum is a pure function of that stratum's
// own counters (see core/sampling_internal.hpp), so shard k runs strata
// {s : s mod S == k} to their exact caps standalone and the merge replays
// the global wave schedule over the recorded unit outcomes. CI-target mode
// couples strata through the pooled interval and is refused with a clear
// error — run it single-process.
//
// Crash safety rides on the checkpoint subsystem: the shard log streams
// through CampaignCheckpointer::commit_bytes (append + fsync before the
// atomic checkpoint write), so a kill -9 at any instant loses at most one
// in-flight wave and a restarted shard resumes from its checkpoint with the
// log's torn tail truncated — the merged end state is unchanged.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"
#include "core/sampling.hpp"

namespace pfi::core {

/// Thrown by merge_shards when the recorded attempt horizon was exhausted
/// before the trial target was reached: the shards must be resumed with a
/// larger horizon (the in-process drivers and pfi_launch do this
/// automatically). Never raised for stratified campaigns — stratum caps
/// bound their attempt space a priori.
class ShardHorizonExhausted : public Error {
 public:
  explicit ShardHorizonExhausted(const std::string& what) : Error(what) {}
};

inline constexpr std::uint64_t kShardManifestVersion = 1;

/// Largest shard count: pfi_cli and pfi_launch --shards, the shard runners
/// and the in-process drivers refuse more, and the manifest reader refuses
/// any count no writer can produce.
inline constexpr std::int64_t kMaxShards = 4096;

/// How one shard process participates in a campaign.
struct ShardPlan {
  std::int64_t shards = 1;       ///< total shard count S
  std::int64_t shard_index = 0;  ///< this shard's index k in [0, S)
  /// Uniform campaigns: global attempts in [0, horizon) are covered this
  /// round (shard k computes those congruent to k mod S). 0 = the
  /// standalone default, max(16, 4 x trials) clamped to the attempt cap —
  /// generous so a multi-process round rarely needs a second one; the
  /// in-process driver always passes an explicit, minimal horizon instead.
  /// Deliberately NOT part of the shard fingerprint: extending the horizon
  /// resumes the same checkpoint. Ignored by stratified campaigns.
  std::int64_t horizon = 0;
  /// Record every rep's injection events in the shard log so the merge can
  /// emit the campaign's trace stream. Off = counters only (smaller logs).
  bool record_events = false;
  /// Crash-injection test hook, forwarded to the shard's checkpointer: the
  /// n-th commit lands durably, then the run throws CampaignAborted —
  /// on-disk state is exactly a kill right after that commit. 0 = off.
  std::uint64_t fail_after_commits = 0;
};

/// The three files of shard k-of-S inside a shard directory.
struct ShardPaths {
  std::string checkpoint;  ///< crash-safe resume state
  std::string log;         ///< append-only attempt-record JSONL
  std::string manifest;    ///< single-line JSON self-description
};
ShardPaths shard_paths(const std::string& dir, std::int64_t shard_index,
                       std::int64_t shards);

/// A shard's self-description, written atomically after every committed
/// wave. The manifest embeds the full schedule (trial target + cap for
/// uniform campaigns, the per-stratum schedule for stratified ones), so the
/// merge step needs NO model and no campaign config — only the manifests
/// and their logs.
struct ShardManifest {
  std::uint64_t version = kShardManifestVersion;
  std::string kind;               ///< "classification" | "stratified"
  std::uint64_t fingerprint = 0;  ///< base campaign fingerprint (+context)
  std::int64_t shards = 1;
  std::int64_t shard_index = 0;
  std::uint64_t records = 0;    ///< committed attempt records in the log
  std::int64_t horizon = 0;     ///< uniform: attempts < horizon are covered
  std::uint64_t log_bytes = 0;  ///< committed log size (tail past it = torn)
  std::uint64_t log_digest = 0;  ///< fnv1a over the committed log bytes
  std::uint64_t done = 0;        ///< 1 once this shard covered its share
  bool record_events = false;
  std::string log;  ///< log file name, relative to the manifest's directory

  // Embedded uniform schedule (kind == "classification"):
  std::uint64_t trials_target = 0;
  std::int64_t attempt_cap = 0;
  std::int64_t max_yield = 1;

  // Embedded stratified schedule (kind == "stratified"); empty otherwise.
  std::vector<Stratum> strata;
  std::vector<std::uint64_t> stratum_caps;
  std::vector<std::uint64_t> stratum_attempt_caps;
  std::uint64_t trials_budget = 0;
};

std::string shard_manifest_to_json(const ShardManifest& m);
/// Inverse of shard_manifest_to_json. Throws pfi::Error on malformed input
/// or an unsupported version.
ShardManifest shard_manifest_from_json(const std::string& text);
/// Load a manifest from disk; `log` stays relative (resolve against the
/// manifest's directory, as merge_shards does).
ShardManifest read_shard_manifest(const std::string& path);

/// One shard run's outcome: its final manifest (done == 1 when the shard
/// covered its share this round) plus where its files live.
struct ShardRunReport {
  ShardManifest manifest;
  ShardPaths paths;
};

/// Run shard `plan.shard_index` of a uniform classification campaign,
/// writing its checkpoint, record log, and manifest under `dir` (created if
/// missing). Resumes automatically from an existing checkpoint (including
/// after a kill, or to extend the horizon). `config.checkpoint` must be
/// null (shards manage their own) and `config.trace`, if set, must not
/// capture logits — it is used only as the "record events" signal by the
/// CLI; pass plan.record_events directly from library code. `context` is
/// folded into the fingerprint exactly as with CampaignCheckpointer.
ShardRunReport run_classification_shard(FaultInjector& fi,
                                        const data::SyntheticDataset& ds,
                                        const CampaignConfig& config,
                                        const ShardPlan& plan,
                                        const std::string& dir,
                                        std::string_view context = "");

/// Stratified analogue: shard k runs strata {s : s mod S == k} to their
/// caps. Fixed-budget mode only — a CI-target campaign
/// (target_half_width > 0) is refused with an explanatory error.
ShardRunReport run_stratified_shard(FaultInjector& fi,
                                    const data::SyntheticDataset& ds,
                                    const StratifiedCampaignConfig& config,
                                    const ShardPlan& plan,
                                    const std::string& dir,
                                    std::string_view context = "");

/// A deterministic merge of a complete shard set.
struct ShardMerge {
  std::string kind;  ///< "classification" | "stratified"
  CampaignResult classification;  ///< valid when kind == "classification"
  StratifiedResult stratified;    ///< valid when kind == "stratified"
};

/// Validate the shard set and replay the single-process fold over its
/// recorded outcomes. Refuses (pfi::Error, distinct messages): manifest
/// version/fingerprint/shard-count/horizon mismatches, missing or duplicate
/// shard indices, shards that are not done, truncated logs, and log digest
/// mismatches; torn bytes past a log's committed size are ignored, exactly
/// like single-node resume. Throws ShardHorizonExhausted when a uniform
/// fold runs out of recorded attempts before the trial target. `sink`, when
/// non-null, receives the merged trace events in global order (requires
/// every shard to have recorded events; must not capture logits).
ShardMerge merge_shards(const std::vector<std::string>& manifest_paths,
                        trace::TraceSink* sink = nullptr);

/// In-process drivers (tests, benches, single-machine convenience): run all
/// S shards sequentially on this process's injector, extend the horizon and
/// resume as needed, and merge. Semantically identical to pfi_launch with S
/// worker processes. The uniform driver starts at the minimal horizon and
/// doubles it on ShardHorizonExhausted (see the file comment).
CampaignResult run_sharded_classification(FaultInjector& fi,
                                          const data::SyntheticDataset& ds,
                                          const CampaignConfig& config,
                                          std::int64_t shards,
                                          const std::string& dir,
                                          trace::TraceSink* sink = nullptr,
                                          std::string_view context = "");
StratifiedResult run_sharded_stratified(FaultInjector& fi,
                                        const data::SyntheticDataset& ds,
                                        const StratifiedCampaignConfig& config,
                                        std::int64_t shards,
                                        const std::string& dir,
                                        trace::TraceSink* sink = nullptr,
                                        std::string_view context = "");

}  // namespace pfi::core
