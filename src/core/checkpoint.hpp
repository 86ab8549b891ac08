// Crash-safe campaign checkpointing.
//
// Million-trial campaigns run for hours; before this subsystem a crash,
// OOM, or attempt-cap give-up discarded every completed trial and the whole
// in-memory trace. Checkpoint/resume makes that loss bounded and the
// recovery EXACT:
//
//  * RNG-free by construction — every attempt's randomness is a pure
//    function of (config.seed, attempt index) (PR 1's counter-based
//    seeding), so a checkpoint needs no generator state: the folded
//    CampaignResult plus the next attempt index is the complete resume
//    state.
//
//  * Atomic persistence — after each merged wave the runner writes the
//    checkpoint via util::atomic_write_file (temp + fsync + rename), so a
//    kill at any instant leaves either the previous or the new checkpoint,
//    never a torn one.
//
//  * Streaming trace — trace events append to a JSONL file in merge order
//    as each wave commits, instead of one end-of-run dump. The checkpoint
//    records the committed byte count; on resume any torn tail past it
//    (from a kill mid-append) is truncated away.
//
//  * Fingerprinted — the checkpoint stores a hash of every config field
//    that shapes campaign outcomes (trials, error model, seed, layer, ...)
//    plus a caller context string (model / dataset / dtype). Resuming under
//    a different config is refused loudly. Thread count is deliberately NOT
//    fingerprinted: results are bit-identical at any thread count, so a
//    campaign may be resumed with more or fewer workers.
//
// Headline guarantee (pinned by tests): kill-at-any-wave + resume produces
// byte-identical campaign CSV and trace JSONL to a single uninterrupted
// run, at any thread count.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"

namespace pfi::core {

/// Thrown by the checkpointer's crash-injection test hook
/// (fail_after_commits); never raised in production use.
class CampaignAborted : public Error {
 public:
  explicit CampaignAborted(const std::string& what) : Error(what) {}
};

inline constexpr std::uint64_t kCheckpointVersion = 1;

/// Per-stratum resume state of a stratified campaign (core/sampling.hpp).
/// Plain integers only, persisted as one fixed-order JSON array per stratum;
/// the stratum's identity is its INDEX in the checkpoint's `strata` list
/// (strata enumeration is a pure function of the fingerprinted config).
struct StratumCheckpoint {
  std::uint64_t trials = 0;       ///< scored injections (incl. pruned)
  std::uint64_t corruptions = 0;
  std::uint64_t skipped = 0;
  std::uint64_t non_finite = 0;
  std::uint64_t pruned = 0;       ///< analytically-masked, never executed
  std::uint64_t executed = 0;     ///< faulty forwards actually run
  std::uint64_t attempts = 0;     ///< next stratum-local attempt index
  std::uint64_t flags = 0;        ///< bit 0: stopped early; bit 1: gave up
};

/// Everything a resume needs, exactly as persisted. All fields are plain
/// integers so the on-disk single-line JSON round-trips losslessly.
struct CheckpointState {
  std::uint64_t version = kCheckpointVersion;
  std::uint64_t fingerprint = 0;  ///< campaign_fingerprint() of the config
  CampaignResult result;          ///< folded counters over units [0, next_unit)
  /// Where to resume: the first attempt (classification), weight-fault index
  /// (weight campaign) or event index (fleet campaign) not yet folded into
  /// `result` — one past the last folded unit, whatever the thread count;
  /// the committed wave count (stratified campaign and stratified shard);
  /// the committed record count (classification shard).
  std::uint64_t next_unit = 0;
  std::uint64_t trace_bytes = 0;  ///< committed size of the streaming JSONL
  std::uint64_t done = 0;         ///< 1 once the campaign finished (or gave up)
  /// Stratified campaigns only: one entry per stratum, in stratum order.
  /// Empty for uniform campaigns — their on-disk encoding is unchanged.
  std::vector<StratumCheckpoint> strata;
};

/// Single-line JSON encoding of a checkpoint (the on-disk format; see
/// README "Checkpoint file format").
std::string checkpoint_to_json(const CheckpointState& state);

/// Inverse of checkpoint_to_json. Throws pfi::Error on malformed input or
/// an unsupported version.
CheckpointState checkpoint_from_json(const std::string& text);

/// Fingerprint of every CampaignConfig field that shapes campaign outcomes
/// (excludes threads / trace / checkpoint, which don't). `context` folds in
/// caller-side identity the config can't see — model name, dataset, dtype —
/// so a checkpoint can't be resumed against a different experiment.
std::uint64_t campaign_fingerprint(const CampaignConfig& config,
                                   std::string_view context = "");

/// Weight-campaign analogue of campaign_fingerprint.
std::uint64_t weight_campaign_fingerprint(const WeightCampaignConfig& config,
                                          std::string_view context = "");

/// Fleet-degradation analogue: fingerprints the horizon, batch, input seed,
/// and the full persistent-fault scenario.
std::uint64_t fleet_campaign_fingerprint(const FleetCampaignConfig& config,
                                         std::string_view context = "");

/// Owns a campaign's checkpoint file and (optionally) its streaming trace
/// JSONL. Initialize with begin() for a fresh run or resume() to continue
/// an interrupted one, then hand the pointer to CampaignConfig::checkpoint;
/// the runner calls commit() after every merged wave.
class CampaignCheckpointer {
 public:
  /// `trace_path` empty = checkpoint only, no streaming trace. When set,
  /// the campaign must also be given a TraceSink (the stream's source).
  explicit CampaignCheckpointer(std::string checkpoint_path,
                                std::string trace_path = "");

  /// Start fresh: reset state to zero and truncate any existing streaming
  /// trace file. Nothing touches the checkpoint file until the first
  /// commit, so an existing checkpoint survives until real progress lands.
  void begin(std::uint64_t fingerprint);

  /// Resume: load the checkpoint, verify version + fingerprint (throws
  /// pfi::Error on mismatch), and truncate the streaming trace back to the
  /// committed byte count, dropping any torn tail from a mid-append kill.
  /// Returns false — after falling back to begin() — when no checkpoint
  /// file exists yet.
  bool resume(std::uint64_t fingerprint);

  const CampaignResult& result() const { return state_.result; }
  const std::vector<StratumCheckpoint>& strata() const {
    return state_.strata;
  }
  std::uint64_t next_unit() const { return state_.next_unit; }
  bool done() const { return state_.done != 0; }
  bool streams_trace() const { return !trace_path_.empty(); }
  const std::string& checkpoint_path() const { return path_; }
  const std::string& trace_path() const { return trace_path_; }
  std::uint64_t commits() const { return commits_; }

  /// Commit one merged wave: append `new_events` (the sink's events beyond
  /// the last committed index) to the streaming trace with fsync, then
  /// atomically replace the checkpoint. Ordering matters: trace first, so a
  /// kill between the two leaves extra trace bytes that the NEXT resume
  /// truncates, never missing ones.
  void commit(const CampaignResult& folded, std::uint64_t next_unit, bool done,
              std::span<const trace::InjectionEvent> new_events);

  /// Stratified-campaign variant: also persists the per-stratum resume
  /// states (in stratum order) alongside the pooled counters.
  void commit(const CampaignResult& folded, std::uint64_t next_unit, bool done,
              std::span<const trace::InjectionEvent> new_events,
              std::span<const StratumCheckpoint> strata);

  /// Raw-bytes variant used by shard runs (core/shard.cpp): the streaming
  /// file is an attempt-record log rather than trace JSONL, so the caller
  /// serializes its own lines and this just appends them durably before the
  /// checkpoint lands. Same commit ordering and torn-tail guarantee as the
  /// event path; `trace_bytes` tracks the committed log size.
  void commit_bytes(const CampaignResult& folded, std::uint64_t next_unit,
                    bool done, std::string_view bytes,
                    std::span<const StratumCheckpoint> strata = {});

  /// Committed size of the streaming file (trace JSONL or shard log).
  std::uint64_t trace_bytes() const { return state_.trace_bytes; }

  /// Crash-injection test hook: the n-th commit() completes durably, then
  /// throws CampaignAborted — on-disk state is exactly what a kill
  /// immediately after that commit would leave. 0 disables (default).
  void fail_after_commits(std::uint64_t n) { fail_after_ = n; }

 private:
  std::string path_;
  std::string trace_path_;
  CheckpointState state_;
  std::uint64_t commits_ = 0;
  std::uint64_t fail_after_ = 0;
};

}  // namespace pfi::core
