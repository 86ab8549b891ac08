// Shared internals of the stratified campaign runner (core/sampling.cpp).
// Extracted so core/shard.cpp can drive the SAME schedule, unit draws (run
// by core/campaign_internal.hpp's run_attempt) and fold code in three
// places — the single-process runner, a shard process executing only its
// owned strata, and the merge step replaying recorded outcomes — which is
// what makes a merged shard set byte-identical to a single-process run.
//
// The load-bearing property: in fixed-budget mode (target_half_width == 0)
// every scheduling decision for stratum s (quantum size, open/closed, caps)
// is a pure function of stratum s's own folded counters. Strata are fully
// decoupled, so a shard that owns a subset of strata runs them to their
// exact caps standalone, and the merge replays the global wave interleaving
// over the recorded outcomes. CI mode (target > 0) couples strata through
// s_pos / the pooled interval / the budget backstop, so sharding is refused
// there (core/shard.cpp enforces it with a clear error).
#pragma once

#include "core/campaign_internal.hpp"
#include "core/sampling.hpp"

namespace pfi::core::detail {

inline constexpr std::uint64_t kStratumStoppedEarlyFlag = 1;
inline constexpr std::uint64_t kStratumGaveUpFlag = 2;

/// Max attempts one stratum contributes to a single wave. Small enough that
/// early termination reacts within a wave or two of a stratum resolving,
/// large enough that the per-wave barrier stays negligible. Deliberately
/// NOT a function of the thread count: wave composition must be a pure
/// function of the folded state or stopping decisions would vary with
/// sharding.
inline constexpr std::uint64_t kMaxStratumQuantum = 8;

/// One scheduled stratum attempt: which stratum, its stratum-local attempt
/// index, and the campaign-global sequence number traces stamp as the
/// `attempt` field (stratum-local indices would collide across strata).
struct StratUnit {
  std::size_t stratum = 0;
  std::uint64_t attempt = 0;
  std::uint64_t seq = 0;
};

/// Largest-remainder allocation of the trial budget across strata by
/// weight: caps sum to `trials` exactly, so a budget-mode campaign scores
/// exactly `trials` trials (matching the uniform runner's contract). Ties
/// in the fractional parts break by stratum index — deterministic.
std::vector<std::uint64_t> allocate_stratum_caps(
    std::uint64_t trials, const std::vector<Stratum>& strata);

/// The frozen scheduling inputs of one stratified campaign: strata with
/// their weights, per-stratum trial and attempt caps, the budget, the CI
/// target, and the per-attempt yield bound. A pure function of (config,
/// model architecture); shard manifests embed it verbatim so the merge can
/// replay the schedule without the model.
struct StratifiedSchedule {
  std::vector<Stratum> strata;
  std::vector<std::uint64_t> caps;
  std::vector<std::uint64_t> attempt_caps;
  std::uint64_t trials_budget = 0;
  double target = 0.0;  ///< target_half_width (0 = fixed-budget mode)
  std::int64_t max_yield = 1;
};

/// Validate `config` (the run_stratified_campaign preconditions) and build
/// its schedule.
StratifiedSchedule make_stratified_schedule(
    FaultInjector& fi, const StratifiedCampaignConfig& config);

/// The draw detail::run_attempt executes for `unit`: its stratum's seed
/// root and the unit's stratum-local attempt — so the outcome is a pure
/// function of (config.seed, stratum index, attempt index), never of which
/// worker or process runs it — stamped with the unit's global sequence
/// number. Pruning applies when config.prune is on and the stratum's layer
/// feeds a ReLU (`relu_adj`, from relu_adjacent_layers).
AttemptDraw stratum_draw(const StratifiedCampaignConfig& config,
                         const StratifiedSchedule& sched,
                         const std::vector<bool>& relu_adj,
                         const StratUnit& unit);

/// The deterministic scheduler + fold of a stratified campaign: owns the
/// per-stratum counters, composes waves as a pure function of them, and
/// folds unit outcomes in strict unit order (stamping trace events with the
/// pooled trial index and global sequence number as it goes).
///
/// Three drivers share it: run_stratified_campaign (live execution, all
/// strata), run_stratified_shard (live execution restricted to an ownership
/// mask), and merge_shards (replaying recorded outcomes against the global
/// schedule). Determinism of the merged result reduces to this class being
/// the only scheduler.
class StratifiedFold {
 public:
  StratifiedFold(StratifiedSchedule schedule, trace::TraceSink* sink);

  /// Adopt previously committed per-stratum states (checkpoint resume).
  void restore(const std::vector<StratumCheckpoint>& saved);

  /// The next wave: for each open stratum (restricted to `owned` when
  /// non-null), a yield-sized quantum of consecutive attempts. Empty wave
  /// == campaign done.
  std::vector<StratUnit> compose_wave(
      const std::vector<std::uint8_t>* owned = nullptr) const;

  /// True while any (owned) stratum is still open.
  bool any_open(const std::vector<std::uint8_t>* owned = nullptr) const {
    return !compose_wave(owned).empty();
  }

  /// Fold one unit, honouring the stratum's trial cap exactly as the
  /// uniform merge honours the campaign target. Merged strictly in unit
  /// order, so the folded state (and the trace stream) is identical however
  /// the units were computed.
  void merge_unit(const StratUnit& unit, UnitOutcome& out);

  /// Recompute every stratum's flags from its frozen counters (call at wave
  /// boundaries; pure, so resume and re-evaluation always agree).
  void refresh_flags();

  CampaignResult pooled() const;
  StratifiedResult assemble() const;
  const std::vector<StratumCheckpoint>& states() const { return ck_; }
  const StratifiedSchedule& schedule() const { return sched_; }

 private:
  bool open(std::size_t s, std::uint64_t pooled_trials, std::size_t s_pos,
            bool global_met) const;
  std::size_t count_positive() const;
  bool pooled_target_met() const;

  StratifiedSchedule sched_;
  trace::TraceSink* sink_;
  std::vector<StratumCheckpoint> ck_;
  std::uint64_t pooled_trials_ = 0;
};

}  // namespace pfi::core::detail
