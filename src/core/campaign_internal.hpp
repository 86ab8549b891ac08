// Shared internals of the campaign runners (core/campaign.cpp,
// core/sampling.cpp, core/shard.cpp). Not part of the public API. Every
// runner — uniform, weight, fleet, stratified, and both shard kinds — drives
// the same executor, run_ordered_units(): plan a wave, fan it out over the
// workers, fold the outcomes strictly in unit order, commit. The runners
// differ only in what a unit is, how it folds, and what a commit persists,
// so "identical at any thread count, after any kill/resume, across any shard
// split" is one property of one loop rather than six.
#pragma once

#include <cmath>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <type_traits>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/trace.hpp"
#include "nn/loss.hpp"
#include "util/thread_pool.hpp"

namespace pfi::core {
struct Stratum;
}  // namespace pfi::core

namespace pfi::core::detail {

/// Everything one attempt (batch draw + golden run + its injections)
/// observed, in execution order — an attempt of a uniform campaign or a
/// stratum attempt of a stratified one. Kept per-rep so the merge can
/// reproduce the sequential stopping rule exactly: a rep that would run
/// after the trial target was reached is discarded whole, and scored rows
/// past the target are discarded individually. Shard runs (core/shard.cpp)
/// serialize these records verbatim and replay the same fold at merge time
/// — that is what makes a merged shard set byte-identical to a
/// single-process run.
struct UnitOutcome {
  std::uint64_t skipped = 0;
  struct Rep {
    bool non_finite = false;
    bool pruned = false;  // stratified only: masked, faulty forward skipped
    std::vector<std::uint8_t> corrupted;  // per scored row, in score order
    // Trace payload (only populated when a run records events): the rep's
    // attempt (a stratified unit's global sequence number) and index for
    // its logits record, its injection events and, optionally, its faulty
    // logits. Kept on the rep so the ordered merge can discard them with it.
    std::uint64_t attempt = 0;
    std::int32_t rep_index = 0;
    std::vector<trace::InjectionEvent> events;
    Tensor logits;
  };
  std::vector<Rep> reps;
};

/// Refuse a CampaignConfig the runners cannot execute on `fi`. Stratified
/// campaigns impose their own error model and sample one fault per trial,
/// so they skip the error-model check and refuse one_fault_per_layer.
void check_campaign_config(const FaultInjector& fi,
                           const CampaignConfig& config,
                           bool stratified = false);

/// Where one classification attempt draws its randomness and how its trace
/// records are labelled. Uniform attempts draw from (campaign seed, attempt
/// index); a stratified unit draws from its stratum's root,
/// derive_seed(seed, stratum, kStratumStream), and its stratum-local
/// attempt index, and stamps its campaign-global sequence number.
struct AttemptDraw {
  std::uint64_t root = 0;
  std::uint64_t index = 0;
  std::uint64_t attempt = 0;  ///< stamped on the attempt's trace records
  /// Stratified units: the stratum whose layer and bit class every fault is
  /// drawn from (null for uniform attempts, which use config.layer and
  /// config.error_model).
  const Stratum* stratum = nullptr;
  /// The stratum's layer feeds a ReLU and pruning is on: a provably masked
  /// fault skips its faulty forward.
  bool prunable = false;
  /// Run every pruned fault anyway and abort unless its logits are
  /// bit-identical to the golden ones (the pruner's soundness oracle).
  bool prune_verify = false;
};

/// What an attempt records for the caller's trace: its reps' injection
/// events and, with `logits`, their faulty logits.
struct AttemptTrace {
  bool events = false;
  bool logits = false;

  /// The recording a live run streaming into `sink` (null: none) needs.
  static AttemptTrace for_sink(const trace::TraceSink* sink) {
    return {sink != nullptr, sink != nullptr && sink->capture_logits()};
  }
};

/// One self-contained classification attempt — the paper's methodology
/// (Sec. IV-A): one golden run, injections only into the correctly
/// classified rows, Top-1 compared per rep. Every classification runner
/// (uniform, stratified, and their shards) executes this one body. All
/// randomness comes from seeds derived from (draw.root, draw.index), drawn
/// in a fixed order per rep (batch row, then location, then the stratum's
/// bit), so the outcome is a pure function of the draw regardless of which
/// worker (or which process) runs it. A pruned (masked) fault skips only its
/// faulty forward: it is scored by the same RepScorer over the golden
/// logits, which are its faulty logits.
UnitOutcome run_attempt(FaultInjector& fi, const data::SyntheticDataset& ds,
                        const CampaignConfig& config, const AttemptDraw& draw,
                        AttemptTrace trace);

/// Ship one folded unit's trace into `sink` (no-op when null): stamp its
/// events with the first trial index it feeds and its attempt, append them
/// in fold order, and append its logits record when the sink captures
/// logits. Moves out of `events` and `logits`.
void ship_trace(trace::TraceSink* sink, std::uint64_t trial,
                std::uint64_t attempt, std::int32_t rep,
                std::vector<trace::InjectionEvent>& events, Tensor& logits);

/// No trial target: fold every rep of the attempt.
inline constexpr std::uint64_t kNoTrialTarget = ~std::uint64_t{0};

/// Fold one attempt into the running result, honouring the trial target:
/// reps after the target are dropped, and a rep's scored rows are consumed
/// only up to the target. Returns true once the target is reached. Because
/// attempts are merged strictly in index order, the folded result is the
/// same whether the outcomes were computed serially, by a pool, or replayed
/// from shard records.
bool merge_campaign_attempt(CampaignResult& acc, UnitOutcome& outcome,
                            std::uint64_t target = kNoTrialTarget,
                            trace::TraceSink* sink = nullptr);

/// Attempts are capped so a model that never classifies correctly stops
/// instead of looping forever. Hitting the cap is not an error: the
/// campaign returns its partial result with `gave_up` set.
std::int64_t campaign_attempt_cap(const CampaignConfig& config);

/// Wave size of single-worker classification and weight campaigns, which
/// commit once per wave: fsync cost amortizes while a kill still loses only
/// a few attempts. A single worker folds each unit as it finishes and stops
/// at the one that reaches the target, so the wave size never adds work. 32
/// matches the largest parallel wave (4 threads x 8 attempts) and keeps the
/// measured overhead under 1% of campaign time (EXPERIMENTS.md).
inline constexpr std::int64_t kSerialCommitEvery = 32;

// Seed-derivation streams: every attempt gets one stream for data/location
// draws and one for the injector's internal RNG (stochastic error models),
// both functions of (campaign seed, attempt index) only. Stratified
// campaigns interpose kStratumStream so each stratum owns an independent
// attempt-indexed family: derive_seed(seed, stratum, kStratumStream) is the
// stratum's root, and the two per-attempt streams derive from that root.
inline constexpr std::uint64_t kDrawStream = 0;
inline constexpr std::uint64_t kInjectorStream = 1;
inline constexpr std::uint64_t kStratumStream = 2;

/// True when any logit is NaN or infinite.
inline bool has_non_finite(const Tensor& logits) {
  for (const float v : logits.data()) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

/// Scores one faulty forward against the attempt's golden run. Golden
/// argmaxes are computed once per attempt and faulty argmaxes / the
/// non-finite scan once per faulty pass — not once per scored row as the
/// original per-row helper did (an O(rows * classes) rescan per row).
struct RepScorer {
  const std::vector<std::int64_t>& golden_top1;
  const Tensor& faulty;
  std::vector<std::int64_t> faulty_top1;  // only for kTop1Mismatch
  bool faulty_non_finite;
  CorruptionCriterion criterion;

  RepScorer(const std::vector<std::int64_t>& golden_top1_, const Tensor& f,
            CorruptionCriterion crit)
      : golden_top1(golden_top1_),
        faulty(f),
        faulty_non_finite(has_non_finite(f)),
        criterion(crit) {
    if (criterion == CorruptionCriterion::kTop1Mismatch) {
      faulty_top1 = nn::argmax_rows(faulty);
    }
  }

  bool is_corrupted(std::int64_t row) const {
    const auto r = static_cast<std::size_t>(row);
    switch (criterion) {
      case CorruptionCriterion::kTop1Mismatch:
        // NaN logits make argmax meaningless; count them as corruptions, as
        // the observable output is unusable.
        return golden_top1[r] != faulty_top1[r] || faulty_non_finite;
      case CorruptionCriterion::kTop1NotInTop5:
        return !nn::in_top_k(faulty, row, golden_top1[r], 5) ||
               faulty_non_finite;
      case CorruptionCriterion::kNonFiniteOutput:
        return faulty_non_finite;
    }
    PFI_CHECK(false) << "unreachable criterion";
  }
};

/// Streams newly merged trace events to the checkpointer and persists the
/// folded state after each wave. Tracks how much of the caller's sink has
/// already been committed, so each commit ships exactly the wave's events.
class WaveCommitter {
 public:
  WaveCommitter(CampaignCheckpointer* ckpt, const trace::TraceSink* sink)
      : ckpt_(ckpt), sink_(sink) {
    if (ckpt_ != nullptr) {
      PFI_CHECK(!ckpt_->streams_trace() || sink_ != nullptr)
          << "checkpointer streams a trace JSONL but the campaign has no "
             "trace sink to stream from";
      // Only events merged by THIS run stream out; anything already in the
      // caller's sink predates the campaign and is not part of its trace.
      committed_ = sink_ != nullptr ? sink_->size() : 0;
    }
  }

  /// `strata` holds the per-stratum resume states (empty for uniform
  /// campaigns).
  void commit(const CampaignResult& folded, std::uint64_t next_unit, bool done,
              std::span<const StratumCheckpoint> strata = {}) {
    if (ckpt_ == nullptr) return;
    ckpt_->commit(folded, next_unit, done, fresh_events(), strata);
  }

 private:
  std::span<const trace::InjectionEvent> fresh_events() {
    std::span<const trace::InjectionEvent> fresh;
    if (sink_ != nullptr && ckpt_->streams_trace()) {
      fresh = std::span(sink_->events()).subspan(committed_);
      committed_ = sink_->events().size();
    }
    return fresh;
  }

  CampaignCheckpointer* ckpt_;
  const trace::TraceSink* sink_;
  std::size_t committed_ = 0;
};

/// Resolve the `threads` knob: 0 = hardware concurrency, and never more
/// workers than trial units (a replica that would run < 1 unit is pure
/// setup cost).
inline std::int64_t resolve_threads(std::int64_t requested,
                                    std::int64_t units) {
  std::int64_t t = requested == 0
                       ? static_cast<std::int64_t>(
                             util::ThreadPool::hardware_threads())
                       : requested;
  PFI_CHECK(t >= 1) << "threads=" << requested << " must be >= 0";
  return std::clamp<std::int64_t>(t, 1, std::max<std::int64_t>(1, units));
}

/// Attach a worker-local sink to an injector for one attempt, restoring
/// whatever sink was attached before (exception-safe).
class ScopedSink {
 public:
  ScopedSink(FaultInjector& fi, trace::TraceSink* sink)
      : fi_(fi), previous_(fi.trace_sink()) {
    fi_.set_trace_sink(sink);
  }
  ~ScopedSink() { fi_.set_trace_sink(previous_); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  FaultInjector& fi_;
  trace::TraceSink* previous_;
};

/// Worker replicas: index 0 is the caller's injector, the rest deep clones.
struct WorkerSet {
  FaultInjector& primary;
  std::vector<std::unique_ptr<FaultInjector>> owned;

  WorkerSet(FaultInjector& fi, std::int64_t threads) : primary(fi) {
    fi.clear();
    for (std::int64_t t = 1; t < threads; ++t) owned.push_back(fi.replicate());
  }

  std::size_t size() const { return owned.size() + 1; }
  FaultInjector& operator[](std::size_t g) const {
    return g == 0 ? primary : *owned[g - 1];
  }

  /// Replicas die with the set; fold their prefix-cache counters into the
  /// caller's injector first so the campaign report shows whole-campaign
  /// hit rates regardless of thread count.
  ~WorkerSet() {
    for (const auto& replica : owned) primary.absorb_prefix_stats(*replica);
  }
};

/// The wave of `n` consecutive unit indices starting at `first` (empty when
/// n <= 0). A lazy range: planning a wave allocates nothing.
inline auto index_wave(std::int64_t first, std::int64_t n) {
  return std::views::iota(first, first + std::max<std::int64_t>(0, n));
}

/// The one campaign loop:
///
///   1. `plan()` returns the next wave of units (empty = finished);
///   2. the wave fans out so worker g runs the units at wave positions
///      congruent to g, as `run(g, unit)` on replica `set[g]` — no
///      injector is touched by two tasks;
///   3. `fold(unit, outcome)` consumes the outcomes strictly in wave order
///      and returns true to stop — the units after it are discarded;
///   4. `commit(stopped)` persists the folded state.
///
/// A single worker is just a wave with one worker: it runs the units inline
/// and folds each as it finishes, so it computes nothing past the stop.
/// Outcomes are pure functions of their units and fold in unit order, so
/// the folded state is the same for every worker count. The caller owns the
/// WorkerSet so per-replica state (the fleet's persistent faults) can die
/// before the replicas do.
template <typename Plan, typename Run, typename Fold, typename Commit>
void run_ordered_units(const WorkerSet& set, Plan&& plan, Run&& run,
                       Fold&& fold, Commit&& commit) {
  const std::size_t workers = set.size();
  std::optional<util::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  for (bool stopped = false; !stopped;) {
    const auto wave = plan();
    if (wave.empty()) return;
    if (!pool) {
      for (std::size_t i = 0; i < wave.size() && !stopped; ++i) {
        auto outcome = run(std::size_t{0}, wave[i]);
        stopped = fold(wave[i], outcome);
      }
    } else {
      std::vector<std::decay_t<decltype(run(std::size_t{0}, wave[0]))>>
          outcomes(wave.size());
      pool->run(workers, [&](std::size_t g) {
        for (std::size_t i = g; i < wave.size(); i += workers) {
          outcomes[i] = run(g, wave[i]);
        }
      });
      for (std::size_t i = 0; i < wave.size() && !stopped; ++i) {
        stopped = fold(wave[i], outcomes[i]);
      }
    }
    commit(stopped);
  }
}

}  // namespace pfi::core::detail
