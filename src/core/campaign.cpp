#include "core/campaign.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <span>

#include "core/campaign_internal.hpp"
#include "core/checkpoint.hpp"
#include "core/sampling.hpp"
#include "nn/loss.hpp"

namespace pfi::core {

namespace detail {

void check_campaign_config(const FaultInjector& fi,
                           const CampaignConfig& config, bool stratified) {
  const char* what = stratified ? "stratified campaign" : "campaign";
  PFI_CHECK(config.trials > 0) << what << " trials=" << config.trials;
  PFI_CHECK(stratified || config.error_model.apply != nullptr)
      << what << " error model is unset";
  PFI_CHECK(config.batch_size >= 1 &&
            config.batch_size <= fi.config().batch_size)
      << what << " batch_size " << config.batch_size
      << " exceeds injector batch size " << fi.config().batch_size;
  PFI_CHECK(config.injections_per_image >= 1)
      << what << " injections_per_image " << config.injections_per_image;
  PFI_CHECK(config.threads >= 0) << what << " threads=" << config.threads;
  PFI_CHECK(config.attempt_cap >= 0)
      << what << " attempt_cap=" << config.attempt_cap;
  PFI_CHECK(!(stratified && config.one_fault_per_layer))
      << "stratified campaigns sample one fault per trial; "
         "one_fault_per_layer is the uniform runner's mode";
}

namespace {

/// The post-ReLU bit pattern of an activation — EXACTLY nn::ReLU's forward
/// expression (v > 0 ? v : 0), so bit-equality here is bit-equality of the
/// downstream ReLU layer's output. Maps NaN and every non-positive value
/// (including -0.0f) to +0.0f, exactly as the layer does.
std::uint32_t relu_bits(float v) {
  const float r = v > 0.0f ? v : 0.0f;
  return std::bit_cast<std::uint32_t>(r);
}

/// Captures one instrumented layer's golden output during a kRecordGolden
/// pass. Registered AFTER the injector's own hook (construction order), so
/// it observes the post-dtype-emulation activation — the exact domain the
/// injector applies faults in.
class GoldenCapture {
 public:
  GoldenCapture(FaultInjector& fi, std::int64_t layer)
      : module_(fi.layer(layer)) {
    handle_ = module_.register_forward_hook(
        [this](nn::Module&, const Tensor&, Tensor& output) {
          captured_ = output.clone();
        });
  }
  ~GoldenCapture() { module_.remove_hook(handle_); }
  GoldenCapture(const GoldenCapture&) = delete;
  GoldenCapture& operator=(const GoldenCapture&) = delete;

  const Tensor& captured() const {
    PFI_CHECK(captured_.defined())
        << "golden capture hook never fired (layer not executed?)";
    return captured_;
  }

 private:
  nn::Module& module_;
  nn::HookHandle handle_ = 0;
  Tensor captured_;
};

}  // namespace

UnitOutcome run_attempt(FaultInjector& fi, const data::SyntheticDataset& ds,
                        const CampaignConfig& config, const AttemptDraw& draw,
                        AttemptTrace trace) {
  Rng rng(derive_seed(draw.root, draw.index, kDrawStream));
  fi.reseed(derive_seed(draw.root, draw.index, kInjectorStream));

  // Worker-local trace buffer: single-threaded, lock-free; the ordered fold
  // ships its contents into the caller's sink.
  trace::TraceSink local(trace.logits);
  ScopedSink sink_guard(fi, trace.events ? &local : fi.trace_sink());

  UnitOutcome out;
  const auto batch = ds.sample_batch(config.batch_size, rng);

  // Golden run (dtype emulation still active; faults are not), recorded as
  // the attempt's reusable prefix. Argmaxed once; every rep scores against
  // these indices. When pruning applies, the capture hook clones the
  // stratum's layer output in the injector's emulation domain.
  const Stratum* st = draw.stratum;
  std::optional<GoldenCapture> capture;
  if (draw.prunable) capture.emplace(fi, st->layer);
  fi.clear();
  const Tensor golden =
      fi.forward(batch.images, ForwardMode::kRecordGolden);
  const auto golden_top1 = nn::argmax_rows(golden);

  // The paper only injects into inferences that are correct to begin with.
  std::vector<std::int64_t> eligible;
  for (std::size_t i = 0; i < batch.labels.size(); ++i) {
    if (golden_top1[i] == batch.labels[i]) {
      eligible.push_back(static_cast<std::int64_t>(i));
    } else {
      ++out.skipped;
    }
  }
  if (eligible.empty()) return out;

  const std::int64_t layer = st != nullptr ? st->layer : config.layer;
  // The pruner's analytic injection site: the layer's dtype and the golden
  // pass's emulation params, i.e. exactly what the hook would apply.
  Rng analytic_rng(0);  // never drawn from: a fixed-bit flip is deterministic
  InjectionContext site;
  if (draw.prunable) {
    site.layer = layer;
    site.dtype = fi.layer_dtype(layer);
    site.qparams = fi.golden_qparams(layer);
    site.rng = &analytic_rng;
  }
  ErrorModel bit_flip;  // stratified: this rep's fixed-bit model

  out.reps.reserve(static_cast<std::size_t>(config.injections_per_image));
  for (std::int64_t rep = 0; rep < config.injections_per_image; ++rep) {
    local.set_context(draw.attempt, static_cast<std::int32_t>(rep));
    NeuronLocation loc;
    loc.batch = config.same_fault_across_batch
                    ? kAllBatchElements
                    : eligible[rng.next_below(eligible.size())];
    if (config.one_fault_per_layer) {
      for (std::int64_t l = 0; l < fi.num_layers(); ++l) {
        NeuronLocation per = fi.random_neuron_location(rng, l);
        per.batch = loc.batch;
        fi.declare_neuron_fault(per, config.error_model);
      }
    } else {
      const NeuronLocation drawn = fi.random_neuron_location(rng, layer);
      loc.layer = drawn.layer;
      loc.c = drawn.c;
      loc.h = drawn.h;
      loc.w = drawn.w;
    }
    if (st != nullptr) {
      const auto width =
          static_cast<std::uint64_t>(st->bit_hi - st->bit_lo + 1);
      bit_flip = single_bit_flip(st->bit_lo +
                                 static_cast<int>(rng.next_below(width)));
    }
    const ErrorModel& em = st != nullptr ? bit_flip : config.error_model;

    // Pruning: the fault is provably masked only if the post-ReLU bits are
    // unchanged on EVERY row it touches — scoring reads per-row argmaxes,
    // but the non-finite scan covers the whole tensor, so an untouched-row
    // change would be observable. A masked fault records the events the
    // real injection would have, from the same analytic values, so the
    // trace is byte-identical with pruning on or off.
    bool masked = draw.prunable;
    if (masked) {
      const Tensor& act = capture->captured();
      const bool all = loc.batch == kAllBatchElements;
      const std::int64_t b1 = all ? config.batch_size : loc.batch + 1;
      for (std::int64_t b = all ? 0 : loc.batch; b < b1 && masked; ++b) {
        const std::int64_t flat = act.offset_of(b, loc.c, loc.h, loc.w);
        site.flat_index = flat;
        const float pre = act[flat];
        const float post = em.apply(pre, site);
        masked = relu_bits(post) == relu_bits(pre);
        if (masked && trace.events) {
          fi.record_neuron_event(layer, {b, loc.c, loc.h, loc.w}, flat, pre,
                                 post, em.name, site.qparams);
        }
      }
      // An unmasked fault executes below and records its own events.
      if (!masked && trace.events) local.take_events();
    }

    // A masked fault skips its faulty forward: its faulty logits ARE the
    // golden logits. Verify mode runs it anyway — untraced, so the trace
    // matches a non-verify run — and demands exactly that, the strongest
    // form of "top-1 unchanged".
    Tensor executed;
    if (!masked || draw.prune_verify) {
      ScopedSink untraced_if_masked(fi, masked ? nullptr : fi.trace_sink());
      if (!config.one_fault_per_layer) fi.declare_neuron_fault(loc, em);
      executed = fi.forward(batch.images, ForwardMode::kReusePrefix);
      fi.clear();
      PFI_CHECK(!masked ||
                (executed.data().size() == golden.data().size() &&
                 std::memcmp(executed.data().data(), golden.data().data(),
                             golden.data().size() * sizeof(float)) == 0))
          << "PRUNE VERIFY FAILED: injection at layer " << layer << " fmap "
          << loc.c << " (" << loc.h << ", " << loc.w << ") by " << em.name
          << " was pruned as masked but changed the logits";
    }
    const Tensor& faulty = masked ? golden : executed;

    const RepScorer scorer(golden_top1, faulty, config.criterion);
    UnitOutcome::Rep r;
    r.non_finite = scorer.faulty_non_finite;
    r.pruned = masked;
    if (trace.events) {
      r.attempt = draw.attempt;
      r.rep_index = static_cast<std::int32_t>(rep);
      r.events = local.take_events();
      if (local.capture_logits()) r.logits = faulty.clone();
    }
    // Score each eligible element the fault touched.
    for (const std::int64_t row : eligible) {
      if (loc.batch != kAllBatchElements && loc.batch != row) continue;
      r.corrupted.push_back(scorer.is_corrupted(row) ? 1 : 0);
    }
    out.reps.push_back(std::move(r));
  }
  return out;
}

void ship_trace(trace::TraceSink* sink, std::uint64_t trial,
                std::uint64_t attempt, std::int32_t rep,
                std::vector<trace::InjectionEvent>& events, Tensor& logits) {
  if (sink == nullptr) return;
  for (trace::InjectionEvent& ev : events) {
    ev.trial = trial;
    ev.attempt = attempt;
  }
  sink->append(std::move(events));
  if (sink->capture_logits() && logits.defined()) {
    sink->append_logits({attempt, rep, std::move(logits)});
  }
}

bool merge_campaign_attempt(CampaignResult& acc, UnitOutcome& outcome,
                            std::uint64_t target, trace::TraceSink* sink) {
  acc.skipped += outcome.skipped;
  for (auto& rep : outcome.reps) {
    if (acc.trials >= target) break;
    if (rep.non_finite) ++acc.non_finite;
    // The rep made the cut, so its trace ships, stamped with the first
    // trial index it feeds.
    ship_trace(sink, acc.trials, rep.attempt, rep.rep_index, rep.events,
               rep.logits);
    for (const std::uint8_t corrupted : rep.corrupted) {
      ++acc.trials;
      acc.corruptions += corrupted;
      if (acc.trials >= target) break;
    }
  }
  return acc.trials >= target;
}

std::int64_t campaign_attempt_cap(const CampaignConfig& config) {
  return config.attempt_cap > 0 ? config.attempt_cap
                                : 10'000 + config.trials * 1'000;
}

}  // namespace detail

namespace {

using detail::AttemptTrace;
using detail::campaign_attempt_cap;
using detail::index_wave;
using detail::kDrawStream;
using detail::kInjectorStream;
using detail::kSerialCommitEvery;
using detail::merge_campaign_attempt;
using detail::RepScorer;
using detail::resolve_threads;
using detail::run_ordered_units;
using detail::ScopedSink;
using detail::ship_trace;
using detail::UnitOutcome;
using detail::WaveCommitter;
using detail::WorkerSet;

}  // namespace

CampaignResult run_classification_campaign(FaultInjector& fi,
                                           const data::SyntheticDataset& ds,
                                           const CampaignConfig& config) {
  detail::check_campaign_config(fi, config);

  fi.model().eval();
  const auto target = static_cast<std::uint64_t>(config.trials);
  const std::int64_t max_yield =
      config.batch_size * config.injections_per_image;
  // A worker that can't fill ~4 attempts has no time to amortize its model
  // replica; don't spin one up.
  const std::int64_t threads = resolve_threads(
      config.threads, std::max<std::int64_t>(1, config.trials / 4));
  const std::int64_t cap = campaign_attempt_cap(config);
  const AttemptTrace trace = AttemptTrace::for_sink(config.trace);

  CampaignResult result;
  std::int64_t next_attempt = 0;
  if (config.checkpoint != nullptr) {
    // Resume state is just (folded counters, next attempt): every attempt's
    // randomness derives from (config.seed, attempt), so continuing from
    // here reproduces the uninterrupted run bit-for-bit.
    result = config.checkpoint->result();
    next_attempt = static_cast<std::int64_t>(config.checkpoint->next_unit());
    if (config.checkpoint->done()) return result;
  }
  WaveCommitter committer(config.checkpoint, config.trace);

  WorkerSet set(fi, threads);
  run_ordered_units(
      set,
      [&] {
        if (result.trials >= target) return index_wave(0, 0);
        std::int64_t wave = kSerialCommitEvery;
        if (threads > 1) {
          // Size the wave from the observed trial yield per attempt (first
          // wave: assume the maximum, so we under- rather than
          // over-commit).
          const std::uint64_t remaining = target - result.trials;
          const double yield =
              next_attempt > 0
                  ? std::max(0.25, static_cast<double>(result.trials) /
                                       static_cast<double>(next_attempt))
                  : static_cast<double>(max_yield);
          const auto estimate = static_cast<std::int64_t>(
              std::ceil(static_cast<double>(remaining) / yield));
          // Cap waves at 8 attempts per worker: attempts past the trial
          // target are computed but discarded, so a huge final wave is pure
          // waste, while the per-wave barrier costs only microseconds.
          wave = std::clamp<std::int64_t>(
              ((estimate + threads - 1) / threads) * threads, threads,
              threads * 8);
        }
        return index_wave(next_attempt, std::min(wave, cap - next_attempt));
      },
      [&](std::size_t g, std::int64_t a) {
        const auto au = static_cast<std::uint64_t>(a);
        return detail::run_attempt(
            set[g], ds, config,
            {.root = config.seed, .index = au, .attempt = au}, trace);
      },
      [&](std::int64_t a, UnitOutcome& out) {
        next_attempt = a + 1;
        return merge_campaign_attempt(result, out, target, config.trace);
      },
      [&](bool reached) {
        if (!reached && next_attempt >= cap) result.gave_up = 1;
        committer.commit(result, static_cast<std::uint64_t>(next_attempt),
                         reached || result.gave_up != 0);
      });
  return result;
}

CampaignResult run_weight_campaign(FaultInjector& fi,
                                   const data::SyntheticDataset& ds,
                                   const WeightCampaignConfig& config) {
  PFI_CHECK(config.faults > 0) << "weight campaign faults=" << config.faults;
  PFI_CHECK(config.images_per_fault > 0 &&
            config.images_per_fault <= fi.config().batch_size)
      << "weight campaign images_per_fault=" << config.images_per_fault
      << " must be in [1, injector batch size " << fi.config().batch_size
      << "]";
  PFI_CHECK(config.error_model.apply != nullptr)
      << "weight campaign error model is unset";
  PFI_CHECK(config.threads >= 0) << "weight campaign threads=" << config.threads;

  fi.model().eval();
  const bool tracing = config.trace != nullptr;

  // One fault = one independent unit: draw images, corrupt one weight,
  // score every image, restore. All randomness is derived from the fault
  // index, so the per-fault outcome is a pure function of (config, f).
  struct FaultOutcome {
    CampaignResult counts;
    std::vector<trace::InjectionEvent> events;
    Tensor logits;
  };
  auto run_fault = [&](FaultInjector& worker, std::int64_t f) {
    const auto fu = static_cast<std::uint64_t>(f);
    Rng rng(derive_seed(config.seed, fu, kDrawStream));
    worker.reseed(derive_seed(config.seed, fu, kInjectorStream));

    trace::TraceSink local(tracing && config.trace->capture_logits());
    ScopedSink sink_guard(worker, tracing ? &local : worker.trace_sink());
    if (tracing) local.set_context(fu, 0);

    FaultOutcome out;
    const auto batch = ds.sample_batch(config.images_per_fault, rng);
    worker.clear();
    // No .clone(): every layer's forward writes fresh storage, so the
    // faulty pass below cannot alias or overwrite the golden logits
    // (pinned by PrefixReplay.ForwardOutputsNeverAlias).
    const Tensor golden =
        worker.forward(batch.images, ForwardMode::kRecordGolden);
    const auto golden_top1 = nn::argmax_rows(golden);

    const WeightLocation loc = worker.random_weight_location(rng, config.layer);
    worker.declare_weight_fault(loc, config.error_model);
    const Tensor faulty =
        worker.forward(batch.images, ForwardMode::kReusePrefix);

    const RepScorer scorer(golden_top1, faulty, config.criterion);
    if (scorer.faulty_non_finite) ++out.counts.non_finite;

    for (std::size_t i = 0; i < batch.labels.size(); ++i) {
      if (golden_top1[i] != batch.labels[i]) {
        ++out.counts.skipped;  // golden already wrong: not a valid experiment
        continue;
      }
      ++out.counts.trials;
      if (scorer.is_corrupted(static_cast<std::int64_t>(i))) {
        ++out.counts.corruptions;
      }
    }
    worker.clear();  // restore the weight
    if (tracing) {
      out.events = local.take_events();
      // A weight fault is declared offline: the event stream already holds
      // it, and every image of the batch scores against the same faulty
      // forward, so one logits record per fault suffices.
      if (local.capture_logits()) out.logits = faulty.clone();
    }
    return out;
  };

  // Merged strictly in fault-index order, so the folded counts AND the
  // trace stream are identical for every thread count.
  CampaignResult result;
  std::int64_t next_fault = 0;
  if (config.checkpoint != nullptr) {
    result = config.checkpoint->result();
    next_fault = static_cast<std::int64_t>(config.checkpoint->next_unit());
    if (config.checkpoint->done() || next_fault >= config.faults) {
      return result;
    }
  }
  WaveCommitter committer(config.checkpoint, config.trace);

  const std::int64_t threads =
      resolve_threads(config.threads,
                      std::max<std::int64_t>(1, config.faults / 4));
  WorkerSet set(fi, threads);
  // Per-fault outcomes are pure functions of the fault index, so the wave
  // partition changes nothing about the merged result — it only bounds the
  // outcome buffer and gives the checkpointer its commit points.
  const std::int64_t wave = threads == 1 ? kSerialCommitEvery : threads * 8;
  run_ordered_units(
      set,
      [&] {
        return index_wave(next_fault,
                          std::min(wave, config.faults - next_fault));
      },
      [&](std::size_t g, std::int64_t f) {
        return run_fault(set[g], f);
      },
      [&](std::int64_t f, FaultOutcome& out) {
        const auto fu = static_cast<std::uint64_t>(f);
        result.trials += out.counts.trials;
        result.skipped += out.counts.skipped;
        result.corruptions += out.counts.corruptions;
        result.non_finite += out.counts.non_finite;
        ship_trace(config.trace, fu, fu, 0, out.events, out.logits);
        next_fault = f + 1;
        return false;
      },
      [&](bool) {
        committer.commit(result, static_cast<std::uint64_t>(next_fault),
                         next_fault >= config.faults);
      });
  return result;
}

namespace {

/// Everything one fleet event produced, buffered so waves merge strictly in
/// event order (the timeline, counts, and trace stream are then identical
/// for every thread count).
struct FleetEventOutcome {
  FleetEvent ev;
  std::vector<trace::InjectionEvent> events;
  Tensor logits;
};

/// Pack the timeline into the checkpoint's per-stratum records (plain
/// integers in a fixed order); inverse of the unpack in the resume path.
std::vector<StratumCheckpoint> fleet_timeline_to_strata(
    const std::vector<FleetEvent>& timeline) {
  std::vector<StratumCheckpoint> strata;
  strata.reserve(timeline.size());
  for (const FleetEvent& ev : timeline) {
    StratumCheckpoint s;
    s.trials = ev.event;
    s.corruptions = ev.faults;
    s.skipped = ev.correct;
    s.non_finite = ev.non_finite;
    s.pruned = ev.rows;
    strata.push_back(s);
  }
  return strata;
}

}  // namespace

FleetResult run_fleet_campaign(FaultInjector& fi,
                               const data::SyntheticDataset& ds,
                               const FleetCampaignConfig& config) {
  PFI_CHECK(config.horizon > 0) << "fleet campaign horizon=" << config.horizon;
  PFI_CHECK(config.batch_size >= 1 &&
            config.batch_size <= fi.config().batch_size)
      << "fleet campaign batch_size " << config.batch_size
      << " exceeds injector batch size " << fi.config().batch_size;
  PFI_CHECK(config.threads >= 0) << "fleet campaign threads=" << config.threads;

  fi.model().eval();
  const bool tracing = config.trace != nullptr;
  const auto horizon = static_cast<std::int64_t>(config.horizon);

  FleetResult result;
  std::int64_t next_event = 0;
  if (config.checkpoint != nullptr) {
    // The folded counters and the per-event timeline both live in the
    // checkpoint; every event's inputs and faults are pure functions of
    // (seed, event), so (counters, timeline, next event) is the complete
    // resume state.
    const CampaignResult& folded = config.checkpoint->result();
    result.rows = folded.trials;
    result.mismatches = folded.corruptions;
    result.non_finite = folded.non_finite;
    next_event = static_cast<std::int64_t>(config.checkpoint->next_unit());
    for (const StratumCheckpoint& s : config.checkpoint->strata()) {
      result.timeline.push_back({.event = s.trials,
                                 .faults = s.corruptions,
                                 .correct = s.skipped,
                                 .rows = s.pruned,
                                 .non_finite = s.non_finite});
    }
  }
  const auto finalize = [&result] {
    for (const FleetEvent& ev : result.timeline) {
      if (result.first_sdc == kNoSdc && ev.correct < ev.rows) {
        result.first_sdc = ev.event;
      }
    }
    if (!result.timeline.empty()) {
      result.total_faults = result.timeline.back().faults;
    }
  };
  if (config.checkpoint != nullptr &&
      (config.checkpoint->done() || next_event >= horizon)) {
    finalize();
    return result;
  }
  WaveCommitter committer(config.checkpoint, config.trace);

  const std::int64_t threads =
      resolve_threads(config.threads,
                      std::max<std::int64_t>(1, (horizon - next_event) / 4));
  WorkerSet set(fi, threads);

  // Phase A — golden predictions. Computed on the still-quiescent workers
  // (plain forwards, fault-free weights) before any persistent fault lands;
  // each event scores its corrupted serve against these.
  std::vector<std::vector<std::int64_t>> golden_top1(
      static_cast<std::size_t>(horizon));
  std::int64_t next_golden = next_event;
  run_ordered_units(
      set, [&] { return index_wave(next_golden, horizon - next_golden); },
      [&](std::size_t g, std::int64_t t) {
        const auto batch = fleet_campaign_event_batch(
            ds, config, static_cast<std::uint64_t>(t));
        return nn::argmax_rows(set[g].forward(batch.images));
      },
      [&](std::int64_t t, std::vector<std::int64_t>& top1) {
        golden_top1[static_cast<std::size_t>(t)] = std::move(top1);
        next_golden = t + 1;
        return false;
      },
      [](bool) {});

  // Phase B — the corrupted timeline. Every worker owns a PersistentFaultSet
  // over its replica and advances it through EVERY event in order (fault
  // state is a pure function of (scenario, event), so all replicas hold
  // byte-identical weights at any event); it runs the forward — and emits
  // the trace — only for the events it is assigned. Declared after the
  // WorkerSet so the sets heal their injectors before the replicas die.
  std::vector<std::unique_ptr<PersistentFaultSet>> sets;
  for (std::int64_t g = 0; g < threads; ++g) {
    sets.push_back(std::make_unique<PersistentFaultSet>(
        set[static_cast<std::size_t>(g)], config.scenario));
  }

  auto run_event = [&](std::size_t g, std::int64_t t) {
    FaultInjector& worker = set[g];
    PersistentFaultSet& faults = *sets[g];
    const auto tu = static_cast<std::uint64_t>(t);
    // Catch up silently (events other workers own — their fault records are
    // theirs to emit), then apply THIS event's faults with the worker-local
    // sink attached so they are recorded exactly once across the fleet.
    {
      ScopedSink quiet(worker, nullptr);
      faults.advance_to(tu);
    }
    trace::TraceSink local(tracing && config.trace->capture_logits());
    {
      ScopedSink sink_guard(worker, tracing ? &local : nullptr);
      if (tracing) local.set_context(tu, 0);
      faults.advance_to(tu + 1);
    }
    const auto batch = fleet_campaign_event_batch(ds, config, tu);
    const Tensor faulty = worker.forward(batch.images);
    const std::vector<std::int64_t>& golden =
        golden_top1[static_cast<std::size_t>(t)];
    const RepScorer scorer(golden, faulty, CorruptionCriterion::kTop1Mismatch);

    FleetEventOutcome out;
    out.ev.event = tu;
    out.ev.faults = faults.faults_applied();
    out.ev.rows = static_cast<std::uint64_t>(batch.labels.size());
    out.ev.non_finite = scorer.faulty_non_finite ? 1 : 0;
    for (std::size_t i = 0; i < batch.labels.size(); ++i) {
      if (!scorer.is_corrupted(static_cast<std::int64_t>(i))) ++out.ev.correct;
    }
    if (tracing) {
      out.events = local.take_events();
      if (local.capture_logits()) out.logits = faulty.clone();
    }
    return out;
  };

  // Waves of 8 events per worker: the partition changes nothing about the
  // merged result, it only bounds the outcome buffer and gives the
  // checkpointer its commit points.
  run_ordered_units(
      set,
      [&] {
        return index_wave(next_event,
                          std::min(threads * 8, horizon - next_event));
      },
      run_event,
      [&](std::int64_t t, FleetEventOutcome& out) {
        result.rows += out.ev.rows;
        result.mismatches += out.ev.rows - out.ev.correct;
        result.non_finite += out.ev.non_finite;
        ship_trace(config.trace, out.ev.event, out.ev.event, 0, out.events,
                   out.logits);
        result.timeline.push_back(out.ev);
        next_event = t + 1;
        return false;
      },
      [&](bool) {
        if (config.checkpoint == nullptr) return;
        CampaignResult folded;
        folded.trials = result.rows;
        folded.corruptions = result.mismatches;
        folded.non_finite = result.non_finite;
        committer.commit(folded, static_cast<std::uint64_t>(next_event),
                         next_event >= horizon,
                         fleet_timeline_to_strata(result.timeline));
      });
  finalize();
  return result;
}

data::Batch fleet_campaign_event_batch(const data::SyntheticDataset& ds,
                                       const FleetCampaignConfig& config,
                                       std::uint64_t event) {
  Rng rng(derive_seed(config.seed, event, kDrawStream));
  return ds.sample_batch(config.batch_size, rng);
}

data::Batch campaign_attempt_batch(const data::SyntheticDataset& ds,
                                   const CampaignConfig& config,
                                   std::uint64_t attempt) {
  Rng rng(derive_seed(config.seed, attempt, kDrawStream));
  return ds.sample_batch(config.batch_size, rng);
}

data::Batch weight_campaign_fault_batch(const data::SyntheticDataset& ds,
                                        const WeightCampaignConfig& config,
                                        std::uint64_t fault_index) {
  Rng rng(derive_seed(config.seed, fault_index, kDrawStream));
  return ds.sample_batch(config.images_per_fault, rng);
}

std::vector<CampaignResult> run_per_layer_campaign(
    FaultInjector& fi, const data::SyntheticDataset& ds,
    CampaignConfig config) {
  // One checkpoint file cannot describe N per-layer campaigns; callers that
  // want crash safety here run one checkpointed campaign per layer.
  PFI_CHECK(config.checkpoint == nullptr)
      << "run_per_layer_campaign does not checkpoint — give each layer its "
         "own CampaignCheckpointer and call run_classification_campaign";
  std::vector<CampaignResult> out;
  out.reserve(static_cast<std::size_t>(fi.num_layers()));
  for (std::int64_t layer = 0; layer < fi.num_layers(); ++layer) {
    config.layer = layer;
    config.seed += 1;  // decorrelate layers, keep determinism
    out.push_back(run_classification_campaign(fi, ds, config));
  }
  return out;
}

}  // namespace pfi::core
