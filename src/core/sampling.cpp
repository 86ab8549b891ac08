#include "core/sampling.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "core/campaign_internal.hpp"
#include "core/checkpoint.hpp"
#include "core/sampling_internal.hpp"
#include "util/strings.hpp"

namespace pfi::core {

namespace {

using detail::kMaxStratumQuantum;
using detail::kStratumGaveUpFlag;
using detail::kStratumStoppedEarlyFlag;
using detail::StratifiedFold;
using detail::StratifiedSchedule;
using detail::StratUnit;
using detail::UnitOutcome;
using detail::WaveCommitter;
using detail::WorkerSet;

/// The larger half of a stratum's Wilson interval — the quantity the
/// stopping rule budgets. Zero trials -> the vacuous [0, 1] interval's
/// larger half, 1 (maximally conservative).
double stratum_half_width(const StratumCheckpoint& ck, double z) {
  if (ck.trials == 0) return 1.0;
  const Proportion p = wilson_interval(ck.corruptions, ck.trials, z);
  return std::max(p.value - p.lo, p.hi - p.value);
}

/// CI-mode closure test for one stratum, mirroring the two pooling terms
/// of util::stratified_interval so that "every stratum closed" implies a
/// pooled half-width <= target:
///
/// * all-clear strata (k = 0) enter the pooled interval only through the
///   joint upper margin max_s w_s * wilson_hi(0, n_s); close this stratum
///   once its own term fits the whole target;
/// * corrupting strata (k > 0) combine in quadrature with max-margin
///   halves on both sides; close once w^2 m^2 <= (target/2)^2 / S_pos,
///   where S_pos counts the strata with observed corruptions.
///
/// With every stratum closed, the quadrature side Q satisfies
/// Q <= sqrt(S_pos * (target/2)^2 / S_pos) = target/2 and the clear margin
/// C <= target, so the pooled half-width (2Q + C)/2 <= target.
///
/// S_pos is global but a pure function of the frozen counters, so the
/// predicate is deterministic under resume; a previously closed corrupting
/// stratum REOPENS if S_pos has since grown (its budget share shrank),
/// which keeps the guarantee above valid against the final counters.
bool ci_closed(const Stratum& st, const StratumCheckpoint& ck,
               std::size_t s_pos, double target) {
  if (ck.corruptions == 0) {
    const double hi =
        ck.trials == 0 ? 1.0 : wilson_interval(0, ck.trials, kZ99).hi;
    return st.weight * hi <= target;
  }
  const double hw = stratum_half_width(ck, kZ99);
  const double budget = 0.25 * target * target /
                        static_cast<double>(std::max<std::size_t>(1, s_pos));
  return st.weight * st.weight * hw * hw <= budget;
}

/// Recompute a stratum's flags from its frozen counters. Pure, so resume
/// and re-evaluation always agree: stopped-early iff the CI rule closed it
/// with budget to spare; gave-up iff the attempt cap did.
std::uint64_t stratum_flags(const Stratum& st, const StratumCheckpoint& ck,
                            std::uint64_t cap, std::uint64_t attempt_cap,
                            double target, std::size_t s_pos,
                            bool global_met) {
  if (target > 0.0 && (global_met || ci_closed(st, ck, s_pos, target)) &&
      ck.trials < cap) {
    return kStratumStoppedEarlyFlag;
  }
  if (ck.attempts >= attempt_cap && ck.trials < cap) return kStratumGaveUpFlag;
  return 0;
}

}  // namespace

namespace detail {

std::vector<std::uint64_t> allocate_stratum_caps(
    std::uint64_t trials, const std::vector<Stratum>& strata) {
  std::vector<std::uint64_t> caps(strata.size());
  std::vector<double> remainders(strata.size());
  std::uint64_t assigned = 0;
  for (std::size_t s = 0; s < strata.size(); ++s) {
    const double exact = static_cast<double>(trials) * strata[s].weight;
    caps[s] = static_cast<std::uint64_t>(exact);
    remainders[s] = exact - static_cast<double>(caps[s]);
    assigned += caps[s];
  }
  std::vector<std::size_t> order(strata.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return remainders[a] > remainders[b];
                   });
  for (std::size_t i = 0; assigned < trials; ++i) {
    ++caps[order[i % order.size()]];
    ++assigned;
  }
  return caps;
}

StratifiedSchedule make_stratified_schedule(
    FaultInjector& fi, const StratifiedCampaignConfig& config) {
  const CampaignConfig& base = config.base;
  check_campaign_config(fi, base, /*stratified=*/true);
  PFI_CHECK(config.target_half_width >= 0.0 && config.target_half_width < 1.0)
      << "target_half_width " << config.target_half_width
      << " must be in [0, 1)";

  StratifiedSchedule sched;
  sched.strata = make_strata(fi, base.layer);
  const std::size_t S = sched.strata.size();
  sched.trials_budget = static_cast<std::uint64_t>(base.trials);
  sched.target = config.target_half_width;
  sched.max_yield = base.batch_size * base.injections_per_image;

  // Budget mode (target == 0): each stratum owns its proportional share of
  // the trial budget, allocated exactly. CI mode: any stratum may spend up
  // to the whole budget — the CI rule, not the allocation, decides where
  // trials go — with a global budget backstop at wave boundaries.
  if (sched.target > 0.0) {
    sched.caps.assign(S, sched.trials_budget);
  } else {
    sched.caps = allocate_stratum_caps(sched.trials_budget, sched.strata);
  }
  sched.attempt_caps.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    sched.attempt_caps[s] = base.attempt_cap > 0
                                ? static_cast<std::uint64_t>(base.attempt_cap)
                                : 100 + sched.caps[s] * 1000;
  }
  return sched;
}

AttemptDraw stratum_draw(const StratifiedCampaignConfig& config,
                         const StratifiedSchedule& sched,
                         const std::vector<bool>& relu_adj,
                         const StratUnit& unit) {
  const Stratum& st = sched.strata[unit.stratum];
  return {.root = derive_seed(config.base.seed,
                              static_cast<std::uint64_t>(unit.stratum),
                              kStratumStream),
          .index = unit.attempt,
          .attempt = unit.seq,
          .stratum = &st,
          .prunable =
              config.prune && relu_adj[static_cast<std::size_t>(st.layer)],
          .prune_verify = config.prune_verify};
}

StratifiedFold::StratifiedFold(StratifiedSchedule schedule,
                               trace::TraceSink* sink)
    : sched_(std::move(schedule)), sink_(sink), ck_(sched_.strata.size()) {}

void StratifiedFold::restore(const std::vector<StratumCheckpoint>& saved) {
  PFI_CHECK(saved.size() == ck_.size())
      << "checkpoint holds " << saved.size() << " strata but this "
      << "campaign has " << ck_.size() << " — refusing to resume";
  ck_ = saved;
  pooled_trials_ = 0;
  for (const StratumCheckpoint& s : ck_) pooled_trials_ += s.trials;
}

std::size_t StratifiedFold::count_positive() const {
  std::size_t n = 0;
  for (const StratumCheckpoint& s : ck_) n += s.corruptions > 0 ? 1 : 0;
  return n;
}

// The pooled interval already meets the target: stop everything. The
// per-stratum rule splits the budget conservatively, so the pooled
// half-width usually undershoots the target well before every stratum
// closes individually; checking the pooled interval directly at wave
// boundaries (a pure function of the counters) ends the campaign at the
// requested precision instead of over-sampling to the per-stratum split.
bool StratifiedFold::pooled_target_met() const {
  if (!(sched_.target > 0.0)) return false;
  const std::size_t S = ck_.size();
  std::vector<StratumEstimate> est(S);
  for (std::size_t s = 0; s < S; ++s) {
    est[s] = {sched_.strata[s].weight, ck_[s].corruptions, ck_[s].trials};
  }
  return stratified_interval(est, kZ99).half_width() <= sched_.target;
}

// A stratum is open while every closure rule still permits more units.
// Each term is a pure function of the folded counters, so the predicate
// gives the same answer when re-evaluated after a resume.
bool StratifiedFold::open(std::size_t s, std::uint64_t pooled_trials,
                          std::size_t s_pos, bool global_met) const {
  if (ck_[s].trials >= sched_.caps[s]) return false;
  if (ck_[s].attempts >= sched_.attempt_caps[s]) return false;
  if (sched_.target > 0.0) {
    if (pooled_trials >= sched_.trials_budget) return false;  // budget backstop
    if (global_met) return false;
    if (ci_closed(sched_.strata[s], ck_[s], s_pos, sched_.target)) {
      return false;
    }
  }
  return true;
}

void StratifiedFold::refresh_flags() {
  const std::size_t s_pos = count_positive();
  const bool global_met = pooled_target_met();
  for (std::size_t s = 0; s < ck_.size(); ++s) {
    ck_[s].flags =
        stratum_flags(sched_.strata[s], ck_[s], sched_.caps[s],
                      sched_.attempt_caps[s], sched_.target, s_pos,
                      global_met);
  }
}

std::vector<StratUnit> StratifiedFold::compose_wave(
    const std::vector<std::uint8_t>* owned) const {
  const std::size_t S = ck_.size();
  std::vector<StratUnit> units;
  std::uint64_t pooled_trials = 0;
  std::uint64_t seq = 0;
  for (std::size_t s = 0; s < S; ++s) {
    pooled_trials += ck_[s].trials;
    seq += ck_[s].attempts;
  }
  const std::size_t s_pos = count_positive();
  const bool global_met = pooled_target_met();
  for (std::size_t s = 0; s < S; ++s) {
    if (owned != nullptr && (*owned)[s] == 0) continue;
    if (!open(s, pooled_trials, s_pos, global_met)) continue;
    // Size this stratum's quantum from its observed trial yield (first
    // attempt: assume the maximum, under- rather than over-committing).
    const std::uint64_t remaining = sched_.caps[s] - ck_[s].trials;
    const double yield =
        ck_[s].attempts > 0
            ? std::max(0.25, static_cast<double>(ck_[s].trials) /
                                 static_cast<double>(ck_[s].attempts))
            : static_cast<double>(sched_.max_yield);
    auto q = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(remaining) / yield));
    q = std::clamp<std::uint64_t>(q, 1, kMaxStratumQuantum);
    q = std::min(q, sched_.attempt_caps[s] - ck_[s].attempts);
    for (std::uint64_t j = 0; j < q; ++j) {
      units.push_back({s, ck_[s].attempts + j, 0});
    }
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    units[i].seq = seq + static_cast<std::uint64_t>(i);
  }
  return units;
}

void StratifiedFold::merge_unit(const StratUnit& unit, UnitOutcome& out) {
  StratumCheckpoint& st = ck_[unit.stratum];
  st.skipped += out.skipped;
  ++st.attempts;
  for (auto& rep : out.reps) {
    if (st.trials >= sched_.caps[unit.stratum]) break;
    if (rep.non_finite) ++st.non_finite;
    // Stamping unit.seq is a no-op for live execution (run_attempt already
    // used it as the attempt) but restores the global sequence number on
    // shard records, which were produced without knowing it.
    ship_trace(sink_, pooled_trials_, unit.seq, rep.rep_index, rep.events,
               rep.logits);
    for (const std::uint8_t corrupted : rep.corrupted) {
      ++st.trials;
      ++pooled_trials_;
      st.corruptions += corrupted;
      if (st.trials >= sched_.caps[unit.stratum]) break;
    }
    if (rep.pruned) {
      ++st.pruned;
    } else {
      ++st.executed;
    }
  }
}

CampaignResult StratifiedFold::pooled() const {
  CampaignResult r;
  for (const StratumCheckpoint& s : ck_) {
    r.trials += s.trials;
    r.skipped += s.skipped;
    r.corruptions += s.corruptions;
    r.non_finite += s.non_finite;
    if ((s.flags & kStratumGaveUpFlag) != 0) r.gave_up = 1;
  }
  return r;
}

StratifiedResult StratifiedFold::assemble() const {
  StratifiedResult result;
  result.totals = pooled();
  const std::size_t S = ck_.size();
  result.strata.reserve(S);
  for (std::size_t s = 0; s < S; ++s) {
    StratumOutcome o;
    o.stratum = sched_.strata[s];
    o.counts.trials = ck_[s].trials;
    o.counts.skipped = ck_[s].skipped;
    o.counts.corruptions = ck_[s].corruptions;
    o.counts.non_finite = ck_[s].non_finite;
    o.counts.gave_up = (ck_[s].flags & kStratumGaveUpFlag) != 0 ? 1 : 0;
    o.pruned = ck_[s].pruned;
    o.executed = ck_[s].executed;
    o.attempts = ck_[s].attempts;
    o.stopped_early = (ck_[s].flags & kStratumStoppedEarlyFlag) != 0;
    o.gave_up = (ck_[s].flags & kStratumGaveUpFlag) != 0;
    result.strata.push_back(o);
    result.pruned += ck_[s].pruned;
    result.golden_passes += ck_[s].attempts;
    result.faulty_passes += ck_[s].executed;
  }
  return result;
}

}  // namespace detail

Proportion StratifiedResult::estimate() const {
  std::vector<StratumEstimate> est;
  est.reserve(strata.size());
  for (const StratumOutcome& s : strata) {
    est.push_back({s.stratum.weight, s.counts.corruptions, s.counts.trials});
  }
  return stratified_interval(est);
}

double StratifiedResult::uniform_equivalent_trials() const {
  const Proportion est = estimate();
  const double target = (est.hi - est.lo) / 2.0;
  if (!(target > 0.0)) return std::numeric_limits<double>::infinity();
  const double p = std::clamp(est.value, 0.0, 1.0);
  const double z = kZ99;
  // Wilson half-width at point estimate p as a function of n (monotone
  // decreasing); bisect for the n whose half-width matches this run's.
  const auto half_width = [&](double n) {
    return z / (1.0 + z * z / n) *
           std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n));
  };
  double lo = 1.0;
  double hi = 1.0;
  while (half_width(hi) > target && hi < 1e15) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (half_width(mid) > target ? lo : hi) = mid;
  }
  return hi;
}

namespace {

/// Shared body of the two make_strata overloads: `dtype_of(l)` supplies the
/// bit-class partition for each enumerated layer.
template <typename DTypeOf>
std::vector<Stratum> make_strata_impl(const FaultInjector& fi,
                                      std::int64_t layer, DTypeOf dtype_of) {
  PFI_CHECK(layer < fi.num_layers())
      << "stratified campaign layer " << layer << " out of range [0, "
      << fi.num_layers() << ")";

  std::vector<std::int64_t> layers;
  std::int64_t total_neurons = 0;
  for (std::int64_t l = 0; l < fi.num_layers(); ++l) {
    if (layer >= 0 && l != layer) continue;
    const Shape& s = fi.layer_shape(l);
    if (s.size() != 4) continue;  // no neuron coordinates -> not sampled
    layers.push_back(l);
    total_neurons += s[1] * s[2] * s[3];
  }
  PFI_CHECK(!layers.empty())
      << "stratified campaign has no 4-D instrumented layers to sample"
      << (layer >= 0 ? " (layer " + std::to_string(layer) + " is not 4-D)"
                     : "");

  std::vector<Stratum> out;
  for (const std::int64_t l : layers) {
    const auto classes = bit_classes(dtype_of(l));
    const int width = dtype_bit_width(dtype_of(l));
    const Shape& s = fi.layer_shape(l);
    const double neuron_share =
        static_cast<double>(s[1] * s[2] * s[3]) /
        static_cast<double>(total_neurons);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      Stratum st;
      st.layer = l;
      st.bit_class = static_cast<int>(c);
      st.bit_lo = classes[c].lo;
      st.bit_hi = classes[c].hi;
      st.weight = neuron_share * static_cast<double>(classes[c].width()) /
                  static_cast<double>(width);
      out.push_back(st);
    }
  }
  return out;
}

}  // namespace

std::vector<Stratum> make_strata(const FaultInjector& fi, std::int64_t layer,
                                 DType dtype) {
  return make_strata_impl(fi, layer, [dtype](std::int64_t) { return dtype; });
}

std::vector<Stratum> make_strata(const FaultInjector& fi, std::int64_t layer) {
  return make_strata_impl(
      fi, layer, [&fi](std::int64_t l) { return fi.layer_dtype(l); });
}

std::vector<bool> relu_adjacent_layers(FaultInjector& fi) {
  std::vector<bool> out(static_cast<std::size_t>(fi.num_layers()), false);
  nn::for_each_relu_pair(fi.model(), [&](nn::GemmLayer& producer, nn::ReLU&) {
    // A fused producer rectifies INSIDE its own epilogue and the ReLU
    // passes through — the injection domain is the post-ReLU output, so
    // negative injected values are NOT masked downstream and the
    // masked-fault pruning argument does not apply.
    if (producer.relu_fused_output()) return;
    for (std::int64_t l = 0; l < fi.num_layers(); ++l) {
      if (&fi.layer(l) == &producer) out[static_cast<std::size_t>(l)] = true;
    }
  });
  return out;
}

std::uint64_t stratified_fingerprint(const StratifiedCampaignConfig& config,
                                     std::string_view context) {
  // Reuses campaign_fingerprint for the base fields, with the stratified
  // knobs folded into the context so a uniform checkpoint (whose prefix is
  // "classification|...") can never resume a stratified run or vice versa.
  std::ostringstream os;
  os << "stratified|hw=" << util::double_bits_hex(config.target_half_width)
     << "|prune=" << (config.prune ? 1 : 0) << "|ctx=" << context;
  CampaignConfig base = config.base;
  base.error_model = single_bit_flip(-1);  // the model the sampler imposes
  return campaign_fingerprint(base, os.str());
}

StratifiedResult run_stratified_campaign(FaultInjector& fi,
                                         const data::SyntheticDataset& ds,
                                         const StratifiedCampaignConfig& config) {
  const CampaignConfig& base = config.base;
  fi.model().eval();
  StratifiedFold fold(detail::make_stratified_schedule(fi, config),
                      base.trace);
  const StratifiedSchedule& sched = fold.schedule();
  const std::vector<bool> relu_adj = relu_adjacent_layers(fi);

  std::uint64_t wave_index = 0;
  if (base.checkpoint != nullptr) {
    const auto& saved = base.checkpoint->strata();
    if (!saved.empty()) {
      fold.restore(saved);
    } else {
      PFI_CHECK(base.checkpoint->result().trials == 0 &&
                base.checkpoint->next_unit() == 0)
          << "checkpoint has progress but no stratum states — it was not "
             "written by a stratified campaign";
    }
    wave_index = base.checkpoint->next_unit();
    if (base.checkpoint->done()) return fold.assemble();
  }

  WaveCommitter committer(base.checkpoint, base.trace);
  fold.refresh_flags();

  const std::int64_t threads = detail::resolve_threads(
      base.threads, std::max<std::int64_t>(1, base.trials / 4));
  WorkerSet set(fi, threads);
  detail::run_ordered_units(
      set, [&] { return fold.compose_wave(); },
      [&](std::size_t g, const StratUnit& u) {
        return detail::run_attempt(
            set[g], ds, base, detail::stratum_draw(config, sched, relu_adj, u),
            detail::AttemptTrace::for_sink(base.trace));
      },
      [&](const StratUnit& u, UnitOutcome& out) {
        fold.merge_unit(u, out);
        return false;
      },
      [&](bool) {
        fold.refresh_flags();
        ++wave_index;
        committer.commit(fold.pooled(), wave_index, !fold.any_open(),
                         fold.states());
      });
  return fold.assemble();
}

}  // namespace pfi::core
