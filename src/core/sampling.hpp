// Statistical campaign acceleration: stratified sampling, adaptive early
// termination, and analytic masked-fault pruning (ROADMAP item 2; the
// validation-efficiency direction of the Intel PyTorchFI extension and MRFI,
// see PAPERS.md).
//
// The uniform campaign runner (core/campaign.hpp) draws every fault
// uniformly over (neuron x bit), so nearly all of its forward passes land in
// strata that are almost never corrupting (low-mantissa flips, flips into
// ReLU-dead activations) while the rare high-variance strata (sign and
// exponent flips) starve. This runner partitions the same fault space into
// (layer x bit-position-class) strata — the dtype fixes the class table
// (core/error_models.hpp bit_classes()) — and estimates the SAME quantity
// the uniform sampler estimates:
//
//   p_uniform = sum_s w_s * p_s,   w_s = neuron share x bit-class share,
//
// via the pooled stratified Wilson estimator in util/stats.hpp. Three
// mechanisms cut executed forward passes at matched confidence width:
//
//  * Stratification + early termination: each stratum stops as soon as its
//    Wilson interval's pooled CONTRIBUTION (w_s^2 * halfwidth_s^2) is below
//    its share of the target half-width budget, so near-deterministic
//    strata resolve in a handful of trials and negligible-weight strata may
//    run zero trials (contributing the vacuous [0, 1] interval).
//  * Masked-fault pruning: because a stratified attempt fixes the flipped
//    bit, the corrupted value is computable analytically from the golden
//    activation (captured during the attempt's golden pass, in the exact
//    dtype-emulation domain the injector would apply the fault in). When
//    the injected layer's output feeds directly into a ReLU, an injection
//    with ReLU(corrupted) bit-identical to ReLU(golden) — e.g. any
//    non-sign flip of a ReLU-dead (<= 0) activation, including quantized
//    low-magnitude flips below the zero crossing — provably cannot change
//    any logit. It skips its faulty forward and is scored from the golden
//    logits, which are exactly its faulty logits (so a non-finite golden
//    pass scores it as executing it would), counted in `pruned`.
//  * Golden-pass amortization: unchanged from the uniform runner
//    (injections_per_image, prefix cache).
//
// Determinism contract (same as the uniform runner, pinned by
// tests/test_sampling.cpp): every stratum attempt's randomness is a pure
// function of (seed, stratum_id, attempt_index); stopping decisions are
// evaluated only at merged wave boundaries whose composition is itself a
// pure function of the folded state. Result counts, campaign CSV, and trace
// JSONL are bit-identical at any thread count, under kill/resume at any
// wave, and with the prefix cache on or off.
#pragma once

#include "core/campaign.hpp"

namespace pfi::core {

struct StratumCheckpoint;

/// Static identity of one stratum: a (layer, bit-class) cell of the fault
/// space with its probability mass under the uniform sampler.
struct Stratum {
  std::int64_t layer = 0;  ///< instrumented layer index
  int bit_class = 0;       ///< index into bit_classes(dtype)
  int bit_lo = 0;          ///< lowest bit position of the class (inclusive)
  int bit_hi = 0;          ///< highest bit position (inclusive)
  double weight = 0.0;     ///< neuron share x bit share; sums to 1
};

/// Sampled evidence and bookkeeping for one stratum.
struct StratumOutcome {
  Stratum stratum;
  /// Per-stratum counters; `trials` includes pruned (analytically-masked)
  /// injections, scored from the golden logits — exactly the faulty logits
  /// executing them would produce.
  CampaignResult counts;
  std::uint64_t pruned = 0;    ///< trials scored without a faulty forward
  std::uint64_t executed = 0;  ///< faulty forwards actually run
  std::uint64_t attempts = 0;  ///< stratum-local attempts consumed
  bool stopped_early = false;  ///< closed by the CI-width rule, under budget
  bool gave_up = false;        ///< hit its attempt cap before closing

  /// This stratum's Wilson interval (vacuous [0, 1] at zero trials).
  Proportion interval(double z = kZ99) const {
    if (counts.trials == 0) return Proportion{0.0, 0.0, 1.0};
    return wilson_interval(counts.corruptions, counts.trials, z);
  }
};

/// Outcome of a stratified campaign.
struct StratifiedResult {
  std::vector<StratumOutcome> strata;
  /// Pooled raw counters (sum over strata). NOTE: corruptions/trials is the
  /// SAMPLE ratio, not the estimate of the uniform corruption probability —
  /// use estimate() for that (strata are deliberately not sampled in
  /// proportion to their weights once early termination engages).
  CampaignResult totals;
  std::uint64_t pruned = 0;         ///< analytically-masked injections
  std::uint64_t golden_passes = 0;  ///< golden forwards executed
  std::uint64_t faulty_passes = 0;  ///< faulty forwards executed

  /// Weighted stratified estimate of the uniform-sampling corruption
  /// probability, with the pooled 99% Wilson interval.
  Proportion estimate() const;

  std::uint64_t executed_passes() const {
    return golden_passes + faulty_passes;
  }
  /// Trials a single pooled Wilson interval (the uniform estimator) would
  /// need to reach this run's achieved half-width at its point estimate.
  double uniform_equivalent_trials() const;
};

/// Configuration. The base campaign config supplies trials (the TOTAL trial
/// budget, allocated across strata by weight), layer restriction (-1 = all
/// instrumented layers, as in Fig. 4; >= 0 = that layer only, as in
/// Fig. 6), seed, batch/injections_per_image, criterion, threads, trace and
/// checkpoint. base.error_model is ignored: the stratified sampler IS the
/// single-bit-flip model — each attempt draws a concrete bit within its
/// stratum's class (that is what makes the corrupted value analytically
/// computable). base.one_fault_per_layer is unsupported.
struct StratifiedCampaignConfig {
  CampaignConfig base;
  /// Pooled 99% CI half-width goal. A stratum closes once its pooled
  /// contribution w^2 * hw^2 drops below target^2 / num_strata (so when all
  /// strata close, the pooled half-width is <= target). 0 disables the rule
  /// and every stratum simply spends its proportional share of
  /// base.trials.
  double target_half_width = 0.0;
  /// Analytic masked-fault pruning (see file comment). Pure execution-count
  /// knob: counters, CSV, estimates, the injection trace and the captured
  /// logits are identical either way (a pruned trial is scored from the
  /// golden logits, which are its faulty logits, and its events are
  /// computed as if it ran); only the number of executed forwards differs.
  bool prune = true;
  /// Verification mode (the front ends' PFI_PRUNE_VERIFY=1): execute every
  /// pruned injection anyway and abort unless its logits are bit-identical
  /// to the golden ones — the pruner's soundness oracle. Counters stay
  /// identical to a non-verify run.
  bool prune_verify = false;
};

/// Enumerate the (layer x bit-class) strata of an injector's fault space,
/// restricted to `layer` when >= 0. Weights sum to 1 over the enumerated
/// set. Layers with non-4D outputs carry no neurons and are skipped.
std::vector<Stratum> make_strata(const FaultInjector& fi, std::int64_t layer,
                                 DType dtype);

/// Per-layer-resolution variant: each layer's bit classes come from its OWN
/// resolved dtype (FaultInjector::layer_dtype), so a mixed fp32/int8 model
/// stratifies every layer in its deployed representation. Identical to the
/// uniform-dtype overload when no per-layer overrides are configured.
std::vector<Stratum> make_strata(const FaultInjector& fi, std::int64_t layer);

/// Instrumented layers whose output feeds directly (and solely) into a ReLU
/// — the structural precondition for ReLU-dead pruning. Detected by
/// nn::for_each_relu_pair's walk over Sequential containers: layer i
/// qualifies iff its immediate next sibling is a ReLU and the pair is not
/// currently fused (a fused producer's own output is already rectified).
std::vector<bool> relu_adjacent_layers(FaultInjector& fi);

/// Run a stratified neuron-bit-flip campaign. Same call shape and
/// determinism guarantees as run_classification_campaign.
StratifiedResult run_stratified_campaign(FaultInjector& fi,
                                         const data::SyntheticDataset& ds,
                                         const StratifiedCampaignConfig& config);

/// Fingerprint of every StratifiedCampaignConfig field that shapes outcomes
/// (the stratified analogue of campaign_fingerprint; threads / trace /
/// checkpoint / prune_verify excluded — results are identical across them).
std::uint64_t stratified_fingerprint(const StratifiedCampaignConfig& config,
                                     std::string_view context = "");

}  // namespace pfi::core
