// FaultInjector — the core of the library, reproducing PyTorchFI's runtime
// perturbation mechanism (paper Sec. III).
//
// Design decisions carried over from the paper:
//
//  * Hook-based neuron injection (Sec. III-A). The injector registers one
//    forward hook per instrumented layer at construction. The hook body
//    performs a single emptiness check when no faults are declared — "if
//    there are no perturbations defined, then there is no overhead"
//    (Sec. III-C). No graph rewriting, no framework patching.
//
//  * Offline weight corruption (Sec. III-B). declare_weight_fault() mutates
//    the parameter tensor immediately, before inference, so weight faults
//    add zero work on the forward path. clear() restores golden values.
//
//  * Profiling dummy pass (Sec. III-B step 2). Construction runs one dummy
//    inference to learn every instrumented layer's output shape, enabling
//    legality checks with precise error messages at declaration time.
//
//  * Batch semantics (Sec. III-B step 3). A fault can hit one batch element
//    or all of them (batch = kAllBatchElements).
//
//  * Dtype emulation. With DType::kInt8 the injector fake-quantizes every
//    instrumented output (per-tensor symmetric INT8) on every forward —
//    golden and faulty runs alike — so bit flips happen in the quantized
//    domain exactly as in the paper's Fig. 4 campaign. DType::kFloat16
//    rounds outputs to the binary16 grid.
#pragma once

#include <memory>
#include <optional>

#include "core/error_models.hpp"
#include "core/prefix_cache.hpp"
#include "core/profile.hpp"
#include "core/trace.hpp"
#include "nn/nn.hpp"
#include "quant/static_act.hpp"

namespace pfi::core {

/// Sentinel: apply the fault to every element of the batch.
inline constexpr std::int64_t kAllBatchElements = -1;

/// Per-layer numeric resolution override (an MRFI-style resolution config):
/// the named layer runs at `dtype`, natively when `native` is set. Layers
/// without an override inherit FiConfig::{dtype, native}.
struct LayerResolution {
  std::string layer;  ///< dotted module path, e.g. "features.3"
  DType dtype = DType::kFloat32;
  /// True: the layer EXECUTES in the low-precision representation (INT8
  /// GEMM over quantized codes, or weights/activations rounded through
  /// fp16/bf16 storage into the fp32 kernel). False: fp32 execution with the
  /// injector's output-grid emulation only.
  bool native = false;
};

/// Injector configuration (the arguments of the paper's init step).
struct FiConfig {
  Shape input_shape;             ///< per-sample shape [C, H, W]
  std::int64_t batch_size = 1;
  DType dtype = DType::kFloat32;
  /// Execute every instrumented layer natively at `dtype` (see
  /// LayerResolution::native). Ignored for kFloat32, which always runs
  /// natively by definition.
  bool native = false;
  /// Per-layer resolution overrides; each entry must name a different
  /// instrumented layer's dotted path (both checked at construction).
  std::vector<LayerResolution> per_layer = {};
  bool instrument_linear = false;  ///< extension: also hook Linear layers
  std::uint64_t seed = 0xf15eedull;
  /// Enable golden-prefix activation reuse (core/prefix_cache.hpp). Purely
  /// a speed knob: campaign counts, CSV, traces, and checkpoints are
  /// byte-identical either way.
  bool prefix_cache = true;
  /// Snapshot byte budget in MB, in [0, 1048576].
  std::int64_t prefix_cache_mb = 256;
  /// Frozen per-layer activation scales (core::calibrate_static_act). When
  /// set, every native-INT8 instrumented layer covered by the calibration
  /// quantizes its input with the frozen scale (no per-forward absmax pass)
  /// and re-quantizes its output onto the frozen grid — INT8-resident layer
  /// boundaries, with conv->ReLU pairs fused onto the codes. The injector
  /// REFUSES a calibration whose weight fingerprint does not match the
  /// model (stale calibration), and calibration_fingerprint() must be
  /// folded into campaign fingerprints by the caller so artifacts written
  /// under different calibrations can never be merged or resumed together.
  /// Null (the default) keeps dynamic per-forward calibration.
  std::shared_ptr<const quant::StaticActQuant> static_act = nullptr;
};

/// How FaultInjector::forward should interact with the prefix cache.
/// Campaign code drives these explicitly; a kPlain forward (the default,
/// and the only mode benchmarked by Fig. 3's idle-overhead claim) touches
/// no cache machinery at all.
enum class ForwardMode {
  kPlain,         ///< no cache interaction
  kRecordGolden,  ///< record this (fault-free) pass as the golden prefix
  kReusePrefix,   ///< replay cached layers before the earliest armed fault
};

/// Coordinates of a neuron in an instrumented layer's output fmap.
struct NeuronLocation {
  std::int64_t layer = 0;
  std::int64_t batch = kAllBatchElements;
  std::int64_t c = 0;
  std::int64_t h = 0;
  std::int64_t w = 0;
};

/// Coordinates of a weight in a conv layer's filter bank.
struct WeightLocation {
  std::int64_t layer = 0;
  std::int64_t out_c = 0;
  std::int64_t in_c = 0;  ///< within the layer's group slice
  std::int64_t kh = 0;
  std::int64_t kw = 0;
};

class FaultInjector {
 public:
  /// Instruments `model` (keeps it alive) and runs the profiling pass.
  FaultInjector(std::shared_ptr<nn::Module> model, FiConfig config);

  /// Removes all hooks and restores any perturbed weights.
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // -- Profiling results ---------------------------------------------------------
  /// Number of instrumented layers.
  std::int64_t num_layers() const {
    return static_cast<std::int64_t>(layers_.size());
  }
  /// Output shape [N, C, H, W] of instrumented layer i (from profiling).
  const Shape& layer_shape(std::int64_t layer) const;
  /// The instrumented layer itself: a Conv2d, or a Linear when
  /// FiConfig::instrument_linear is set.
  nn::GemmLayer& layer(std::int64_t i) const;
  /// Total neuron count across all instrumented layers (one batch element).
  std::int64_t total_neurons() const { return total_neurons_; }

  // -- Fault declaration (the paper's step 3) ---------------------------------------
  /// Declare a runtime neuron fault; validates coordinates against the
  /// profiled shapes and throws pfi::Error with context when out of range.
  void declare_neuron_fault(const NeuronLocation& loc, ErrorModel model);

  /// Perturb a weight immediately (offline, zero runtime cost); restored by
  /// clear() or destruction.
  void declare_weight_fault(const WeightLocation& loc, const ErrorModel& model);

  /// Coarser-granularity injection (paper Sec. IV-A's suggested study):
  /// corrupt EVERY neuron of feature map `c` in `layer` with the model.
  void declare_fmap_fault(std::int64_t layer, std::int64_t c,
                          std::int64_t batch, ErrorModel model);

  /// Coarsest granularity: corrupt every neuron the layer produces.
  void declare_layer_fault(std::int64_t layer, std::int64_t batch,
                           ErrorModel model);

  /// Uniformly random neuron across all layers (weighted by layer size), or
  /// within the given layer.
  NeuronLocation random_neuron_location(Rng& rng, std::int64_t layer = -1) const;

  /// Uniformly random weight position, optionally within one layer.
  WeightLocation random_weight_location(Rng& rng, std::int64_t layer = -1) const;

  /// Remove all declared neuron faults and restore all perturbed weights.
  /// Persistent faults are NOT removed — stuck-at bits re-assert themselves
  /// at the end of every clear(), so a transient restore can never scrub a
  /// stuck memory cell back to golden. Use heal_persistent_faults() to
  /// actually repair the memory.
  void clear();

  // -- Persistent memory faults (event-time; driven by core/persistent.hpp) --------
  /// Result of one persistent write: the master (fp32) weight value before
  /// and after, bit-exact.
  struct PersistentWrite {
    float pre = 0.0f;
    float post = 0.0f;
  };

  /// Corrupt one bit of weight `flat` (flat index into the layer's weight
  /// tensor) in the layer's DEPLOYED representation: the fp32 word, the
  /// fp16/bf16 storage bits, or the INT8 code under the layer's deployed
  /// scale (the frozen per-channel scale for native layers, per-tensor
  /// calibration for emulated ones). `op` = -1 flips the bit, 0/1 forces
  /// it. Unlike declare_weight_fault the write SURVIVES clear(); only
  /// heal_persistent_faults() (or destruction) restores golden. The layer's
  /// packed-weight caches are invalidated so the next forward deploys the
  /// corrupted code, and a kPersist trace event stamped with `time` is
  /// emitted into the attached sink.
  PersistentWrite write_persistent_bit(std::int64_t layer, std::int64_t flat,
                                       int bit, int op, std::uint64_t time,
                                       const std::string& model_name);

  /// Replay primitive (trace::TraceReplayer): write the recorded `value` at
  /// (layer, flat) as a persistent fault — same undo/invalidation/trace
  /// semantics as write_persistent_bit, no bit arithmetic.
  void write_persistent_value(std::int64_t layer, std::int64_t flat,
                              float value, std::uint64_t time,
                              const std::string& model_name);

  /// Register a stuck-at cell: after its initial write_persistent_bit, the
  /// bit is re-forced by every clear() and by reassert_stuck_bits(), so
  /// later writes to the weight (transient-fault restores, other persistent
  /// flips) cannot un-stick it.
  void register_stuck_bit(std::int64_t layer, std::int64_t flat, int bit,
                          int value);

  /// Re-force every registered stuck bit in place (no trace, no new undo
  /// entries — the original golden value was recorded by the birth write).
  /// Invalidates packs only for cells that actually changed.
  void reassert_stuck_bits();

  /// Restore every persistently-corrupted weight to golden (reverse write
  /// order, bit-exact) and forget all stuck-bit registrations. Idempotent.
  void heal_persistent_faults();

  /// Number of persistent writes currently held in the undo log.
  std::size_t active_persistent_faults() const {
    return persist_undo_.size();
  }

  /// Reseed the injector's internal RNG (the one stochastic error models
  /// draw from via InjectionContext::rng). The campaign engine reseeds with
  /// a counter-derived per-trial seed so random error-model draws do not
  /// depend on how trials are sharded across threads.
  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

  /// Build an independent deep replica: the model is cloned via
  /// nn::clone_model (fresh storage, identical weights and batch-norm
  /// statistics), then instrumented with the same FiConfig. Replicas share
  /// nothing mutable with this injector, so each can run forwards on its
  /// own thread. Requires a quiescent injector (no armed faults, no
  /// perturbed weights) so the replica is golden.
  std::unique_ptr<FaultInjector> replicate() const;

  // -- Execution ------------------------------------------------------------------
  /// Run the instrumented model; shape-checked against the config. With
  /// mode != kPlain the prefix cache records / replays this pass — unless
  /// reuse is unavailable (cache disabled, profiler attached, model in
  /// training mode, nothing recorded, different input), in which case the
  /// pass silently degrades to a full recompute with identical results.
  Tensor forward(const Tensor& input,
                 ForwardMode mode = ForwardMode::kPlain);

  /// The prefix cache, or nullptr when FiConfig::prefix_cache is off.
  PrefixCache* prefix_cache() const { return prefix_cache_.get(); }

  /// Fold a replica's prefix-cache counters into this injector's (the
  /// campaign runner calls this when tearing down its worker set so the
  /// report sees whole-campaign hit rates). No-op if either side has no
  /// cache.
  void absorb_prefix_stats(const FaultInjector& other);

  // -- Observability (the pfi::trace layer) -----------------------------------------
  /// Attach a TraceSink: every subsequent injection (neuron and weight)
  /// emits an InjectionEvent into it. Pass nullptr to detach. The sink is
  /// single-threaded — campaign workers each attach their own. With the
  /// sink detached (the default) the injection path pays one branch.
  void set_trace_sink(trace::TraceSink* sink) { sink_ = sink; }
  trace::TraceSink* trace_sink() const { return sink_; }

  /// Attach a Profiler: the hook then records per-layer activation
  /// min/max/mean and its own per-layer wall time (see profile.hpp). The
  /// profiler's layer table is (re)initialized from this injector's
  /// instrumented layers. Pass nullptr to detach.
  void set_profiler(trace::Profiler* profiler);
  trace::Profiler* profiler() const { return profiler_; }

  /// Dotted module path of instrumented layer i (e.g. "features.3"), the
  /// stable identifier used in exported traces.
  const std::string& layer_path(std::int64_t i) const;

  /// Emit the kNeuron event of one injection into the attached sink (no-op
  /// without one): the value at (batch, c, h, w) = `coords`, flat index
  /// `flat`, went from `pre` to `post` under error model `model_name`, with
  /// the flipped bit attributed in the layer's own representation under
  /// `qparams`. The hook records every injection it performs through this;
  /// the stratified sampler's pruner records the injections it proves
  /// masked and never executes.
  void record_neuron_event(std::int64_t layer, const std::int64_t (&coords)[4],
                           std::int64_t flat, float pre, float post,
                           const std::string& model_name,
                           const quant::QuantParams& qparams);

  /// Dtype-emulation params the last golden (kRecordGolden) pass captured
  /// for layer i — the exact quantized domain any fault armed on that layer
  /// is applied in (see golden_qp_'s comment). The stratified sampler's
  /// masked-fault pruner (core/sampling.hpp) uses these to compute a
  /// candidate injection's corrupted value analytically, bit-identical to
  /// what executing the injection would produce. Meaningful only after a
  /// kRecordGolden forward; default-constructed before one.
  quant::QuantParams golden_qparams(std::int64_t layer) const {
    return golden_qp_[checked_layer(layer)];
  }

  // -- Introspection ----------------------------------------------------------------
  std::size_t active_neuron_faults() const;
  /// Declared weight corruptions currently applied (undone by clear()).
  std::size_t active_weight_faults() const { return weight_undo_.size(); }
  std::uint64_t injections_performed() const { return injections_; }

  /// Human-readable summary of the instrumented model: one line per layer
  /// with its kind, output shape, and declared fault count — the profiling
  /// report the paper's init step gathers (Sec. III-B step 2).
  std::string describe() const;
  DType dtype() const { return config_.dtype; }
  /// Resolution of instrumented layer i: its dtype and whether the layer
  /// executes natively in that representation. With no per-layer overrides
  /// these are FiConfig::{dtype, native} for every layer.
  DType layer_dtype(std::int64_t i) const;
  bool layer_native(std::int64_t i) const;
  /// True when layer i runs under frozen static activation scales.
  bool layer_static(std::int64_t i) const;
  /// Identity of the attached static calibration — StaticActQuant::
  /// fingerprint(), or 0 when running dynamic calibration. Campaign
  /// drivers fold this into their config fingerprints so CSVs, traces,
  /// checkpoints, and shards record which calibration produced them.
  std::uint64_t calibration_fingerprint() const {
    return config_.static_act == nullptr ? 0
                                         : config_.static_act->fingerprint();
  }
  const FiConfig& config() const { return config_; }
  nn::Module& model() { return *model_; }

 private:
  enum class FaultScope { kNeuron, kFmap, kLayer };

  struct ArmedFault {
    NeuronLocation loc;
    ErrorModel model;
    FaultScope scope = FaultScope::kNeuron;
  };
  /// One mutated weight: restore writes `original` back into `layer`'s
  /// weight at `flat` and drops the layer's stale packed-weight panels.
  struct WeightUndo {
    nn::GemmLayer* layer;
    std::int64_t flat;
    float original;
  };
  struct StuckBit {
    std::int64_t layer;
    std::int64_t flat;
    int bit;
    int value;
  };

  void hook_body(std::int64_t layer_index, const Tensor& input,
                 Tensor& output);

  /// The fault-application half of hook_body: dtype emulation is assumed
  /// done (qp is the params it produced) and every armed fault on the layer
  /// is applied to `output`, with trace events and the injection counter
  /// exactly as the hook itself would produce. Shared by the hook and the
  /// prefix cache's resume-at-injection mutator so the two paths cannot
  /// drift.
  void apply_armed_faults(std::int64_t layer_index, Tensor& output,
                          const quant::QuantParams& qp);

  /// How much of the recorded golden pass the next kReusePrefix forward may
  /// replay given the currently armed faults.
  struct ReusePlan {
    /// Leading golden events to serve from snapshots. 0 when any faulted
    /// layer never ran in the recorded pass (recording is stale).
    std::size_t prefix_len = 0;
    /// When resumable AT the injection site: the injected layer's event
    /// index (== prefix_len - 1) and instrumented-layer index. The event is
    /// served as a snapshot clone with apply_armed_faults() run on it.
    std::size_t mutate_event = PrefixCache::kNoEvent;
    std::int64_t mutate_layer = -1;
  };

  /// Neuron faults resume AT the injected layer (its faulty output is the
  /// golden snapshot plus the fault — the hook only mutates a deterministic
  /// result after the fact); weight faults resume strictly BEFORE the
  /// perturbed conv (its forward itself changed). The earliest of those
  /// bounds wins; a neuron fault on or after a perturbed conv applies via
  /// its real hook during recomputation.
  ReusePlan reuse_plan() const;

  /// True when record/reuse may run: cache built, no profiler attached
  /// (per-layer timings need real execution), model in eval mode.
  bool prefix_cache_usable() const;

  /// Emit one InjectionEvent into the attached sink (trace builds only).
  /// `time` stamps kPersist events with the simulated event index; it is
  /// ignored (and unserialized) for transient kinds.
  void emit_event(trace::FaultKind kind, std::int64_t layer,
                  const std::int64_t (&coords)[4], std::int64_t flat,
                  float pre, float post, const std::string& model_name,
                  const quant::QuantParams& qparams, std::uint64_t time = 0);

  /// `i` as an index into the per-layer tables; throws pfi::Error naming
  /// the index and the layer count when it is out of range.
  std::size_t checked_layer(std::int64_t i) const;

  /// Quantization params a persistent write on (layer, flat) operates under
  /// when the layer resolves to INT8: the frozen per-channel deployed scale
  /// for native layers, per-tensor calibration of the current weights for
  /// emulated ones. Default-constructed for float dtypes.
  quant::QuantParams persistent_qparams(std::int64_t layer,
                                        std::int64_t flat) const;

  /// Shared body of the persistent-write entry points: record the undo
  /// entry, store `post`, invalidate packs, bump the counter, emit the
  /// kPersist trace event.
  void commit_persistent_write(std::int64_t layer, std::int64_t flat,
                               float pre, float post, std::uint64_t time,
                               const std::string& model_name,
                               const quant::QuantParams& qparams);

  /// Resolve config_.{dtype, native, per_layer} into layer_dtype_ /
  /// layer_native_ (refusing a per-layer entry that names no instrumented
  /// layer or a layer already named) and switch native layers' modules into
  /// their low-precision execution mode (frozen per-channel INT8 scales computed
  /// from the CURRENT — golden — weights, so a later weight fault flips one
  /// deployed code without re-calibrating its channel).
  void apply_native_modes();
  /// Return every natively-executing module to fp32 (destructor path; the
  /// injector borrows the model, it does not own its numeric mode).
  void reset_native_modes();

  std::shared_ptr<nn::Module> model_;
  FiConfig config_;
  std::vector<nn::GemmLayer*> layers_;
  std::vector<std::string> layer_paths_;
  std::vector<DType> layer_dtype_;       // per instrumented layer
  std::vector<std::uint8_t> layer_native_;
  /// Per-layer static-calibration state: layer_static_[i] != 0 marks a
  /// native-INT8 layer running under frozen scales, and
  /// layer_static_scale_[i] is its frozen OUTPUT scale — the quantized
  /// domain the hook arms faults in (the resident codes' scale).
  std::vector<std::uint8_t> layer_static_;
  std::vector<float> layer_static_scale_;
  /// True when apply_native_modes wired conv->ReLU fusion for the static
  /// path (so reset_native_modes unwires it).
  bool fused_relu_ = false;
  std::vector<nn::HookHandle> hook_handles_;
  std::vector<Shape> layer_shapes_;
  std::vector<std::vector<ArmedFault>> faults_;  // per layer
  std::vector<WeightUndo> weight_undo_;
  /// Persistent-fault undo log, in write order. Survives clear(); unwound
  /// (in reverse) only by heal_persistent_faults() / destruction.
  std::vector<WeightUndo> persist_undo_;
  std::vector<StuckBit> stuck_bits_;
  /// Per-layer dtype-emulation params captured during the last golden
  /// (kRecordGolden) pass. A cache-off faulty pass recomputes the same
  /// params at the injection site (its raw output is bit-identical to the
  /// golden one), so resume-at-injection must reuse the RECORDED params —
  /// recalibrating on the already-quantized snapshot would drift by ULPs.
  std::vector<quant::QuantParams> golden_qp_;
  bool recording_golden_ = false;
  std::int64_t total_neurons_ = 0;
  std::uint64_t injections_ = 0;
  Rng rng_;
  trace::TraceSink* sink_ = nullptr;
  trace::Profiler* profiler_ = nullptr;
  std::unique_ptr<PrefixCache> prefix_cache_;
};

/// Convenience for the paper's Fig. 5 detection study: declare one random
/// neuron fault in every instrumented layer, all using `model`.
void declare_one_fault_per_layer(FaultInjector& fi, const ErrorModel& model,
                                 Rng& rng);

}  // namespace pfi::core
