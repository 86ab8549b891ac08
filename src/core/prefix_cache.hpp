// PrefixCache — golden-prefix activation reuse for fault-injection
// campaigns.
//
// Every campaign attempt runs one golden (fault-free) forward and one or
// more faulty forwards of the SAME input. Because this library's kernels
// are bit-deterministic (PR 3), the faulty pass is bit-identical to the
// golden pass for every layer that executes before the injection site — a
// fault cannot reach backwards. Recomputing that clean prefix is therefore
// pure waste, and it is most of the waste: TensorFI-style re-execution of
// the whole graph per fault is exactly the 2–35x overhead the paper's
// hook-based design set out to avoid.
//
// Mechanism:
//
//  * RECORD (golden forward): a forward hook on every leaf module appends
//    (module, snapshot-of-output) to an execution-order event list. The
//    snapshot is the retained output tensor handle — zero bytes copied,
//    since every leaf forward writes freshly allocated storage — and it is
//    taken AFTER the fault injector's own hook ran, so it carries the
//    dtype emulation (fp16 rounding / INT8 fake-quant) the faulty pass
//    would have applied to the same activation.
//
//  * REUSE (faulty forward): a bypass hook (nn::Module::register_bypass_hook)
//    on every leaf short-circuits execution events whose index precedes the
//    earliest injected layer's first execution, returning the recorded
//    snapshot instead of recomputing. The event list — not the module tree —
//    defines "before", so arbitrary topologies (residual, dense, inception)
//    replay correctly: joins (Residual adds, Concat copies) still execute
//    and consume cached branch outputs exactly as produced.
//
//  * RESUME AT THE INJECTION SITE: for a neuron fault the injected layer's
//    faulty output is, by construction, its golden output with the fault
//    applied on top — the fault hook mutates the layer's (deterministic)
//    result after the fact. So the caller may extend the prefix THROUGH the
//    injection site by passing a mutate_index + mutator to arm_reuse(): that
//    one event is served as a clone of its snapshot with the mutator (the
//    injector's own fault-application routine) run on the clone, and real
//    execution resumes at the next layer. This matters because neuron
//    sampling is uniform over neurons, which concentrates injections in the
//    early, largest — and most expensive — layers.
//
// Correctness argument, pinned by tests:
//  * kernels are bit-deterministic and eval-mode forwards are pure
//    (modules that draw per-call randomness report
//    deterministic_forward() == false and act as reuse barriers), so the
//    snapshot IS the value the faulty pass would recompute;
//  * no forward ever mutates a previous forward's output storage (each
//    allocates fresh output), so retained handles stay golden and can be
//    served zero-copy for the whole attempt;
//  * bypassed layers skip their post-forward hooks, which is sound because
//    a prefix layer by definition has no armed fault and its snapshot
//    already includes the hook's dtype emulation.
//  Consequently campaign counts, CSV, trace JSONL, and checkpoint files are
//  byte-identical with the cache on or off, at any thread count.
//
// Hooks are installed lazily — only between begin_record()/disarm() — so a
// plain forward through an instrumented model pays nothing, preserving the
// paper's "native speed when idle" property (Fig. 3).
//
// Memory is bounded by a byte budget (FiConfig::prefix_cache_mb, default
// 256): once a record pass exceeds it, later events keep their
// execution-order entry but drop the snapshot, truncating the reusable
// prefix — degrading gracefully to full recompute, never failing.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nn/module.hpp"

namespace pfi::core {

/// Hit/skip accounting for one cache (campaign workers each own one; the
/// runner folds replica stats into the primary injector's cache).
struct PrefixCacheStats {
  std::uint64_t golden_records = 0;    ///< golden passes recorded
  std::uint64_t reuse_passes = 0;      ///< faulty passes that reused >= 1 layer
  std::uint64_t fallback_passes = 0;   ///< reuse requested, nothing reusable
  std::uint64_t layers_reused = 0;     ///< leaf executions short-circuited
  std::uint64_t layers_recomputed = 0; ///< leaf executions recomputed during
                                       ///< reuse passes (injection layer on)
  std::uint64_t budget_truncations = 0;///< record passes that hit the budget
  std::uint64_t input_mismatches = 0;  ///< reuse refused: different input
  std::uint64_t injection_site_serves = 0;  ///< faults applied on a served
                                            ///< snapshot clone (resume AT
                                            ///< the injected layer)

  /// Fraction of leaf executions served from cache across all faulty passes
  /// that went through the reuse path (armed or fallen back).
  double hit_rate() const {
    const double total =
        static_cast<double>(layers_reused + layers_recomputed);
    return total == 0.0 ? 0.0 : static_cast<double>(layers_reused) / total;
  }

  /// Fold another worker's counters into this one.
  void absorb(const PrefixCacheStats& other);
};

/// Records one model's leaf execution order + outputs during a golden
/// forward and replays the clean prefix during faulty forwards. One cache
/// per FaultInjector; single-threaded like a TraceSink or Profiler.
class PrefixCache {
 public:
  /// "Module never executed in the recorded pass" sentinel.
  static constexpr std::size_t kNoEvent =
      std::numeric_limits<std::size_t>::max();

  /// Instruments every leaf module (no children) under `root`. Hooks are
  /// registered lazily per record/reuse cycle, so constructing a cache adds
  /// no per-forward cost by itself.
  PrefixCache(nn::Module& root, std::size_t budget_bytes);
  ~PrefixCache();

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  // -- Record (golden forward) ----------------------------------------------------
  /// Start recording: installs the record hooks and remembers the input's
  /// identity (storage pointer + shape) so a later reuse of a DIFFERENT
  /// input falls back instead of replaying the wrong activations.
  void begin_record(const Tensor& input);
  /// Stop recording; the events observed since begin_record become the
  /// replayable golden prefix.
  void end_record();

  // -- Reuse (faulty forward) -----------------------------------------------------
  /// Applied to a clone of the mutate_index event's snapshot before it is
  /// served, turning the golden activation into the faulty one in place.
  using SnapshotMutator = std::function<void(nn::Module&, Tensor&)>;

  /// Arm the bypass hooks so the next forward short-circuits execution
  /// events [0, prefix_len) to their snapshots. Returns the number of
  /// events actually armed: 0 (with a fallback tally) when nothing was
  /// recorded, the input differs, or the budget truncated the prefix to
  /// nothing. Callers must pair with disarm() after the forward.
  ///
  /// When `mutate_index` names an event inside the armed prefix, that event
  /// (the injection site) is served as snapshot.clone() with `mutator` run
  /// on the clone — never the shared golden storage. If truncation pushes
  /// the prefix below mutate_index the event simply recomputes and the
  /// caller's real fault hook fires, so results are identical either way.
  std::size_t arm_reuse(std::size_t prefix_len, const Tensor& input,
                        std::size_t mutate_index = kNoEvent,
                        SnapshotMutator mutator = nullptr);
  /// Remove the bypass hooks; safe to call when nothing is armed.
  void disarm();

  // -- Introspection ---------------------------------------------------------------
  bool recorded() const { return recorded_; }
  /// Leaf executions observed by the last completed record pass.
  std::size_t num_events() const { return events_.size(); }
  /// Index of `m`'s FIRST execution event in the recorded pass, or kNoEvent.
  /// The earliest injected layer's index is the reuse boundary.
  std::size_t first_execution_index(const nn::Module* m) const;
  /// Bytes currently held in snapshots.
  std::size_t snapshot_bytes() const { return recorded_bytes_; }
  std::size_t budget_bytes() const { return budget_bytes_; }
  const PrefixCacheStats& stats() const { return stats_; }
  PrefixCacheStats& stats() { return stats_; }

 private:
  /// One leaf execution of the recorded golden pass, in execution order.
  struct LeafEvent {
    nn::Module* module = nullptr;
    Tensor snapshot;       ///< deep copy of the (post-hook) output
    bool cached = false;   ///< false: budget- or determinism-truncated
  };

  /// Contiguous leaf-event range [lo, hi] covered by a container's subtree
  /// in the recorded execution order. A container whose whole range sits
  /// inside the armed prefix is bypassed as a unit, which also skips its
  /// join work (Residual adds, Concat copies) and all child dispatch.
  struct SubtreeRange {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

  void on_record(nn::Module& m, Tensor& output);
  void on_record_container(nn::Module& m, Tensor& output);
  bool on_bypass(nn::Module& m, Tensor& out);
  bool on_bypass_container(nn::Module& m, Tensor& out);
  void install_record_hooks();
  void install_bypass_hooks();
  void remove_hooks(std::vector<std::pair<nn::Module*, nn::HookHandle>>& v);
  /// Rebuilds first_index_ / subtree_ from events_ when stale.
  void ensure_index() const;

  std::vector<nn::Module*> leaves_;
  /// Non-leaf modules under the root, excluding the root itself (bypassing
  /// the root would short-circuit the whole forward).
  std::vector<nn::Module*> containers_;
  std::vector<std::pair<nn::Module*, nn::HookHandle>> record_hooks_;
  std::vector<std::pair<nn::Module*, nn::HookHandle>> bypass_hooks_;

  std::size_t budget_bytes_;
  std::vector<LeafEvent> events_;
  /// Retained output handles of containers recorded by the last golden
  /// pass; undefined Tensor = not snapshotted (budget).
  std::unordered_map<const nn::Module*, Tensor> container_snaps_;
  /// Storage pointers already charged to the budget this record pass, so a
  /// container whose output shares a child's storage (Sequential) costs 0.
  std::unordered_set<const float*> accounted_;
  // Memoized module -> first event index map and container -> subtree
  // range, rebuilt lazily after a record pass changes the event list
  // (hence mutable: both are caches of events_).
  mutable std::unordered_map<const nn::Module*, std::size_t> first_index_;
  mutable std::unordered_map<const nn::Module*, SubtreeRange> subtree_;
  mutable bool index_dirty_ = true;

  bool recording_ = false;
  bool recorded_ = false;
  std::size_t record_cursor_ = 0;
  std::size_t recorded_bytes_ = 0;
  /// First event without a snapshot; the reusable prefix ends here.
  std::size_t first_uncached_ = kNoEvent;

  bool armed_ = false;
  std::size_t reuse_len_ = 0;
  std::size_t reuse_cursor_ = 0;
  /// Event served as a mutated clone (the injection site), or kNoEvent.
  std::size_t mutate_index_ = kNoEvent;
  SnapshotMutator mutator_;

  /// Identity of the recorded input (storage pointer + shape).
  const float* input_data_ = nullptr;
  Shape input_shape_;

  PrefixCacheStats stats_;
};

/// One-line human-readable summary for bench footers and the CLI report,
/// e.g. "3 golden records, 412/880 layer fwds reused (46.8% hit rate), ...".
/// Never part of CSV/JSONL/checkpoint output (those stay byte-identical
/// with the cache on or off).
std::string prefix_cache_summary(const PrefixCacheStats& stats,
                                 std::size_t budget_bytes);

}  // namespace pfi::core
