// pfi::trace — structured injection-event observability.
//
// Every injection the FaultInjector performs (neuron or weight) can emit an
// InjectionEvent into a TraceSink: which trial and attempt it belonged to,
// which layer (by index and dotted module path), the exact tensor
// coordinates, the pre- and post-injection values (bit-exact), the flipped
// bit when the corruption was a one-bit flip, and the error-model id.
//
// Design discipline, mirroring the PR 1 campaign engine:
//
//  * One sink per worker, touched by exactly one thread — no locks anywhere
//    on the injection path. The campaign runner merges worker sinks into the
//    caller's sink strictly in attempt order, so the merged event stream is
//    BIT-IDENTICAL for any thread count (pinned by tests, like the counts).
//
//  * Events are bit-faithful: pre/post values serialize as IEEE-754 hex bit
//    patterns, never decimal, so a JSONL round trip loses nothing — even
//    NaN/Inf payloads from exponent flips survive exactly.
//
//  * TraceReplayer turns a recorded rep (one corrupted forward pass) back
//    into armed faults on a fresh injector and reproduces the original
//    corrupted logits bit-exactly. A trace is therefore a complete,
//    auditable record of a campaign, and the replay path is the test oracle
//    that pins the hook mechanism against recorded reality.
//
//  * An injector with no sink attached builds no event: the injection path
//    pays one null check.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error_models.hpp"
#include "tensor/tensor.hpp"

namespace pfi::core {
class FaultInjector;
}  // namespace pfi::core

namespace pfi::trace {

/// What was corrupted: a neuron in a layer's output fmap, a weight (one
/// transient offline perturbation, restored by clear()), or a persistent
/// memory fault (an event-time corruption that survives across inferences
/// until heal_persistent_faults(); see core/persistent.hpp).
enum class FaultKind { kNeuron, kWeight, kPersist };

/// "neuron" / "weight" / "persist".
std::string fault_kind_name(FaultKind kind);

/// One injection, as it actually happened.
struct InjectionEvent {
  std::uint64_t trial = 0;    ///< global trial index (assigned at merge)
  std::uint64_t attempt = 0;  ///< campaign attempt / weight-fault index
  std::int32_t rep = 0;       ///< injection rep within the attempt
  FaultKind kind = FaultKind::kNeuron;
  std::int64_t layer = 0;     ///< instrumented layer index
  std::string layer_name;     ///< dotted module path, e.g. "features.3"
  std::string layer_kind;     ///< module kind, e.g. "Conv2d"
  core::DType dtype = core::DType::kFloat32;
  /// Neuron events: (batch, c, h, w) of the corrupted activation.
  /// Weight events: (out_c, in_c, kh, kw) of the corrupted filter tap.
  std::int64_t coords[4] = {0, 0, 0, 0};
  std::int64_t flat = 0;      ///< flat index within the output/weight tensor
  /// Index of the flipped bit in the dtype's own representation (fp32 word,
  /// fp16 word, or INT8 quantized code) when pre and post differ by exactly
  /// one bit in that domain; -1 for every other corruption shape.
  std::int32_t bit = -1;
  float pre = 0.0f;           ///< value before injection (post-quantization)
  float post = 0.0f;          ///< value the error model produced
  std::string model;          ///< error-model id, e.g. "single_bit_flip[30]"
  /// Persistent faults only: the simulated inference-event index the fault
  /// was born at (PersistentFaultSet's clock). Serialized for kPersist
  /// events exclusively, so transient traces keep their exact historical
  /// byte encoding. Replaying all persist events with time <= t, in stream
  /// order, reconstructs the weight state at event t bit-for-bit.
  std::uint64_t time = 0;
};

/// The flipped-bit attribution for a (pre, post) pair in the given dtype's
/// representation domain; -1 unless exactly one bit differs.
std::int32_t diff_bit(float pre, float post, core::DType dtype,
                      const quant::QuantParams& qparams);

/// Per-worker event buffer. Single-threaded by construction (each campaign
/// worker owns one); the only cross-thread motion is the ordered merge.
class TraceSink {
 public:
  TraceSink() = default;
  /// `capture_logits` additionally records the faulty output tensor of every
  /// traced rep — the oracle TraceReplayer tests verify against.
  explicit TraceSink(bool capture_logits) : capture_logits_(capture_logits) {}

  /// Stamp subsequent events with (attempt, rep). The campaign runner calls
  /// this before every injected forward pass.
  void set_context(std::uint64_t attempt, std::int32_t rep) {
    attempt_ = attempt;
    rep_ = rep;
  }

  /// Record one injection.
  void record(InjectionEvent ev) {
    ev.attempt = attempt_;
    ev.rep = rep_;
    events_.push_back(std::move(ev));
  }

  /// The faulty logits of one recorded rep (kept only with capture_logits).
  struct RepLogits {
    std::uint64_t attempt = 0;
    std::int32_t rep = 0;
    Tensor logits;
  };

  bool capture_logits() const { return capture_logits_; }

  const std::vector<InjectionEvent>& events() const { return events_; }
  const std::vector<RepLogits>& logits() const { return logits_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Move out everything recorded since the last take/clear.
  std::vector<InjectionEvent> take_events() {
    return std::exchange(events_, {});
  }

  /// Ordered-merge entry points used by the campaign runner.
  void append(std::vector<InjectionEvent> events) {
    events_.insert(events_.end(), std::make_move_iterator(events.begin()),
                   std::make_move_iterator(events.end()));
  }
  void append_logits(RepLogits rep) { logits_.push_back(std::move(rep)); }

  void clear() {
    events_.clear();
    logits_.clear();
  }

 private:
  std::uint64_t attempt_ = 0;
  std::int32_t rep_ = 0;
  bool capture_logits_ = false;
  std::vector<InjectionEvent> events_;
  std::vector<RepLogits> logits_;
};

// -- JSONL serialization --------------------------------------------------------

/// One event as a single-line JSON object. Values carry both a readable
/// decimal field and the authoritative hex bit pattern.
std::string event_to_json(const InjectionEvent& ev);

/// Parse one line produced by event_to_json (no trailing newline). Anything
/// event_to_json could not have written is refused with pfi::Error.
InjectionEvent event_from_json(std::string_view line);

/// All events, one JSON object per line. This exact byte stream is what the
/// thread-count-invariance tests compare.
std::string trace_to_jsonl(const std::vector<InjectionEvent>& events);

/// Write trace_to_jsonl(events) to `path`.
void write_trace_jsonl(const std::string& path,
                       const std::vector<InjectionEvent>& events);

/// Read a JSONL trace back; inverse of write_trace_jsonl.
std::vector<InjectionEvent> read_trace_jsonl(const std::string& path);

// -- Replay --------------------------------------------------------------------

/// Split a merged event stream into reps — maximal runs of events sharing
/// (attempt, rep), in stream order. Each rep is one corrupted forward pass
/// and the unit TraceReplayer replays.
std::vector<std::vector<InjectionEvent>> split_reps(
    const std::vector<InjectionEvent>& events);

/// Re-applies a recorded trace onto a (fresh or reused) injector replica:
/// every event becomes a constant-value fault at the recorded coordinates,
/// so the replayed forward writes the exact recorded post values into the
/// exact recorded positions — reproducing the original corrupted forward
/// pass bit-for-bit, whatever error model originally produced the values.
class TraceReplayer {
 public:
  /// The injector must share the original's dtype (checked per event) and
  /// model architecture; typically FaultInjector::replicate() of the
  /// campaign injector, or the campaign injector itself after the run.
  explicit TraceReplayer(core::FaultInjector& fi) : fi_(fi) {}

  /// Arm one recorded rep's events as constant faults. Neuron/weight events
  /// become armed transient faults; kPersist events are re-asserted
  /// immediately as persistent weight writes (the recorded post value lands
  /// at the recorded position, surviving clear() until the injector's
  /// heal_persistent_faults()). The caller runs the forward and
  /// clears/heals; use replay() for the one-shot path.
  void arm(std::span<const InjectionEvent> rep_events);

  /// Arm `rep_events`, forward `input`, clear (and heal any persistent
  /// faults the rep asserted), return the corrupted logits.
  Tensor replay(const Tensor& input,
                std::span<const InjectionEvent> rep_events);

 private:
  core::FaultInjector& fi_;
};

}  // namespace pfi::trace
