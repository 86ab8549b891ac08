#include "core/trace.hpp"

#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/cli.hpp"
#include "core/fault_injector.hpp"
#include "util/bits.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace pfi::trace {

std::string fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNeuron: return "neuron";
    case FaultKind::kWeight: return "weight";
    case FaultKind::kPersist: return "persist";
  }
  PFI_CHECK(false) << "unreachable fault kind";
}

std::int32_t diff_bit(float pre, float post, core::DType dtype,
                      const quant::QuantParams& qparams) {
  std::uint32_t x = 0;
  switch (dtype) {
    case core::DType::kFloat32:
      x = float_to_bits(pre) ^ float_to_bits(post);
      break;
    case core::DType::kFloat16:
      // Software narrowing, not a _Float16 cast: the hardware cast quiets
      // signalling NaNs and canonicalizes payloads, so an exponent flip
      // that produced an sNaN would diff in more than one bit and lose its
      // attribution. f16_bits_from_float round-trips flip_fp16_bit exactly.
      x = static_cast<std::uint32_t>(f16_bits_from_float(pre) ^
                                     f16_bits_from_float(post));
      break;
    case core::DType::kInt8:
      x = static_cast<std::uint32_t>(
          static_cast<std::uint8_t>(quant::quantize_value(pre, qparams)) ^
          static_cast<std::uint8_t>(quant::quantize_value(post, qparams)));
      break;
    case core::DType::kBFloat16:
      x = static_cast<std::uint32_t>(bf16_bits_from_float(pre) ^
                                     bf16_bits_from_float(post));
      break;
  }
  return std::popcount(x) == 1 ? std::countr_zero(x) : -1;
}

namespace {

/// Decimal rendering for the human-readable value fields. Non-finite values
/// become null (JSON has no Inf/NaN literal); the hex bits field is always
/// authoritative.
std::string json_number(float v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(9);  // max_digits10 for binary32
  os << v;
  return os.str();
}

}  // namespace

std::string event_to_json(const InjectionEvent& ev) {
  std::ostringstream os;
  os << "{\"trial\":" << ev.trial << ",\"attempt\":" << ev.attempt
     << ",\"rep\":" << ev.rep << ",\"kind\":\"" << fault_kind_name(ev.kind)
     << "\",\"layer\":" << ev.layer << ",\"layer_name\":\""
     << util::json_escape(ev.layer_name) << "\",\"layer_kind\":\""
     << util::json_escape(ev.layer_kind) << "\",\"dtype\":\""
     << core::dtype_name(ev.dtype) << "\",\"coords\":[" << ev.coords[0] << ","
     << ev.coords[1] << "," << ev.coords[2] << "," << ev.coords[3]
     << "],\"flat\":" << ev.flat << ",\"bit\":" << ev.bit
     << ",\"pre\":" << json_number(ev.pre) << ",\"pre_bits\":\""
     << util::float_bits_hex(ev.pre) << "\",\"post\":" << json_number(ev.post)
     << ",\"post_bits\":\"" << util::float_bits_hex(ev.post)
     << "\",\"model\":\"" << util::json_escape(ev.model) << "\"";
  // The event-time stamp exists only for persistent faults; transient
  // events keep the exact field set (and bytes) they always serialized to.
  if (ev.kind == FaultKind::kPersist) os << ",\"time\":" << ev.time;
  os << "}";
  return os.str();
}

InjectionEvent event_from_json(std::string_view line) {
  util::JsonReader r(line, "trace line");
  InjectionEvent ev;
  ev.trial = r.key("trial").u64();
  ev.attempt = r.key("attempt").u64();
  ev.rep = static_cast<std::int32_t>(r.key("rep").i64(INT32_MIN, INT32_MAX));
  const std::string kind = r.key("kind").str();
  if (kind != "neuron" && kind != "weight" && kind != "persist") {
    r.fail("names an unknown fault kind '", kind, "'");
  }
  ev.kind = kind == "neuron"
                ? FaultKind::kNeuron
                : (kind == "weight" ? FaultKind::kWeight : FaultKind::kPersist);
  ev.layer = r.key("layer").i64();
  ev.layer_name = r.key("layer_name").str();
  ev.layer_kind = r.key("layer_kind").str();
  const std::string dtype = r.key("dtype").str();
  const std::optional<core::DType> parsed = core::parse_dtype_name(dtype);
  if (!parsed) r.fail("names an unknown dtype '", dtype, "'");
  ev.dtype = *parsed;
  r.key("coords");
  for (int i = 0; i < 4; ++i) ev.coords[i] = r.lit(i == 0 ? "[" : ",").i64();
  r.lit("]");
  ev.flat = r.key("flat").i64();
  ev.bit = static_cast<std::int32_t>(r.key("bit").i64(INT32_MIN, INT32_MAX));
  // A recorded flip attribution must fit the recorded dtype's own
  // representation: diff_bit=28 on an fp16 event can only mean a corrupted
  // or hand-edited trace, and accepting it would push an impossible flip
  // through replay. The replayer checks dtype against per-layer resolution;
  // this is the parse-time half of that contract.
  const int width = core::dtype_bit_width(ev.dtype);
  if (ev.bit < -1 || ev.bit >= width) {
    r.fail("records diff_bit ", ev.bit, " but dtype '", dtype, "' is only ",
           width, " bits wide");
  }
  // The decimal fields are a rendering of the authoritative bits fields and
  // must be exactly that rendering.
  const std::string_view pre = r.key("pre").raw();
  ev.pre = r.key("pre_bits").f32_bits();
  if (pre != json_number(ev.pre)) r.fail("does not match 'pre' ", pre);
  const std::string_view post = r.key("post").raw();
  ev.post = r.key("post_bits").f32_bits();
  if (post != json_number(ev.post)) r.fail("does not match 'post' ", post);
  ev.model = r.key("model").str();
  if (ev.kind == FaultKind::kPersist) ev.time = r.key("time").u64();
  r.end("}");
  return ev;
}

std::string trace_to_jsonl(const std::vector<InjectionEvent>& events) {
  std::string out;
  for (const InjectionEvent& ev : events) {
    out += event_to_json(ev);
    out += '\n';
  }
  return out;
}

void write_trace_jsonl(const std::string& path,
                       const std::vector<InjectionEvent>& events) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  PFI_CHECK(out.good()) << "cannot open '" << path << "' for writing";
  out << trace_to_jsonl(events);
  PFI_CHECK(out.good()) << "write to '" << path << "' failed";
}

std::vector<InjectionEvent> read_trace_jsonl(const std::string& path) {
  const std::string text = util::read_file(path);
  util::JsonReader r(text, path);
  std::vector<InjectionEvent> events;
  while (!r.at_end()) events.push_back(event_from_json(r.line()));
  return events;
}

std::vector<std::vector<InjectionEvent>> split_reps(
    const std::vector<InjectionEvent>& events) {
  std::vector<std::vector<InjectionEvent>> reps;
  for (const InjectionEvent& ev : events) {
    if (reps.empty() || reps.back().back().attempt != ev.attempt ||
        reps.back().back().rep != ev.rep) {
      reps.emplace_back();
    }
    reps.back().push_back(ev);
  }
  return reps;
}

void TraceReplayer::arm(std::span<const InjectionEvent> rep_events) {
  for (const InjectionEvent& ev : rep_events) {
    // Per-layer resolution configs make dtype a layer property; the event's
    // recorded dtype must match the replica's resolution for THAT layer.
    PFI_CHECK(ev.dtype == fi_.layer_dtype(ev.layer))
        << "trace event on layer " << ev.layer << " recorded at dtype "
        << core::dtype_name(ev.dtype)
        << " cannot replay on an injector resolving that layer as "
        << core::dtype_name(fi_.layer_dtype(ev.layer));
    // Persistent events re-assert immediately: the recorded post value is
    // written into the weight's deployed representation right now, and it
    // stays there across clear() until heal_persistent_faults(). Replaying
    // every persist event with time <= t in stream order reconstructs the
    // exact weight state of simulated event t (later writes to the same
    // position land last, as they did live).
    if (ev.kind == FaultKind::kPersist) {
      fi_.write_persistent_value(ev.layer, ev.flat, ev.post, ev.time,
                                 ev.model);
      continue;
    }
    // A constant fault writes the recorded post value at the recorded
    // position; because the hook applies it after dtype emulation, exactly
    // where the original model ran, the corrupted tensor is reproduced
    // bit-for-bit regardless of what the original error model computed.
    if (ev.kind == FaultKind::kNeuron) {
      fi_.declare_neuron_fault({.layer = ev.layer,
                                .batch = ev.coords[0],
                                .c = ev.coords[1],
                                .h = ev.coords[2],
                                .w = ev.coords[3]},
                               core::constant_value(ev.post));
    } else {
      fi_.declare_weight_fault({.layer = ev.layer,
                                .out_c = ev.coords[0],
                                .in_c = ev.coords[1],
                                .kh = ev.coords[2],
                                .kw = ev.coords[3]},
                               core::constant_value(ev.post));
    }
  }
}

Tensor TraceReplayer::replay(const Tensor& input,
                             std::span<const InjectionEvent> rep_events) {
  fi_.clear();
  arm(rep_events);
  Tensor out = fi_.forward(input);
  fi_.clear();
  // clear() deliberately leaves persistent faults in place (that is their
  // defining property); the one-shot replay heals them so the injector
  // returns to golden like it always has. No-op for transient-only reps.
  fi_.heal_persistent_faults();
  return out;
}

}  // namespace pfi::trace
