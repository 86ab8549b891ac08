#include "core/checkpoint.hpp"

#include <sstream>

#include "util/fileio.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace pfi::core {

namespace {

using util::fnv1a;

std::string criterion_name(CorruptionCriterion c) {
  switch (c) {
    case CorruptionCriterion::kTop1Mismatch: return "top1";
    case CorruptionCriterion::kTop1NotInTop5: return "top5";
    case CorruptionCriterion::kNonFiniteOutput: return "nonfinite";
  }
  PFI_CHECK(false) << "unreachable criterion";
}

}  // namespace

std::string checkpoint_to_json(const CheckpointState& state) {
  std::ostringstream os;
  os << "{\"version\":" << state.version
     << ",\"fingerprint\":" << state.fingerprint
     << ",\"trials\":" << state.result.trials
     << ",\"skipped\":" << state.result.skipped
     << ",\"corruptions\":" << state.result.corruptions
     << ",\"non_finite\":" << state.result.non_finite
     << ",\"gave_up\":" << state.result.gave_up
     << ",\"next_unit\":" << state.next_unit
     << ",\"trace_bytes\":" << state.trace_bytes
     << ",\"done\":" << state.done;
  // Stratified campaigns append their per-stratum states; uniform campaigns
  // (empty vector) keep the exact pre-stratification encoding.
  if (!state.strata.empty()) {
    os << ",\"strata\":[";
    for (std::size_t i = 0; i < state.strata.size(); ++i) {
      const StratumCheckpoint& s = state.strata[i];
      if (i != 0) os << ',';
      os << '[' << s.trials << ',' << s.corruptions << ',' << s.skipped << ','
         << s.non_finite << ',' << s.pruned << ',' << s.executed << ','
         << s.attempts << ',' << s.flags << ']';
    }
    os << ']';
  }
  os << "}\n";
  return os.str();
}

CheckpointState checkpoint_from_json(const std::string& text) {
  util::JsonReader r(text, "checkpoint");
  CheckpointState state;
  state.version = r.key("version").u64();
  if (state.version != kCheckpointVersion) {
    r.fail("is ", state.version, ", not a version this build reads (",
           kCheckpointVersion, ")");
  }
  state.fingerprint = r.key("fingerprint").u64();
  state.result.trials = r.key("trials").u64();
  state.result.skipped = r.key("skipped").u64();
  state.result.corruptions = r.key("corruptions").u64();
  state.result.non_finite = r.key("non_finite").u64();
  state.result.gave_up = r.key("gave_up").u64();
  state.next_unit = r.key("next_unit").u64();
  state.trace_bytes = r.key("trace_bytes").u64();
  state.done = r.key("done").u64();
  // Stratified campaigns append one [u64 x 8] entry per stratum; the writer
  // omits the key for uniform campaigns, so it is never present but empty.
  if (r.peek(',')) {
    r.key("strata");
    while (r.next_item()) {
      StratumCheckpoint s;
      std::uint64_t* fields[] = {&s.trials,     &s.corruptions, &s.skipped,
                                 &s.non_finite, &s.pruned,      &s.executed,
                                 &s.attempts,   &s.flags};
      for (std::uint64_t* f : fields) {
        *f = r.lit(f == fields[0] ? "[" : ",").u64();
      }
      r.lit("]");
      state.strata.push_back(s);
    }
    if (state.strata.empty()) r.fail("is empty");
  }
  r.end("}\n");
  return state;
}

std::uint64_t campaign_fingerprint(const CampaignConfig& config,
                                   std::string_view context) {
  std::ostringstream os;
  os << "classification|trials=" << config.trials << "|model="
     << config.error_model.name << "|layer=" << config.layer
     << "|criterion=" << criterion_name(config.criterion)
     << "|seed=" << config.seed
     << "|same_fault=" << (config.same_fault_across_batch ? 1 : 0)
     << "|batch=" << config.batch_size
     << "|ipi=" << config.injections_per_image
     << "|per_layer=" << (config.one_fault_per_layer ? 1 : 0)
     << "|cap=" << config.attempt_cap << "|ctx=";
  return fnv1a(context, fnv1a(os.str()));
}

std::uint64_t weight_campaign_fingerprint(const WeightCampaignConfig& config,
                                          std::string_view context) {
  std::ostringstream os;
  os << "weight|faults=" << config.faults
     << "|ipf=" << config.images_per_fault
     << "|model=" << config.error_model.name << "|layer=" << config.layer
     << "|criterion=" << criterion_name(config.criterion)
     << "|seed=" << config.seed << "|ctx=";
  return fnv1a(context, fnv1a(os.str()));
}

std::uint64_t fleet_campaign_fingerprint(const FleetCampaignConfig& config,
                                         std::string_view context) {
  std::ostringstream os;
  os << "fleet|horizon=" << config.horizon << "|batch=" << config.batch_size
     << "|seed=" << config.seed
     << "|ber=" << util::double_bits_hex(config.scenario.ber)
     << "|stuck=" << config.scenario.stuck_bits << ":"
     << config.scenario.stuck_value
     << "|distance=" << util::double_bits_hex(config.scenario.distance_mean)
     << ":" << util::double_bits_hex(config.scenario.distance_stddev)
     << "|layer=" << config.scenario.layer
     << "|pseed=" << config.scenario.seed << "|ctx=";
  return fnv1a(context, fnv1a(os.str()));
}

CampaignCheckpointer::CampaignCheckpointer(std::string checkpoint_path,
                                           std::string trace_path)
    : path_(std::move(checkpoint_path)), trace_path_(std::move(trace_path)) {
  PFI_CHECK(!path_.empty()) << "checkpoint path must not be empty";
}

void CampaignCheckpointer::begin(std::uint64_t fingerprint) {
  state_ = CheckpointState{};
  state_.fingerprint = fingerprint;
  commits_ = 0;
  if (!trace_path_.empty() && util::file_exists(trace_path_)) {
    util::truncate_file(trace_path_, 0);
  }
}

bool CampaignCheckpointer::resume(std::uint64_t fingerprint) {
  if (!util::file_exists(path_)) {
    begin(fingerprint);
    return false;
  }
  state_ = checkpoint_from_json(util::read_file(path_));
  PFI_CHECK(state_.fingerprint == fingerprint)
      << "checkpoint '" << path_ << "' was written by a different campaign "
      << "configuration (fingerprint " << state_.fingerprint
      << ", this config is " << fingerprint
      << ") — refusing to resume; delete the checkpoint to start over";
  commits_ = 0;
  if (!trace_path_.empty()) {
    const std::int64_t size = util::file_size(trace_path_);
    if (state_.trace_bytes == 0 && size < 0) {
      // Nothing committed and nothing on disk: a fresh stream.
    } else {
      PFI_CHECK(size >= 0 &&
                static_cast<std::uint64_t>(size) >= state_.trace_bytes)
          << "streaming trace '" << trace_path_ << "' holds " << size
          << " bytes but the checkpoint committed " << state_.trace_bytes
          << " — the trace file was lost or rewritten; cannot resume";
      if (static_cast<std::uint64_t>(size) > state_.trace_bytes) {
        // Torn tail: an append from a killed wave that never reached its
        // checkpoint. Those events will be regenerated bit-identically.
        util::truncate_file(trace_path_, state_.trace_bytes);
      }
    }
  }
  return true;
}

void CampaignCheckpointer::commit(
    const CampaignResult& folded, std::uint64_t next_unit, bool done,
    std::span<const trace::InjectionEvent> new_events,
    std::span<const StratumCheckpoint> strata) {
  state_.strata.assign(strata.begin(), strata.end());
  commit(folded, next_unit, done, new_events);
}

void CampaignCheckpointer::commit(
    const CampaignResult& folded, std::uint64_t next_unit, bool done,
    std::span<const trace::InjectionEvent> new_events) {
  std::string jsonl;
  for (const trace::InjectionEvent& ev : new_events) {
    jsonl += trace::event_to_json(ev);
    jsonl += '\n';
  }
  commit_bytes(folded, next_unit, done, jsonl, state_.strata);
}

void CampaignCheckpointer::commit_bytes(
    const CampaignResult& folded, std::uint64_t next_unit, bool done,
    std::string_view bytes, std::span<const StratumCheckpoint> strata) {
  if (strata.data() != state_.strata.data()) {
    state_.strata.assign(strata.begin(), strata.end());
  }
  if (!trace_path_.empty() && !bytes.empty()) {
    state_.trace_bytes = util::append_file_sync(trace_path_, bytes);
  } else if (!trace_path_.empty() && state_.trace_bytes == 0 &&
             !util::file_exists(trace_path_)) {
    // Make the stream exist even before the first byte, so a resume that
    // committed nothing still finds a (0-byte) file.
    state_.trace_bytes = util::append_file_sync(trace_path_, "");
  }
  state_.result = folded;
  state_.next_unit = next_unit;
  state_.done = done ? 1 : 0;
  util::atomic_write_file(path_, checkpoint_to_json(state_));
  ++commits_;
  if (fail_after_ != 0 && commits_ >= fail_after_) {
    throw CampaignAborted("checkpoint crash-injection: simulated kill after " +
                          std::to_string(commits_) + " commits");
  }
}

}  // namespace pfi::core
