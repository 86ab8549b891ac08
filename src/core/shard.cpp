#include "core/shard.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "core/campaign_internal.hpp"
#include "core/checkpoint.hpp"
#include "core/sampling_internal.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace pfi::core {

namespace {

using detail::StratifiedFold;
using detail::StratifiedSchedule;
using detail::StratUnit;
using detail::UnitOutcome;

/// fnv1a's offset basis — the digest of an empty log.
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

// ---------------------------------------------------------------------------
// Shard log records. One record line per attempt/unit, followed by the
// events of its reps (one event_to_json line each) when event recording is
// on. Counters ride in the record line itself; the rows string is one
// digit ('0'/'1') per scored row, in score order — exactly the UnitOutcome
// payload the single-process fold consumes, so the merge can replay that
// fold verbatim. `rec_kind` is 1 for uniform records, 2 for stratified ones
// (which add the stratum and a per-rep pruned marker).

struct ParsedRecord {
  std::uint64_t stratum = 0;  ///< stratified only
  std::uint64_t attempt = 0;  ///< global (uniform) or stratum-local index
  UnitOutcome out;
};

void append_record(std::string& log, int rec_kind, std::uint64_t stratum,
                   std::uint64_t attempt, const UnitOutcome& out,
                   bool events) {
  log += "{\"rec\":" + std::to_string(rec_kind);
  if (rec_kind == 2) log += ",\"stratum\":" + std::to_string(stratum);
  log += ",\"attempt\":" + std::to_string(attempt) +
         ",\"skipped\":" + std::to_string(out.skipped) + ",\"reps\":[";
  for (std::size_t i = 0; i < out.reps.size(); ++i) {
    const auto& rep = out.reps[i];
    if (i != 0) log += ',';
    log += '[';
    log += rep.non_finite ? '1' : '0';
    log += ',';
    if (rec_kind == 2) {
      log += rep.pruned ? '1' : '0';
      log += ',';
    }
    log += '"';
    for (const std::uint8_t r : rep.corrupted) log += r != 0 ? '1' : '0';
    log += '"';
    log += ',' + std::to_string(events ? rep.events.size() : 0) + ']';
  }
  log += "]}\n";
  if (!events) return;
  for (const auto& rep : out.reps) {
    for (const trace::InjectionEvent& ev : rep.events) {
      log += trace::event_to_json(ev);
      log += '\n';
    }
  }
}

/// Parse a committed shard log prefix into records. `rec_kind` is 1 for
/// uniform logs, 2 for stratified ones.
std::vector<ParsedRecord> parse_shard_log(const std::string& text,
                                          int rec_kind,
                                          const std::string& what) {
  std::vector<ParsedRecord> out;
  util::JsonReader r(text, what);
  while (!r.at_end()) {
    const std::uint64_t kind = r.key("rec").u64();
    if (kind != static_cast<std::uint64_t>(rec_kind)) {
      r.fail("is ", kind, " but this campaign expects kind-", rec_kind,
             " records — the log belongs to a different campaign type");
    }
    ParsedRecord rec;
    if (rec_kind == 2) rec.stratum = r.key("stratum").u64();
    rec.attempt = r.key("attempt").u64();
    rec.out.skipped = r.key("skipped").u64();
    std::vector<std::uint64_t> n_events;
    r.key("reps");
    while (r.next_item()) {
      UnitOutcome::Rep rep;
      // A uniform rep's trace is stamped with its global attempt.
      if (rec_kind == 1) rep.attempt = rec.attempt;
      rep.non_finite = r.lit("[").i64(0, 1) != 0;
      if (rec_kind == 2) rep.pruned = r.lit(",").i64(0, 1) != 0;
      for (const char c : r.lit(",").str()) {
        if (c != '0' && c != '1') r.fail("holds a row that is not 0 or 1");
        rep.corrupted.push_back(c == '1' ? 1 : 0);
      }
      n_events.push_back(r.lit(",").u64());
      r.lit("]");
      rec.out.reps.push_back(std::move(rep));
    }
    r.lit("}\n");
    // The record line is followed by its reps' events, one line each.
    for (std::size_t i = 0; i < n_events.size(); ++i) {
      for (std::uint64_t e = 0; e < n_events[i]; ++e) {
        rec.out.reps[i].events.push_back(trace::event_from_json(r.line()));
      }
    }
    out.push_back(std::move(rec));
  }
  return out;
}

std::uint64_t count_record_lines(const std::string& text) {
  std::uint64_t n = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    if (text.compare(pos, 7, "{\"rec\":") == 0) ++n;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Shard plumbing shared by both runners.

std::uint64_t shard_fingerprint(std::string_view kind, std::uint64_t base_fp,
                                const ShardPlan& plan, bool record_events) {
  std::ostringstream os;
  os << "shard|" << kind << "|fp=" << base_fp << "|shards=" << plan.shards
     << "|index=" << plan.shard_index
     << "|events=" << (record_events ? 1 : 0);
  return util::fnv1a(os.str());
}

void check_shard_count(std::int64_t shards) {
  PFI_CHECK(shards >= 1 && shards <= kMaxShards)
      << "shards=" << shards << " must be in [1, " << kMaxShards << "]";
}

/// Preconditions shared by both shard runners (`config` is the uniform
/// config or the stratified one's base).
void check_shard_run(const ShardPlan& plan, const CampaignConfig& config) {
  check_shard_count(plan.shards);
  PFI_CHECK(plan.shard_index >= 0 && plan.shard_index < plan.shards)
      << "shard plan: shard_index=" << plan.shard_index
      << " must be in [0, " << plan.shards << ")";
  PFI_CHECK(plan.horizon >= 0) << "shard plan: horizon=" << plan.horizon
                               << " must be >= 0 (0 = auto)";
  PFI_CHECK(config.checkpoint == nullptr)
      << "shard runs manage their own checkpoint — "
         "CampaignConfig::checkpoint must be null";
  PFI_CHECK(config.trace == nullptr || !config.trace->capture_logits())
      << "sharded campaigns cannot capture logits — record events only";
}

/// The committed log prefix (resume path): everything up to the
/// checkpointer's committed byte count. resume() already truncated any torn
/// tail, so this is simply the file — but slice defensively anyway.
std::string committed_log(const CampaignCheckpointer& ckpt) {
  if (ckpt.trace_bytes() == 0) return {};
  std::string text = util::read_file(ckpt.trace_path());
  PFI_CHECK(text.size() >= ckpt.trace_bytes())
      << "shard log '" << ckpt.trace_path() << "' is shorter ("
      << text.size() << " bytes) than its checkpoint committed ("
      << ckpt.trace_bytes() << ") — the log was lost or rewritten";
  text.resize(ckpt.trace_bytes());
  return text;
}

void write_manifest(const ShardPaths& paths, const ShardManifest& m) {
  util::atomic_write_file(paths.manifest, shard_manifest_to_json(m));
}

/// Horizon of a standalone shard run (ShardPlan::horizon == 0). Generous on
/// purpose: every extra pfi_launch round respawns and retrains each worker.
std::int64_t default_horizon(const CampaignConfig& config) {
  return std::max<std::int64_t>(16, 4 * config.trials);
}

}  // namespace

ShardPaths shard_paths(const std::string& dir, std::int64_t shard_index,
                       std::int64_t shards) {
  const std::string stem = dir + "/shard-" + std::to_string(shard_index) +
                           "-of-" + std::to_string(shards);
  return {stem + ".ckpt", stem + ".log.jsonl", stem + ".manifest.json"};
}

std::string shard_manifest_to_json(const ShardManifest& m) {
  std::ostringstream os;
  os << "{\"version\":" << m.version << ",\"kind\":\""
     << util::json_escape(m.kind) << "\",\"fingerprint\":" << m.fingerprint
     << ",\"shards\":" << m.shards << ",\"shard_index\":" << m.shard_index
     << ",\"records\":" << m.records << ",\"horizon\":" << m.horizon
     << ",\"log_bytes\":" << m.log_bytes << ",\"log_digest\":" << m.log_digest
     << ",\"done\":" << m.done
     << ",\"record_events\":" << (m.record_events ? 1 : 0) << ",\"log\":\""
     << util::json_escape(m.log) << "\",\"trials_target\":" << m.trials_target
     << ",\"attempt_cap\":" << m.attempt_cap
     << ",\"max_yield\":" << m.max_yield
     << ",\"trials_budget\":" << m.trials_budget << ",\"strata\":[";
  for (std::size_t s = 0; s < m.strata.size(); ++s) {
    const Stratum& st = m.strata[s];
    if (s != 0) os << ',';
    os << '[' << st.layer << ',' << st.bit_class << ',' << st.bit_lo << ','
       << st.bit_hi << ",\"" << util::double_bits_hex(st.weight) << "\","
       << m.stratum_caps[s] << ',' << m.stratum_attempt_caps[s] << ']';
  }
  os << "]}";
  return os.str();
}

ShardManifest shard_manifest_from_json(const std::string& text) {
  util::JsonReader r(text, "shard manifest");
  ShardManifest m;
  m.version = r.key("version").u64();
  if (m.version != kShardManifestVersion) {
    r.fail("is ", m.version, ", an unsupported shard manifest version (this "
           "build reads version ", kShardManifestVersion, ")");
  }
  m.kind = r.key("kind").str();
  if (m.kind != "classification" && m.kind != "stratified") {
    r.fail("is '", m.kind, "', not 'classification' or 'stratified'");
  }
  m.fingerprint = r.key("fingerprint").u64();
  m.shards = r.key("shards").i64(1, kMaxShards);
  m.shard_index = r.key("shard_index").i64(0, kMaxShards - 1);
  m.records = r.key("records").u64();
  m.horizon = r.key("horizon").i64();
  m.log_bytes = r.key("log_bytes").u64();
  m.log_digest = r.key("log_digest").u64();
  m.done = r.key("done").u64();
  m.record_events = r.key("record_events").i64(0, 1) != 0;
  m.log = r.key("log").str();
  m.trials_target = r.key("trials_target").u64();
  m.attempt_cap = r.key("attempt_cap").i64();
  m.max_yield = r.key("max_yield").i64();
  m.trials_budget = r.key("trials_budget").u64();
  r.key("strata");
  constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  while (r.next_item()) {
    Stratum st;
    st.layer = r.lit("[").i64();
    st.bit_class = static_cast<int>(r.lit(",").i64(kIntMin, kIntMax));
    st.bit_lo = static_cast<int>(r.lit(",").i64(kIntMin, kIntMax));
    st.bit_hi = static_cast<int>(r.lit(",").i64(kIntMin, kIntMax));
    st.weight = r.lit(",").f64_bits();
    m.stratum_caps.push_back(r.lit(",").u64());
    m.stratum_attempt_caps.push_back(r.lit(",").u64());
    r.lit("]");
    m.strata.push_back(st);
  }
  r.end("}");
  return m;
}

ShardManifest read_shard_manifest(const std::string& path) {
  return shard_manifest_from_json(util::read_file(path));
}

ShardRunReport run_classification_shard(FaultInjector& fi,
                                        const data::SyntheticDataset& ds,
                                        const CampaignConfig& config,
                                        const ShardPlan& plan,
                                        const std::string& dir,
                                        std::string_view context) {
  check_shard_run(plan, config);
  detail::check_campaign_config(fi, config);

  fi.model().eval();
  const bool record = plan.record_events || config.trace != nullptr;
  const std::int64_t cap = detail::campaign_attempt_cap(config);
  const std::int64_t horizon = std::min(
      cap, plan.horizon == 0 ? default_horizon(config) : plan.horizon);

  util::ensure_dir(dir);
  const ShardPaths paths = shard_paths(dir, plan.shard_index, plan.shards);
  const std::uint64_t base_fp = campaign_fingerprint(config, context);

  CampaignCheckpointer ckpt(paths.checkpoint, paths.log);
  ckpt.fail_after_commits(plan.fail_after_commits);
  ckpt.resume(shard_fingerprint("classification", base_fp, plan, record));

  auto rec = static_cast<std::int64_t>(ckpt.next_unit());
  CampaignResult progress = ckpt.result();

  // Shard k owns global attempts {k, k + S, k + 2S, ...} below the horizon.
  const std::int64_t k = plan.shard_index;
  const std::int64_t S = plan.shards;
  const std::int64_t owned_total =
      k >= horizon ? 0 : (horizon - k + S - 1) / S;

  ShardManifest m;
  m.kind = "classification";
  m.fingerprint = base_fp;
  m.shards = S;
  m.shard_index = k;
  m.records = static_cast<std::uint64_t>(rec);
  m.horizon = horizon;
  m.log_bytes = ckpt.trace_bytes();
  m.log_digest = util::fnv1a(committed_log(ckpt), kFnvBasis);
  m.done = rec >= owned_total ? 1 : 0;
  m.record_events = record;
  m.log = "shard-" + std::to_string(k) + "-of-" + std::to_string(S) +
          ".log.jsonl";
  m.trials_target = static_cast<std::uint64_t>(config.trials);
  m.attempt_cap = cap;
  m.max_yield = config.batch_size * config.injections_per_image;

  if (rec >= owned_total) {
    write_manifest(paths, m);
    return {m, paths};
  }

  const std::int64_t threads = detail::resolve_threads(
      config.threads, std::max<std::int64_t>(1, owned_total - rec));
  detail::WorkerSet set(fi, threads);
  std::string bytes;
  detail::run_ordered_units(
      set,
      [&] {
        const std::int64_t n = std::min(
            owned_total - rec,
            std::max<std::int64_t>(threads * 8, detail::kSerialCommitEvery));
        return detail::index_wave(rec, n) |
               std::views::transform(  // owned record -> global attempt
                   [k, S](std::int64_t r) { return k + r * S; });
      },
      [&](std::size_t g, std::int64_t a) {
        const auto au = static_cast<std::uint64_t>(a);
        return detail::run_attempt(
            set[g], ds, config,
            {.root = config.seed, .index = au, .attempt = au},
            {.events = record});
      },
      [&](std::int64_t a, UnitOutcome& out) {
        // Serialized in owned-attempt order — the log's bytes are a pure
        // function of (config, plan), independent of the thread count.
        append_record(bytes, 1, 0, static_cast<std::uint64_t>(a), out,
                      record);
        detail::merge_campaign_attempt(progress, out);
        ++rec;
        return false;
      },
      [&](bool) {
        const bool done = rec >= owned_total;
        m.log_digest = util::fnv1a(bytes, m.log_digest);
        ckpt.commit_bytes(progress, static_cast<std::uint64_t>(rec), done,
                          bytes);
        bytes.clear();
        m.records = static_cast<std::uint64_t>(rec);
        m.log_bytes = ckpt.trace_bytes();
        m.done = done ? 1 : 0;
        write_manifest(paths, m);
      });
  return {m, paths};
}

ShardRunReport run_stratified_shard(FaultInjector& fi,
                                    const data::SyntheticDataset& ds,
                                    const StratifiedCampaignConfig& config,
                                    const ShardPlan& plan,
                                    const std::string& dir,
                                    std::string_view context) {
  const CampaignConfig& base = config.base;
  check_shard_run(plan, base);
  PFI_CHECK(!(config.target_half_width > 0.0))
      << "CI-target stratified campaigns couple strata through the pooled "
         "interval and cannot be sharded — use fixed-budget mode "
         "(target_half_width = 0) or run single-process";

  fi.model().eval();
  const bool record = plan.record_events || base.trace != nullptr;
  StratifiedFold fold(detail::make_stratified_schedule(fi, config), nullptr);
  const StratifiedSchedule& sched = fold.schedule();
  const std::size_t num_strata = sched.strata.size();

  // Shard k owns strata {s : s mod S == k}. Budget mode decouples strata
  // completely (core/sampling_internal.hpp), so running only the owned ones
  // to their caps reproduces exactly the attempts the global schedule would
  // have given them.
  std::vector<std::uint8_t> owned(num_strata, 0);
  for (std::size_t s = 0; s < num_strata; ++s) {
    owned[s] = static_cast<std::int64_t>(s) % plan.shards == plan.shard_index
                   ? 1
                   : 0;
  }

  const std::vector<bool> relu_adj = relu_adjacent_layers(fi);

  util::ensure_dir(dir);
  const ShardPaths paths = shard_paths(dir, plan.shard_index, plan.shards);
  const std::uint64_t base_fp = stratified_fingerprint(config, context);

  CampaignCheckpointer ckpt(paths.checkpoint, paths.log);
  ckpt.fail_after_commits(plan.fail_after_commits);
  ckpt.resume(shard_fingerprint("stratified", base_fp, plan, record));
  if (!ckpt.strata().empty()) fold.restore(ckpt.strata());
  std::uint64_t wave_index = ckpt.next_unit();
  const std::string committed = committed_log(ckpt);
  fold.refresh_flags();

  ShardManifest m;
  m.kind = "stratified";
  m.fingerprint = base_fp;
  m.shards = plan.shards;
  m.shard_index = plan.shard_index;
  m.records = count_record_lines(committed);
  m.horizon = 0;
  m.log_bytes = ckpt.trace_bytes();
  m.log_digest = util::fnv1a(committed, kFnvBasis);
  m.record_events = record;
  m.log = "shard-" + std::to_string(plan.shard_index) + "-of-" +
          std::to_string(plan.shards) + ".log.jsonl";
  m.trials_target = 0;
  m.attempt_cap = base.attempt_cap;
  m.max_yield = sched.max_yield;
  m.strata = sched.strata;
  m.stratum_caps = sched.caps;
  m.stratum_attempt_caps = sched.attempt_caps;
  m.trials_budget = sched.trials_budget;
  m.done = fold.any_open(&owned) ? 0 : 1;

  if (m.done != 0) {
    write_manifest(paths, m);
    return {m, paths};
  }

  const std::int64_t threads = detail::resolve_threads(
      base.threads, std::max<std::int64_t>(1, base.trials / 4));
  detail::WorkerSet set(fi, threads);
  std::string bytes;
  detail::run_ordered_units(
      set, [&] { return fold.compose_wave(&owned); },
      [&](std::size_t g, const StratUnit& u) {
        return detail::run_attempt(
            set[g], ds, base, detail::stratum_draw(config, sched, relu_adj, u),
            {.events = record});
      },
      [&](const StratUnit& u, UnitOutcome& out) {
        append_record(bytes, 2, u.stratum, u.attempt, out, record);
        fold.merge_unit(u, out);
        ++m.records;
        return false;
      },
      [&](bool) {
        fold.refresh_flags();
        ++wave_index;
        const bool done = !fold.any_open(&owned);
        m.log_digest = util::fnv1a(bytes, m.log_digest);
        ckpt.commit_bytes(fold.pooled(), wave_index, done, bytes,
                          fold.states());
        bytes.clear();
        m.log_bytes = ckpt.trace_bytes();
        m.done = done ? 1 : 0;
        write_manifest(paths, m);
      });
  return {m, paths};
}

ShardMerge merge_shards(const std::vector<std::string>& manifest_paths,
                        trace::TraceSink* sink) {
  PFI_CHECK(!manifest_paths.empty())
      << "merge needs at least one shard manifest";
  PFI_CHECK(sink == nullptr || !sink->capture_logits())
      << "shard merge cannot reconstruct logits — the merge sink must not "
         "capture logits";

  struct Loaded {
    ShardManifest m;
    std::string dir;
    std::string path;
  };
  std::vector<Loaded> loaded;
  loaded.reserve(manifest_paths.size());
  for (const std::string& path : manifest_paths) {
    const std::size_t slash = path.rfind('/');
    loaded.push_back({read_shard_manifest(path),
                      slash == std::string::npos ? std::string(".")
                                                 : path.substr(0, slash),
                      path});
  }

  const ShardManifest& first = loaded.front().m;
  for (const Loaded& l : loaded) {
    PFI_CHECK(l.m.kind == first.kind)
        << "shard manifests mix campaign kinds ('" << first.kind << "' vs '"
        << l.m.kind << "' in " << l.path << ") — refusing to merge";
    PFI_CHECK(l.m.fingerprint == first.fingerprint)
        << "shard manifests disagree on the campaign fingerprint (" << l.path
        << " was written by a different campaign configuration) — refusing "
           "to merge";
    PFI_CHECK(l.m.shards == first.shards)
        << "shard manifests disagree on the shard count (" << first.shards
        << " vs " << l.m.shards << " in " << l.path << ") — refusing to merge";
    if (first.kind == "classification") {
      PFI_CHECK(l.m.horizon == first.horizon)
          << "shard manifests disagree on the attempt horizon ("
          << first.horizon << " vs " << l.m.horizon << " in " << l.path
          << ") — resume every shard to the same horizon before merging";
    }
  }

  const std::int64_t S = first.shards;
  std::vector<const Loaded*> by_index(static_cast<std::size_t>(S), nullptr);
  for (const Loaded& l : loaded) {
    PFI_CHECK(l.m.shard_index >= 0 && l.m.shard_index < S)
        << "shard index " << l.m.shard_index << " in " << l.path
        << " is out of range [0, " << S << ")";
    const auto k = static_cast<std::size_t>(l.m.shard_index);
    PFI_CHECK(by_index[k] == nullptr)
        << "duplicate shard index " << l.m.shard_index << " in the merge set ("
        << by_index[k]->path << " and " << l.path << ")";
    by_index[k] = &l;
  }
  for (std::int64_t k = 0; k < S; ++k) {
    PFI_CHECK(by_index[static_cast<std::size_t>(k)] != nullptr)
        << "the merge set is missing shard " << k << " of " << S;
  }

  // Load + verify + parse each shard's committed log prefix. Bytes past the
  // committed size are a torn tail from a mid-append kill and are ignored,
  // exactly as single-node resume ignores them.
  const bool keep_events = sink != nullptr;
  std::vector<std::vector<ParsedRecord>> recs(static_cast<std::size_t>(S));
  for (std::int64_t k = 0; k < S; ++k) {
    const Loaded& l = *by_index[static_cast<std::size_t>(k)];
    PFI_CHECK(l.m.done != 0)
        << "shard " << k << " of " << S
        << " has not finished — resume it to completion before merging";
    if (keep_events) {
      PFI_CHECK(l.m.record_events)
          << "the merge was asked to produce a trace but shard " << k
          << " recorded no events — re-run the shards with event recording";
    }
    std::string text;
    if (l.m.log_bytes > 0) {
      const std::string log_path = l.dir + "/" + l.m.log;
      const std::int64_t sz = util::file_size(log_path);
      PFI_CHECK(sz >= 0 && static_cast<std::uint64_t>(sz) >= l.m.log_bytes)
          << "shard " << k << " log '" << log_path << "' is truncated: "
          << l.m.log_bytes << " bytes committed but "
          << (sz < 0 ? 0 : sz) << " on disk";
      text = util::read_file(log_path);
      text.resize(l.m.log_bytes);
      PFI_CHECK(util::fnv1a(text, kFnvBasis) == l.m.log_digest)
          << "shard " << k << " log digest mismatch — '" << log_path
          << "' was modified or corrupted since its last commit";
    }
    recs[static_cast<std::size_t>(k)] = parse_shard_log(
        text, first.kind == "classification" ? 1 : 2,
        "shard " + std::to_string(k) + " log");
  }

  // Replay into a local sink so a ShardHorizonExhausted throw leaves the
  // caller's sink untouched (the supervisor extends the horizon and merges
  // again); events transfer only on success.
  trace::TraceSink local(false);
  trace::TraceSink* replay_sink = keep_events ? &local : nullptr;

  ShardMerge merged;
  merged.kind = first.kind;
  if (first.kind == "classification") {
    CampaignResult acc;
    const std::uint64_t target = first.trials_target;
    const std::int64_t stop = std::min(first.horizon, first.attempt_cap);
    bool done = false;
    std::int64_t a = 0;
    for (; a < stop && !done; ++a) {
      const auto k = static_cast<std::size_t>(a % S);
      const auto idx = static_cast<std::size_t>(a / S);
      PFI_CHECK(idx < recs[k].size())
          << "shard " << k << " log ends before attempt " << a
          << " — the shard did not cover its horizon";
      ParsedRecord& r = recs[k][idx];
      PFI_CHECK(r.attempt == static_cast<std::uint64_t>(a))
          << "shard " << k << " log is out of order: expected attempt " << a
          << ", found " << r.attempt;
      done = detail::merge_campaign_attempt(acc, r.out, target, replay_sink);
    }
    if (!done) {
      if (first.horizon >= first.attempt_cap) {
        // The single-process run would have burned its attempt cap and
        // returned this partial result — so does the merge.
        acc.gave_up = 1;
      } else {
        std::ostringstream os;
        os << "the recorded horizon (" << first.horizon
           << " attempts) was exhausted at " << acc.trials << "/" << target
           << " trials — resume the shards with a larger horizon and merge "
              "again";
        throw ShardHorizonExhausted(os.str());
      }
    }
    merged.classification = acc;
  } else {
    for (const Loaded& l : loaded) {
      PFI_CHECK(l.m.strata.size() == first.strata.size() &&
                l.m.stratum_caps == first.stratum_caps &&
                l.m.stratum_attempt_caps == first.stratum_attempt_caps &&
                l.m.trials_budget == first.trials_budget)
          << "shard manifests disagree on the stratified schedule (" << l.path
          << ") — refusing to merge";
    }
    StratifiedSchedule sched;
    sched.strata = first.strata;
    sched.caps = first.stratum_caps;
    sched.attempt_caps = first.stratum_attempt_caps;
    sched.trials_budget = first.trials_budget;
    sched.target = 0.0;
    sched.max_yield = first.max_yield;
    const std::size_t num_strata = sched.strata.size();

    // Index records by (stratum, stratum-local attempt). Each shard emits a
    // stratum's attempts in increasing order, so per-stratum position IS
    // the attempt index; verify as we go.
    std::vector<std::vector<ParsedRecord*>> by_stratum(num_strata);
    for (std::int64_t k = 0; k < S; ++k) {
      for (ParsedRecord& r : recs[static_cast<std::size_t>(k)]) {
        PFI_CHECK(r.stratum < num_strata)
            << "shard " << k << " log names stratum " << r.stratum
            << " but the schedule has " << num_strata;
        PFI_CHECK(static_cast<std::int64_t>(r.stratum) % S == k)
            << "shard " << k << " log holds a record for stratum "
            << r.stratum << ", which it does not own";
        auto& list = by_stratum[r.stratum];
        PFI_CHECK(r.attempt == list.size())
            << "shard " << k << " log attempts for stratum " << r.stratum
            << " are out of order: expected " << list.size() << ", found "
            << r.attempt;
        list.push_back(&r);
      }
    }

    StratifiedFold fold(std::move(sched), replay_sink);
    fold.refresh_flags();
    while (true) {
      const std::vector<StratUnit> units = fold.compose_wave();
      if (units.empty()) break;
      for (const StratUnit& u : units) {
        auto& list = by_stratum[u.stratum];
        PFI_CHECK(u.attempt < list.size())
            << "shard " << static_cast<std::int64_t>(u.stratum) % S
            << " log ends before stratum " << u.stratum << " attempt "
            << u.attempt << " — the shard did not run its strata to their "
            << "caps";
        fold.merge_unit(u, list[u.attempt]->out);
      }
      fold.refresh_flags();
    }
    merged.stratified = fold.assemble();
  }

  if (sink != nullptr) sink->append(local.take_events());
  return merged;
}

CampaignResult run_sharded_classification(FaultInjector& fi,
                                          const data::SyntheticDataset& ds,
                                          const CampaignConfig& config,
                                          std::int64_t shards,
                                          const std::string& dir,
                                          trace::TraceSink* sink,
                                          std::string_view context) {
  check_shard_count(shards);
  const std::int64_t cap = detail::campaign_attempt_cap(config);
  // Start at the fewest attempts that could reach the trial target (every
  // one at full yield) and double on exhaustion. Rounds resume from the
  // shards' checkpoints, so no attempt is computed twice and the final
  // horizon stays below twice the attempts the serial fold consumes. An
  // invalid config still yields a horizon >= 1; the shard runner refuses it.
  const std::int64_t max_yield = std::max<std::int64_t>(
      1, config.batch_size * config.injections_per_image);
  std::int64_t horizon = std::max<std::int64_t>(
      1, std::min(cap, (config.trials + max_yield - 1) / max_yield));
  const bool record = sink != nullptr;
  while (true) {
    std::vector<std::string> manifests;
    for (std::int64_t k = 0; k < shards; ++k) {
      ShardPlan plan;
      plan.shards = shards;
      plan.shard_index = k;
      plan.horizon = horizon;
      plan.record_events = record;
      manifests.push_back(
          run_classification_shard(fi, ds, config, plan, dir, context)
              .paths.manifest);
    }
    try {
      return merge_shards(manifests, sink).classification;
    } catch (const ShardHorizonExhausted&) {
      PFI_CHECK(horizon < cap)
          << "unreachable: the horizon was exhausted at the attempt cap";
      horizon = std::min(cap, horizon * 2);
    }
  }
}

StratifiedResult run_sharded_stratified(FaultInjector& fi,
                                        const data::SyntheticDataset& ds,
                                        const StratifiedCampaignConfig& config,
                                        std::int64_t shards,
                                        const std::string& dir,
                                        trace::TraceSink* sink,
                                        std::string_view context) {
  check_shard_count(shards);
  std::vector<std::string> manifests;
  for (std::int64_t k = 0; k < shards; ++k) {
    ShardPlan plan;
    plan.shards = shards;
    plan.shard_index = k;
    plan.record_events = sink != nullptr;
    manifests.push_back(
        run_stratified_shard(fi, ds, config, plan, dir, context)
            .paths.manifest);
  }
  return merge_shards(manifests, sink).stratified;
}

}  // namespace pfi::core
