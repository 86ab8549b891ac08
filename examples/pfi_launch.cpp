// pfi_launch — multi-process supervisor for sharded campaigns. Spawns S
// pfi_cli worker processes (one per shard), restarts any that crash
// (workers resume from their shard checkpoints, so a kill -9 at any wave
// costs only the in-flight work), extends the attempt horizon when the
// merge asks for more attempts, and finally merges the manifests in-process
// — producing exactly the bytes a single pfi_cli run would have.
//
// Usage:
//   pfi_launch --shard-dir DIR [--shards S] [--bin PATH]
//              [--max-restarts N] [--trace PATH] [--csv PATH]
//              -- [pfi_cli campaign flags...]
//
// Everything after `--` is forwarded verbatim to every worker (e.g.
// --model resnet18 --trials 100000 --threads 4). Do NOT pass shard flags
// there; the supervisor owns them.
//
// Example:
//   pfi_launch --shard-dir shards --shards 4 --
//       --model squeezenet --trials 20000 --sampler stratified
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/shard.hpp"
#include "util/parse.hpp"

namespace {

using namespace pfi;

[[noreturn]] void usage_and_exit(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: pfi_launch --shard-dir DIR [--shards S] [--bin PATH]\n"
               "                  [--max-restarts N] [--trace PATH]"
               " [--csv PATH]\n"
               "                  -- [pfi_cli campaign flags...]\n");
  std::exit(2);
}

/// Spawn one worker: fork + exec `argv_strings`. Returns the pid.
pid_t spawn(const std::vector<std::string>& argv_strings) {
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const std::string& s : argv_strings) {
    argv.push_back(const_cast<char*>(s.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "pfi_launch: cannot exec %s\n", argv[0]);
    std::_Exit(127);
  }
  if (pid < 0) {
    std::fprintf(stderr, "pfi_launch: fork failed\n");
    std::exit(1);
  }
  return pid;
}

/// One supervision wave: run every shard worker to successful completion,
/// restarting crashed ones up to `max_restarts` times each. Returns false
/// if any shard exhausted its restart budget.
bool run_workers(const std::string& bin,
                 const std::vector<std::string>& campaign_args,
                 const std::string& dir, std::int64_t shards,
                 std::int64_t horizon, std::int64_t max_restarts) {
  const auto worker_argv = [&](std::int64_t k) {
    std::vector<std::string> a = {bin};
    a.insert(a.end(), campaign_args.begin(), campaign_args.end());
    a.insert(a.end(), {"--shard-dir", dir, "--shards",
                       std::to_string(shards), "--shard-index",
                       std::to_string(k)});
    if (horizon > 0) {
      a.insert(a.end(), {"--shard-horizon", std::to_string(horizon)});
    }
    return a;
  };

  std::vector<pid_t> pid(static_cast<std::size_t>(shards), -1);
  std::vector<std::int64_t> restarts(static_cast<std::size_t>(shards), 0);
  std::int64_t live = 0;
  for (std::int64_t k = 0; k < shards; ++k) {
    pid[static_cast<std::size_t>(k)] = spawn(worker_argv(k));
    ++live;
  }
  bool all_ok = true;
  while (live > 0) {
    int status = 0;
    const pid_t done = ::waitpid(-1, &status, 0);
    if (done < 0) break;
    std::int64_t k = -1;
    for (std::int64_t i = 0; i < shards; ++i) {
      if (pid[static_cast<std::size_t>(i)] == done) k = i;
    }
    if (k < 0) continue;  // not one of ours
    --live;
    pid[static_cast<std::size_t>(k)] = -1;
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (ok) {
      std::printf("pfi_launch: shard %lld finished\n",
                  static_cast<long long>(k));
      continue;
    }
    if (WIFSIGNALED(status)) {
      std::printf("pfi_launch: shard %lld killed by signal %d\n",
                  static_cast<long long>(k), WTERMSIG(status));
    } else {
      std::printf("pfi_launch: shard %lld exited with status %d\n",
                  static_cast<long long>(k),
                  WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    }
    if (restarts[static_cast<std::size_t>(k)] >= max_restarts) {
      std::fprintf(stderr,
                   "pfi_launch: shard %lld failed %lld times — giving up\n",
                   static_cast<long long>(k),
                   static_cast<long long>(max_restarts + 1));
      all_ok = false;
      continue;
    }
    ++restarts[static_cast<std::size_t>(k)];
    std::printf("pfi_launch: restarting shard %lld (resumes from its "
                "checkpoint; attempt %lld of %lld)\n",
                static_cast<long long>(k),
                static_cast<long long>(restarts[static_cast<std::size_t>(k)]),
                static_cast<long long>(max_restarts));
    pid[static_cast<std::size_t>(k)] = spawn(worker_argv(k));
    ++live;
  }
  return all_ok;
}

std::int64_t int_flag(const char* flag, const char* text, std::int64_t lo,
                      std::int64_t hi) {
  const auto v = util::parse_int(text, lo, hi);
  if (!v.has_value()) {
    usage_and_exit((std::string(flag) + " expects an integer in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "], got '" + text + "'")
                       .c_str());
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string bin;
  std::string trace_path;
  std::string csv_path;
  std::int64_t shards = 2;
  std::int64_t max_restarts = 3;
  std::vector<std::string> campaign_args;

  int i = 1;
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--") {
      ++i;
      break;
    }
    if (a == "--help" || a == "-h") usage_and_exit(nullptr);
    if (a != "--shard-dir" && a != "--shards" && a != "--bin" &&
        a != "--max-restarts" && a != "--trace" && a != "--csv") {
      usage_and_exit(("unknown flag '" + a + "'").c_str());
    }
    if (i + 1 >= argc) {
      usage_and_exit(("flag '" + a + "' is missing its value").c_str());
    }
    const char* v = argv[++i];
    if (a == "--shard-dir") dir = v;
    else if (a == "--shards")
      shards = int_flag("--shards", v, 1, core::kMaxShards);
    else if (a == "--bin") bin = v;
    else if (a == "--max-restarts")
      max_restarts = int_flag("--max-restarts", v, 0, 1000);
    else if (a == "--trace") trace_path = v;
    else if (a == "--csv") csv_path = v;
  }
  for (; i < argc; ++i) campaign_args.push_back(argv[i]);
  if (dir.empty()) usage_and_exit("--shard-dir DIR is required");
  if (bin.empty()) {
    // Default: the pfi_cli sitting next to this binary.
    const std::string self = argv[0];
    const auto slash = self.rfind('/');
    bin = (slash == std::string::npos ? std::string()
                                      : self.substr(0, slash + 1)) +
          "pfi_cli";
  }
  // Workers record events only when the campaign asks for a trace.
  if (!trace_path.empty()) {
    campaign_args.insert(campaign_args.end(), {"--trace", trace_path});
  }

  // Supervision rounds: run workers, try to merge; a ShardHorizonExhausted
  // means every shard must cover more attempts, so double the horizon and
  // go again (workers resume — earlier attempts are never recomputed).
  std::int64_t horizon = 0;  // 0 = let the workers pick (4 x trials)
  for (int round = 0;; ++round) {
    if (!run_workers(bin, campaign_args, dir, shards, horizon,
                     max_restarts)) {
      return 1;
    }
    std::vector<std::string> manifests;
    for (std::int64_t k = 0; k < shards; ++k) {
      manifests.push_back(core::shard_paths(dir, k, shards).manifest);
    }
    try {
      trace::TraceSink sink;
      const core::ShardMerge merged = core::merge_shards(
          manifests, trace_path.empty() ? nullptr : &sink);
      core::CampaignResult r;
      Proportion p{};
      if (merged.kind == "stratified") {
        r = merged.stratified.totals;
        p = merged.stratified.estimate();
      } else {
        r = merged.classification;
        p = r.corruption_probability();
      }
      std::printf("\npfi_launch: merged %lld shards\n",
                  static_cast<long long>(shards));
      std::printf("  injected trials      %llu\n",
                  static_cast<unsigned long long>(r.trials));
      std::printf("  corruptions          %llu\n",
                  static_cast<unsigned long long>(r.corruptions));
      std::printf("  P(misclassification) %.4f%%  [99%% CI %.4f%%, %.4f%%]\n",
                  100.0 * p.value, 100.0 * p.lo, 100.0 * p.hi);
      if (!csv_path.empty()) {
        if (merged.kind == "stratified") {
          core::write_stratified_csv(csv_path,
                                     {{"merged", merged.stratified}});
        } else {
          core::write_campaign_csv(csv_path, {{"merged", r}});
        }
        std::printf("  csv written to %s\n", csv_path.c_str());
      }
      if (!trace_path.empty()) {
        trace::write_trace_jsonl(trace_path, sink.events());
        std::printf("  trace: %zu merged events written to %s\n",
                    sink.events().size(), trace_path.c_str());
      }
      return 0;
    } catch (const core::ShardHorizonExhausted& e) {
      const auto m =
          core::read_shard_manifest(core::shard_paths(dir, 0, shards).manifest);
      horizon = m.horizon * 2;
      std::printf("pfi_launch: %s\npfi_launch: extending horizon to %lld "
                  "(round %d)\n",
                  e.what(), static_cast<long long>(horizon), round + 2);
    } catch (const Error& e) {
      std::fprintf(stderr, "pfi_launch: merge refused: %s\n", e.what());
      return 2;
    }
  }
}
