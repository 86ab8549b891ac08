// pfi_merge — deterministically merge a sharded campaign's manifests into
// the single-process result (core/shard.hpp). Needs NO model and no
// campaign flags: each manifest embeds the campaign's schedule, so the
// merge is a pure replay of the recorded attempt outcomes in global order.
//
// Usage:
//   pfi_merge [--trace PATH] [--csv PATH] MANIFEST...
//
// MANIFEST... are the shard manifest files (one per shard; pfi_cli prints
// each worker's path). The merged counts — and, with --trace, the merged
// event JSONL, and with --csv, the result row — are byte-identical to what
// one un-sharded process would have produced.
//
// Exit status: 0 on a clean merge; 3 when the recorded attempt horizon was
// exhausted before the trial target (resume the shards with a larger
// horizon — pfi_launch automates this); 2 on any refused shard set
// (mismatched fingerprints, missing/duplicate shards, truncated or
// corrupted logs, ...).
#include <cstdio>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/shard.hpp"

namespace {

using namespace pfi;

[[noreturn]] void usage_and_exit(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: pfi_merge [--trace PATH] [--csv PATH] MANIFEST...\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string csv_path;
  std::vector<std::string> manifests;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") usage_and_exit(nullptr);
    if (a == "--trace" || a == "--csv") {
      if (i + 1 >= argc) {
        usage_and_exit(("flag '" + a + "' is missing its value").c_str());
      }
      (a == "--trace" ? trace_path : csv_path) = argv[++i];
    } else if (!a.empty() && a[0] == '-') {
      usage_and_exit(("unknown flag '" + a + "'").c_str());
    } else {
      manifests.push_back(a);
    }
  }
  if (manifests.empty()) usage_and_exit("no shard manifests given");

  trace::TraceSink sink;
  try {
    const core::ShardMerge merged = core::merge_shards(
        manifests, trace_path.empty() ? nullptr : &sink);

    core::CampaignResult r;
    Proportion p{};
    std::string footer;
    if (merged.kind == "stratified") {
      r = merged.stratified.totals;
      p = merged.stratified.estimate();
      footer = core::stratified_efficiency_footer(merged.stratified);
    } else {
      r = merged.classification;
      p = r.corruption_probability();
    }

    std::printf("merged %zu shard%s (%s campaign)\n", manifests.size(),
                manifests.size() == 1 ? "" : "s", merged.kind.c_str());
    std::printf("  injected trials      %llu\n",
                static_cast<unsigned long long>(r.trials));
    std::printf("  skipped (golden err) %llu\n",
                static_cast<unsigned long long>(r.skipped));
    std::printf("  corruptions          %llu\n",
                static_cast<unsigned long long>(r.corruptions));
    std::printf("  non-finite outputs   %llu\n",
                static_cast<unsigned long long>(r.non_finite));
    std::printf("  P(misclassification) %.4f%%  [99%% CI %.4f%%, %.4f%%]\n",
                100.0 * p.value, 100.0 * p.lo, 100.0 * p.hi);
    if (r.gave_up != 0) {
      std::printf("  WARNING: the campaign gave up at its attempt cap — the "
                  "numbers above are PARTIAL\n");
    }
    if (!footer.empty()) std::printf("%s\n", footer.c_str());

    if (!csv_path.empty()) {
      if (merged.kind == "stratified") {
        core::write_stratified_csv(csv_path, {{"merged", merged.stratified}});
      } else {
        core::write_campaign_csv(csv_path, {{"merged", r}});
      }
      std::printf("csv: written to %s\n", csv_path.c_str());
    }
    if (!trace_path.empty()) {
      trace::write_trace_jsonl(trace_path, sink.events());
      std::printf("trace: %zu merged injection events written to %s\n",
                  sink.events().size(), trace_path.c_str());
    }
  } catch (const core::ShardHorizonExhausted& e) {
    std::fprintf(stderr, "merge incomplete: %s\n", e.what());
    return 3;
  } catch (const Error& e) {
    std::fprintf(stderr, "merge refused: %s\n", e.what());
    return 2;
  }
  return 0;
}
