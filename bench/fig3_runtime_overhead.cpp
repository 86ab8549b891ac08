// Fig. 3 reproduction: "Average runtime for 19 networks across three
// datasets, with and without PyTorchFI, for a single neuron injection with
// batch size = 1. PyTorchFI effectively runs at the same native speed ...
// with negligible overhead."
//
// For every (dataset, network) pair of the paper's sweep this registers two
// google-benchmark timers — base inference and inference with one declared
// random-value neuron fault — plus:
//   * the Sec. III-C batch sweep (batch 1 -> 64) showing amortized overhead,
//   * an ablation (DESIGN.md Sec. 6.1): instrumented-but-idle hooks vs no
//     injector at all, measuring the cost of the "single check per layer",
//   * a per-layer breakdown (printed after the timers): a Profiler attached
//     to one representative network reports each hook's own wall time, the
//     layer-resolved version of the aggregate Fig. 3 claim,
//   * a "pfi_reuse" timer per network: the faulty forward replayed from a
//     recorded golden prefix (core/prefix_cache.hpp), the campaign engine's
//     fast path; its counters report the layer-level cache hit rate.
//
// Expected shape: base and pfi times are within noise of each other
// everywhere, matching the paper's claim; pfi_reuse is faster than pfi in
// proportion to how deep the injected layer sits.
//
// PFI_PREFIX_CACHE=0|1 (strict parse, default 1) disables/enables the
// prefix cache for the reuse timers — with it off, pfi_reuse degrades to a
// full recompute and should match pfi.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>

#include "core/fault_injector.hpp"
#include "core/profile.hpp"
#include "models/zoo.hpp"
#include "util/env.hpp"

namespace {

using namespace pfi;

struct Workload {
  std::shared_ptr<nn::Sequential> model;
  std::unique_ptr<core::FaultInjector> injector;
  Tensor input;
};

/// Workloads are built once and shared across the base / pfi benchmarks.
Workload& get_workload(const std::string& dataset, const std::string& net,
                       std::int64_t batch) {
  static std::map<std::string, Workload> cache;
  const std::string key = dataset + "/" + net + "/" + std::to_string(batch);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  const bool imagenet = dataset == "imagenet";
  const std::int64_t size = imagenet ? 64 : 32;
  const std::int64_t classes = dataset == "cifar100" ? 20 : (imagenet ? 16 : 10);
  Rng rng(std::hash<std::string>{}(key));

  Workload w;
  w.model = models::make_model(net, {.num_classes = classes, .image_size = size},
                               rng);
  w.model->eval();
  core::FiConfig fi_cfg{.input_shape = {3, size, size}, .batch_size = batch};
  // Strict parse: garbage in PFI_PREFIX_CACHE throws instead of silently
  // timing the wrong configuration.
  fi_cfg.prefix_cache = util::env_flag("PFI_PREFIX_CACHE", true);
  w.injector = std::make_unique<core::FaultInjector>(w.model, fi_cfg);
  w.input = Tensor::rand({batch, 3, size, size}, rng, -1.0f, 1.0f);
  return cache.emplace(key, std::move(w)).first->second;
}

void bench_inference(benchmark::State& state, const std::string& dataset,
                     const std::string& net, bool with_fault,
                     std::int64_t batch) {
  Workload& w = get_workload(dataset, net, batch);
  Rng loc_rng(42);
  w.injector->clear();
  if (with_fault) {
    // One random neuron injection, the Fig. 3 setup.
    w.injector->declare_neuron_fault(w.injector->random_neuron_location(loc_rng),
                                     core::random_value());
  }
  for (auto _ : state) {
    Tensor out = w.injector->forward(w.input);
    benchmark::DoNotOptimize(out.data().data());
  }
  w.injector->clear();
  state.counters["batch"] = static_cast<double>(batch);
}

/// The campaign engine's fast path: one golden forward recorded up front,
/// then every timed iteration replays the prefix before the injected layer
/// from snapshots (ForwardMode::kReusePrefix). The reuse_hit_rate counter
/// is the fraction of leaf forwards served from cache.
void bench_inference_reuse(benchmark::State& state, const std::string& dataset,
                           const std::string& net, std::int64_t batch) {
  Workload& w = get_workload(dataset, net, batch);
  Rng loc_rng(42);
  w.injector->clear();
  (void)w.injector->forward(w.input, core::ForwardMode::kRecordGolden);
  // Same fault draw as the pfi timer, so base / pfi / pfi_reuse are
  // measured on the same injected layer.
  w.injector->declare_neuron_fault(w.injector->random_neuron_location(loc_rng),
                                   core::random_value());
  for (auto _ : state) {
    Tensor out = w.injector->forward(w.input, core::ForwardMode::kReusePrefix);
    benchmark::DoNotOptimize(out.data().data());
  }
  if (const auto* cache = w.injector->prefix_cache()) {
    state.counters["reuse_hit_rate"] = cache->stats().hit_rate();
  }
  w.injector->clear();
  state.counters["batch"] = static_cast<double>(batch);
}

/// Ablation: the same model run bare (no injector constructed at all), to
/// price the idle hook check itself.
void bench_bare_model(benchmark::State& state, const std::string& dataset,
                      const std::string& net) {
  // A separate model instance with no hooks installed.
  const bool imagenet = dataset == "imagenet";
  const std::int64_t size = imagenet ? 64 : 32;
  Rng rng(7);
  auto model = models::make_model(
      net, {.num_classes = 10, .image_size = size}, rng);
  model->eval();
  const Tensor input = Tensor::rand({1, 3, size, size}, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = (*model)(input);
    benchmark::DoNotOptimize(out.data().data());
  }
}

/// Per-layer hook cost on one representative network: run `reps` forwards
/// idle and `reps` with a declared fault, each under a fresh Profiler, and
/// print both tables. The "hook us/call" column is the per-layer Fig. 3
/// number; the activation columns come along for free.
void print_per_layer_profile(const std::string& net, int reps) {
  Workload& w = get_workload("cifar10", net, 1);
  trace::Profiler profiler;
  w.injector->set_profiler(&profiler);

  w.injector->clear();
  for (int i = 0; i < reps; ++i) (void)w.injector->forward(w.input);
  std::printf("\n=== per-layer profile: %s, idle hooks (%d forwards) ===\n%s",
              net.c_str(), reps, profiler.table().c_str());

  profiler.reset_stats();
  Rng loc_rng(42);
  w.injector->declare_neuron_fault(w.injector->random_neuron_location(loc_rng),
                                   core::random_value());
  for (int i = 0; i < reps; ++i) (void)w.injector->forward(w.input);
  std::printf("\n=== per-layer profile: %s, one armed fault (%d forwards) "
              "===\n%s",
              net.c_str(), reps, profiler.table().c_str());

  w.injector->clear();
  w.injector->set_profiler(nullptr);
}

}  // namespace

// A refused setting (a malformed PFI_* value, a rejected config) exits 2
// with its message instead of aborting, as pfi_cli does.
int main(int argc, char** argv) try {
  // The 19 networks of Fig. 3.
  for (const auto& entry : models::fig3_networks()) {
    const std::string base_name =
        "fig3/" + entry.dataset + "/" + entry.model;
    benchmark::RegisterBenchmark(
        (base_name + "/base").c_str(),
        [entry](benchmark::State& s) {
          bench_inference(s, entry.dataset, entry.model, false, 1);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (base_name + "/pfi").c_str(),
        [entry](benchmark::State& s) {
          bench_inference(s, entry.dataset, entry.model, true, 1);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (base_name + "/pfi_reuse").c_str(),
        [entry](benchmark::State& s) {
          bench_inference_reuse(s, entry.dataset, entry.model, 1);
        })
        ->Unit(benchmark::kMillisecond);
  }

  // Sec. III-C batch sweep (paper sweeps 1 -> 512 on GPU; CPU-scaled here).
  for (const std::int64_t batch : {1, 4, 16, 64}) {
    for (const bool with_fault : {false, true}) {
      const std::string name = "fig3_batch/alexnet/batch" +
                               std::to_string(batch) +
                               (with_fault ? "/pfi" : "/base");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [batch, with_fault](benchmark::State& s) {
            bench_inference(s, "cifar10", "alexnet", with_fault, batch);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }

  // Ablation: bare model (no hooks at all) vs instrumented-idle (base above).
  benchmark::RegisterBenchmark(
      "fig3_ablation/resnet110/no_injector",
      [](benchmark::State& s) { bench_bare_model(s, "cifar10", "resnet110"); })
      ->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  print_per_layer_profile("squeezenet", 50);
  return 0;
} catch (const pfi::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
