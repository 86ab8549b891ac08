// Tests for util::JsonReader, the one reader behind every persisted
// artifact, and the JsonFuzz suite: seeded mutants of each writer's own
// output must either be refused with pfi::Error or read back to a value
// the writer turns into the mutant byte for byte. Any other exception, or
// an accepted mutant that re-serializes differently, fails the test.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "core/trace.hpp"
#include "json_fuzz.hpp"
#include "quant/static_act.hpp"
#include "util/bits.hpp"
#include "util/json.hpp"

namespace pfi {
namespace {

TEST(JsonReader, RefusalNamesArtifactFieldAndOffset) {
  const std::string text = "{\"a\":1,\"b\":12x}";
  util::JsonReader r(text, "probe");
  EXPECT_EQ(r.key("a").u64(), 1u);
  try {
    r.key("b").u64();
    FAIL() << "12x must be refused";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "malformed probe: 'b' is not an integer at offset 13");
  }
}

// ------------------------------------------------------------ seeds ----

std::vector<std::string> trace_seeds() {
  trace::InjectionEvent neuron;
  neuron.trial = 12;
  neuron.attempt = 34;
  neuron.rep = 1;
  neuron.layer = 5;
  neuron.layer_name = "features.3";
  neuron.layer_kind = "Conv2d";
  neuron.coords[1] = 7;
  neuron.coords[3] = 9;
  neuron.flat = 1234;
  neuron.bit = 30;
  neuron.pre = 0.5f;
  neuron.post = flip_float_bit(0.5f, 30);
  neuron.model = "single_bit_flip[30]";

  trace::InjectionEvent weight = neuron;
  weight.kind = trace::FaultKind::kWeight;
  weight.coords[0] = 3;
  weight.bit = -1;
  weight.post = -std::numeric_limits<float>::infinity();

  trace::InjectionEvent persist = neuron;
  persist.kind = trace::FaultKind::kPersist;
  persist.dtype = core::DType::kInt8;
  persist.bit = 6;
  persist.time = 77;

  trace::InjectionEvent nan16 = neuron;  // exponent flip: NaN, payload 1
  nan16.dtype = core::DType::kFloat16;
  nan16.bit = 14;
  nan16.pre = float_from_f16_bits(0x3c01);
  nan16.post = flip_fp16_bit(nan16.pre, 14);

  trace::InjectionEvent hostile = neuron;
  hostile.layer_name = "evil\"name,\n\"flat\":999,\"post_bits\":\"0\\";
  hostile.model = "model\"with\\escapes\t\x01";

  std::vector<std::string> out;
  for (const auto& ev : {neuron, weight, persist, nan16, hostile}) {
    out.push_back(trace::event_to_json(ev));
  }
  return out;
}

std::vector<std::string> checkpoint_seeds() {
  core::CheckpointState uniform;
  uniform.fingerprint = 0xdeadbeefcafebabeull;
  uniform.result = {.trials = 123, .skipped = 4, .corruptions = 56,
                    .non_finite = 7, .gave_up = 1};
  uniform.next_unit = 89;
  uniform.trace_bytes = 1ull << 40;
  uniform.done = 1;
  core::CheckpointState stratified = uniform;
  stratified.strata = {{1, 2, 3, 4, 5, 6, 7, 8},
                       {90, 0, 11, 0, 1200, 3400, 56789, 2}};
  return {core::checkpoint_to_json(uniform),
          core::checkpoint_to_json(stratified)};
}

std::vector<std::string> manifest_seeds() {
  core::ShardManifest uniform;
  uniform.kind = "classification";
  uniform.fingerprint = 0xdeadbeefcafef00dull;
  uniform.shards = 7;
  uniform.shard_index = 3;
  uniform.records = 41;
  uniform.horizon = 96;
  uniform.log_bytes = 12345;
  uniform.log_digest = 0x123456789abcdef0ull;
  uniform.done = 1;
  uniform.record_events = true;
  uniform.log = "shard \"quoted\".log";
  uniform.trials_target = 500;
  uniform.attempt_cap = 10'500;
  uniform.max_yield = 4;

  core::ShardManifest stratified;
  stratified.kind = "stratified";
  stratified.fingerprint = 99;
  stratified.shards = 2;
  stratified.shard_index = 1;
  stratified.log = "s.log";
  stratified.trials_budget = 64;
  stratified.strata = {
      {.layer = 0, .bit_class = 0, .bit_lo = 31, .bit_hi = 31, .weight = 0.5},
      {.layer = 2, .bit_class = 1, .bit_lo = 23, .bit_hi = 30,
       .weight = 0.1}};
  stratified.stratum_caps = {5, 0};
  stratified.stratum_attempt_caps = {5'100, 12};
  return {core::shard_manifest_to_json(uniform),
          core::shard_manifest_to_json(stratified)};
}

std::vector<std::string> calibration_seeds() {
  quant::StaticActQuant calib;
  calib.weight_fingerprint = 0x0123456789abcdefull;
  calib.layers = {{.path = "features.0", .in_scale = 0.0125f,
                   .out_scale = 0.25f},
                  {.path = "a\\", .in_scale = 1.0f, .out_scale = 2.0f},
                  {.path = "b\"c", .in_scale = 3.0f, .out_scale = 0.0f}};
  quant::StaticActQuant empty;
  return {calib.to_json(), empty.to_json()};
}

// ------------------------------------------------------------- fuzz ----

using RoundTrip = std::string (*)(const std::string&);

/// Mutants per format: 20,000 x 4 formats run in about a second.
constexpr int kMutants = 20'000;

void fuzz(const std::vector<std::string>& seeds, RoundTrip round_trip,
          std::uint64_t seed) {
  std::vector<std::string> pool;  // splice partners: every format's seeds
  for (const auto& set : {trace_seeds(), checkpoint_seeds(), manifest_seeds(),
                          calibration_seeds()}) {
    pool.insert(pool.end(), set.begin(), set.end());
  }
  for (const std::string& s : seeds) {
    ASSERT_EQ(round_trip(s), s) << "the writer's own output must read back";
  }
  Rng rng(seed);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string m =
        fuzz::mutate(seeds[rng.next_below(seeds.size())], pool, rng);
    try {
      ASSERT_EQ(round_trip(m), m) << "mutant " << i << " was misread";
      ++accepted;
    } catch (const Error&) {
      ++refused;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " threw " << typeid(e).name() << " ("
             << e.what() << ") instead of pfi::Error:\n"
             << m;
    }
  }
  // Both halves of the oracle must actually run.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(JsonFuzz, TraceLinesRoundTripOrAreRefused) {
  fuzz(trace_seeds(),
       [](const std::string& m) {
         return trace::event_to_json(trace::event_from_json(m));
       },
       1);
}

TEST(JsonFuzz, CheckpointsRoundTripOrAreRefused) {
  fuzz(checkpoint_seeds(),
       [](const std::string& m) {
         return core::checkpoint_to_json(core::checkpoint_from_json(m));
       },
       2);
}

TEST(JsonFuzz, ShardManifestsRoundTripOrAreRefused) {
  fuzz(manifest_seeds(),
       [](const std::string& m) {
         return core::shard_manifest_to_json(core::shard_manifest_from_json(m));
       },
       3);
}

TEST(JsonFuzz, CalibrationsRoundTripOrAreRefused) {
  fuzz(calibration_seeds(),
       [](const std::string& m) {
         return quant::StaticActQuant::from_json(m).to_json();
       },
       4);
}

}  // namespace
}  // namespace pfi
