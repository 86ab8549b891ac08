// Tests for the persistent-fault subsystem (core/persistent.hpp): the
// FaultInjector's persistent write/stuck-bit/heal API, golden checked-in
// traces for each fault process across all four dtypes, fleet-campaign
// determinism (thread count x prefix cache x kill/resume), native-int8
// deployed-code corruption, and bit-exact trace replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/persistent.hpp"
#include "models/zoo.hpp"
#include "nn/conv2d.hpp"
#include "util/bits.hpp"
#include "util/fileio.hpp"

namespace pfi::core {
namespace {

using models::make_model;

FiConfig persist_config(DType dtype = DType::kFloat32, bool native = false,
                        bool prefix_cache = true) {
  FiConfig cfg{.input_shape = {3, 32, 32}, .batch_size = 4, .dtype = dtype};
  cfg.native = native;
  cfg.prefix_cache = prefix_cache;
  return cfg;
}

// ------------------------------------------------- injector primitives ----

TEST(PersistInjector, WriteSurvivesClearAndHealsBitExact) {
  Rng rng(90);
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net, persist_config());
  auto& conv = static_cast<nn::Conv2d&>(fi.layer(2));
  const float golden = conv.weight().value.data()[7];

  const auto w = fi.write_persistent_bit(2, 7, 30, -1, 0, "test");
  EXPECT_EQ(w.pre, golden);
  EXPECT_EQ(float_to_bits(w.post), float_to_bits(flip_float_bit(golden, 30)));
  EXPECT_EQ(conv.weight().value.data()[7], w.post);
  EXPECT_EQ(fi.active_persistent_faults(), 1u);

  // clear() removes transient faults only: the persistent write stays.
  fi.clear();
  EXPECT_EQ(conv.weight().value.data()[7], w.post);
  EXPECT_EQ(fi.active_persistent_faults(), 1u);

  fi.heal_persistent_faults();
  EXPECT_EQ(float_to_bits(conv.weight().value.data()[7]),
            float_to_bits(golden));
  EXPECT_EQ(fi.active_persistent_faults(), 0u);
}

TEST(PersistInjector, StuckBitReassertsAfterOverwrite) {
  Rng rng(90);
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net, persist_config());
  auto& conv = static_cast<nn::Conv2d&>(fi.layer(2));
  float& cell = conv.weight().value.data()[11];

  fi.register_stuck_bit(2, 11, 21, 1);
  fi.write_persistent_bit(2, 11, 21, 1, 0, "stuck_at_bit[21=1]");
  const float stuck = cell;
  EXPECT_NE(float_to_bits(stuck) & (1u << 21), 0u);

  // A later write to the same cell cannot release the stuck bit: the next
  // re-assertion (clear() runs one) forces it back.
  cell = bits_to_float(float_to_bits(stuck) & ~(1u << 21));
  fi.clear();
  EXPECT_NE(float_to_bits(cell) & (1u << 21), 0u);

  fi.heal_persistent_faults();
  EXPECT_EQ(fi.active_persistent_faults(), 0u);
}

TEST(PersistInjector, RejectsOutOfRangeCellsAndBits) {
  Rng rng(90);
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi16(net, persist_config(DType::kFloat16));
  EXPECT_THROW(fi16.write_persistent_bit(2, 0, 28, -1, 0, "t"), Error);
  EXPECT_THROW(fi16.write_persistent_bit(2, -1, 0, -1, 0, "t"), Error);
  EXPECT_THROW(fi16.write_persistent_bit(99, 0, 0, -1, 0, "t"), Error);
  EXPECT_THROW(fi16.register_stuck_bit(2, 0, 16, 1), Error);
  EXPECT_NO_THROW(fi16.write_persistent_bit(2, 0, 15, -1, 0, "t"));
  fi16.heal_persistent_faults();
}

TEST(PersistScenarioValidation, RejectsMalformedProcesses) {
  Rng rng(90);
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net, persist_config());
  PersistScenario bad;
  bad.ber = 1.0;
  EXPECT_THROW(PersistentFaultSet(fi, bad), Error);
  bad = PersistScenario{};
  bad.stuck_value = 2;
  EXPECT_THROW(PersistentFaultSet(fi, bad), Error);
  bad = PersistScenario{};
  bad.layer = 99;
  EXPECT_THROW(PersistentFaultSet(fi, bad), Error);
}

// ---------------------------------------------------------- golden traces ----

/// Advance one persistent scenario through three events on a fixed
/// squeezenet and return the emitted trace; each process x dtype is pinned
/// byte-for-byte below. Regenerate with PFI_PERSIST_PRINT_GOLDEN=1 after an
/// intentional change (the test prints paste-ready table entries).
std::string persist_trace(const PersistScenario& scenario, DType dtype) {
  Rng rng(90);
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net, persist_config(dtype));
  trace::TraceSink sink;
  fi.set_trace_sink(&sink);
  {
    PersistentFaultSet faults(fi, scenario);
    faults.advance_to(3);
  }
  fi.set_trace_sink(nullptr);
  return trace::trace_to_jsonl(sink.events());
}

PersistScenario scenario_by_id(const std::string& id) {
  PersistScenario sc;
  if (id == "ber") {
    // Layer 9 is squeezenet's largest conv (3456 weights): the rate is
    // tuned so every dtype's bit space (int8's is 4x smaller than fp32's)
    // draws at least one upset within the three pinned events.
    sc.layer = 9;
    sc.ber = 1.5e-5;
  } else if (id == "stuck_at") {
    sc.layer = 9;
    sc.stuck_bits = 2;
    sc.stuck_value = 1;
  } else if (id == "distance") {
    // The byte walk needs a stride well under the smallest container
    // (layer 2 holds 128 weights = 128 bytes at int8).
    sc.layer = 2;
    sc.distance_mean = 100.0;
    sc.distance_stddev = 10.0;
  } else {
    PFI_CHECK(false) << "unknown golden scenario id '" << id << "'";
  }
  return sc;
}

struct PersistGoldenCase {
  const char* id;
  DType dtype;
  const char* jsonl;
};

const PersistGoldenCase kPersistGolden[] = {
    // PERSIST_GOLDEN_BEGIN
    {"ber", DType::kFloat32,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp32","coords":[5,0,2,0],"flat":726,"bit":30,"pre":0.0797340497,"pre_bits":"3da34b9b","post":2.71320912e+37,"post_bits":"7da34b9b","model":"ber[1.5e-05]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp32","coords":[13,13,0,2],"flat":1991,"bit":19,"pre":0.0908016488,"pre_bits":"3db9f637","post":0.0868953988,"post_bits":"3db1f637","model":"ber[1.5e-05]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp32","coords":[19,7,1,1],"flat":2803,"bit":6,"pre":0.0397302955,"pre_bits":"3d22bc3c","post":0.039730534,"post_bits":"3d22bc7c","model":"ber[1.5e-05]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp32","coords":[4,11,0,0],"flat":675,"bit":17,"pre":0.00781282783,"pre_bits":"3c000160","post":0.00793489814,"post_bits":"3c020160","model":"ber[1.5e-05]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp32","coords":[6,1,2,1],"flat":880,"bit":28,"pre":0.119710945,"pre_bits":"3df52b03","post":2.78723763e-11,"post_bits":"2df52b03","model":"ber[1.5e-05]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp32","coords":[11,11,1,0],"flat":1686,"bit":0,"pre":0.0913104713,"pre_bits":"3dbb00fc","post":0.0913104787,"post_bits":"3dbb00fd","model":"ber[1.5e-05]","time":2}
)json"},
    {"ber", DType::kInt8,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"int8","coords":[20,3,0,0],"flat":2907,"bit":6,"pre":0.0876563862,"pre_bits":"3db38531","post":0.292346686,"post_bits":"3e95ae77","model":"ber[1.5e-05]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"int8","coords":[18,12,0,2],"flat":2702,"bit":1,"pre":-0.0395705998,"pre_bits":"bd2214c8","post":-0.0317768119,"post_bits":"bd022867","model":"ber[1.5e-05]","time":2}
)json"},
    {"ber", DType::kFloat16,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp16","coords":[10,1,1,1],"flat":1453,"bit":14,"pre":-0.273232967,"pre_bits":"be8be531","post":-17904,"post_bits":"c68be000","model":"ber[1.5e-05]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp16","coords":[9,6,0,1],"flat":1351,"bit":1,"pre":-0.03556858,"pre_bits":"bd11b05c","post":-0.0355224609,"post_bits":"bd118000","model":"ber[1.5e-05]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp16","coords":[12,3,2,0],"flat":1761,"bit":12,"pre":-0.0546324737,"pre_bits":"bd5fc64d","post":-0.874023438,"post_bits":"bf5fc000","model":"ber[1.5e-05]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp16","coords":[23,6,2,0],"flat":3372,"bit":0,"pre":-0.269329011,"pre_bits":"be89e57e","post":-0.269042969,"post_bits":"be89c000","model":"ber[1.5e-05]","time":2}
)json"},
    {"ber", DType::kBFloat16,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"bf16","coords":[10,1,1,1],"flat":1453,"bit":14,"pre":-0.273232967,"pre_bits":"be8be531","post":-9.30459597e+37,"post_bits":"fe8c0000","model":"ber[1.5e-05]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"bf16","coords":[9,6,0,1],"flat":1351,"bit":1,"pre":-0.03556858,"pre_bits":"bd11b05c","post":-0.03515625,"post_bits":"bd100000","model":"ber[1.5e-05]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"bf16","coords":[12,3,2,0],"flat":1761,"bit":12,"pre":-0.0546324737,"pre_bits":"bd5fc64d","post":-1.27329258e-11,"post_bits":"ad600000","model":"ber[1.5e-05]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"bf16","coords":[23,6,2,0],"flat":3372,"bit":0,"pre":-0.269329011,"pre_bits":"be89e57e","post":-0.271484375,"post_bits":"be8b0000","model":"ber[1.5e-05]","time":2}
)json"},
    {"stuck_at", DType::kFloat32,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp32","coords":[13,1,2,2],"flat":1889,"bit":-1,"pre":0.0421249457,"pre_bits":"3d2c8b35","post":0.0421249457,"post_bits":"3d2c8b35","model":"stuck_at_bit[8=1]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp32","coords":[10,6,0,0],"flat":1494,"bit":10,"pre":-0.0326853357,"pre_bits":"bd05e10f","post":-0.0326891504,"post_bits":"bd05e50f","model":"stuck_at_bit[10=1]","time":0}
)json"},
    {"stuck_at", DType::kInt8,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"int8","coords":[13,1,2,2],"flat":1889,"bit":-1,"pre":0.0421249457,"pre_bits":"3d2c8b35","post":0.0413098559,"post_bits":"3d293486","model":"stuck_at_bit[2=1]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"int8","coords":[10,6,0,0],"flat":1494,"bit":-1,"pre":-0.0326853357,"pre_bits":"bd05e10f","post":-0.0317768119,"post_bits":"bd022867","model":"stuck_at_bit[2=1]","time":0}
)json"},
    {"stuck_at", DType::kFloat16,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp16","coords":[13,1,2,2],"flat":1889,"bit":4,"pre":0.0421249457,"pre_bits":"3d2c8b35","post":0.0426025391,"post_bits":"3d2e8000","model":"stuck_at_bit[4=1]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"fp16","coords":[10,6,0,0],"flat":1494,"bit":-1,"pre":-0.0326853357,"pre_bits":"bd05e10f","post":-0.0326843262,"post_bits":"bd05e000","model":"stuck_at_bit[5=1]","time":0}
)json"},
    {"stuck_at", DType::kBFloat16,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"bf16","coords":[13,1,2,2],"flat":1889,"bit":4,"pre":0.0421249457,"pre_bits":"3d2c8b35","post":0.0461425781,"post_bits":"3d3d0000","model":"stuck_at_bit[4=1]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":9,"layer_name":"squeezenet.5.1.branch1.0","layer_kind":"Conv2d","dtype":"bf16","coords":[10,6,0,0],"flat":1494,"bit":5,"pre":-0.0326853357,"pre_bits":"bd05e10f","post":-0.0405273438,"post_bits":"bd260000","model":"stuck_at_bit[5=1]","time":0}
)json"},
    {"distance", DType::kFloat32,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[2,7,0,0],"flat":23,"bit":8,"pre":0.0504487753,"pre_bits":"3d4ea360","post":0.0504478216,"post_bits":"3d4ea260","model":"distance[100,10]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[6,0,0,0],"flat":48,"bit":21,"pre":0.0835203901,"pre_bits":"3dab0cbd","post":0.0678953901,"post_bits":"3d8b0cbd","model":"distance[100,10]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[8,6,0,0],"flat":70,"bit":10,"pre":1.22735608,"pre_bits":"3f9d1a01","post":1.22747815,"post_bits":"3f9d1e01","model":"distance[100,10]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[11,6,0,0],"flat":94,"bit":12,"pre":-0.130988479,"pre_bits":"be0621d8","post":-0.131049514,"post_bits":"be0631d8","model":"distance[100,10]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[14,6,0,0],"flat":118,"bit":11,"pre":-0.0666128471,"pre_bits":"bd886c51","post":-0.0665975884,"post_bits":"bd886451","model":"distance[100,10]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[3,0,0,0],"flat":24,"bit":20,"pre":-0.485734493,"pre_bits":"bef8b231","post":-0.454484493,"post_bits":"bee8b231","model":"distance[100,10]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[6,2,0,0],"flat":50,"bit":19,"pre":-0.682308912,"pre_bits":"bf2eabcc","post":-0.651058912,"post_bits":"bf26abcc","model":"distance[100,10]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[9,0,0,0],"flat":72,"bit":7,"pre":-0.224440277,"pre_bits":"be65d3ac","post":-0.224438369,"post_bits":"be65d32c","model":"distance[100,10]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[12,2,0,0],"flat":98,"bit":10,"pre":-1.1320678,"pre_bits":"bf90e799","post":-1.13194573,"post_bits":"bf90e399","model":"distance[100,10]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[15,4,0,0],"flat":124,"bit":14,"pre":0.773067653,"pre_bits":"3f45e7c3","post":0.772091091,"post_bits":"3f45a7c3","model":"distance[100,10]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[2,6,0,0],"flat":22,"bit":13,"pre":0.613343477,"pre_bits":"3f1d0414","post":0.613831758,"post_bits":"3f1d2414","model":"distance[100,10]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[5,6,0,0],"flat":46,"bit":11,"pre":0.273706049,"pre_bits":"3e8c2333","post":0.273767084,"post_bits":"3e8c2b33","model":"distance[100,10]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[8,6,0,0],"flat":70,"bit":12,"pre":1.22747815,"pre_bits":"3f9d1e01","post":1.22698987,"post_bits":"3f9d0e01","model":"distance[100,10]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[11,7,0,0],"flat":95,"bit":29,"pre":-0.262469709,"pre_bits":"be86626e","post":-1.42285114e-20,"post_bits":"9e86626e","model":"distance[100,10]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[15,1,0,0],"flat":121,"bit":11,"pre":-0.32304126,"pre_bits":"bea565aa","post":-0.323102295,"post_bits":"bea56daa","model":"distance[100,10]","time":2}
)json"},
    {"distance", DType::kInt8,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[11,5,0,0],"flat":93,"bit":0,"pre":1.22491276,"pre_bits":"3f9cc9f1","post":1.21057916,"post_bits":"3f9af442","model":"distance[100,10]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[12,2,0,0],"flat":98,"bit":4,"pre":-1.1320678,"pre_bits":"bf90e799","post":-1.30785787,"post_bits":"bfa767e3","model":"distance[100,10]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[11,1,0,0],"flat":89,"bit":5,"pre":-0.173251942,"pre_bits":"be3168f5","post":-0.51881963,"post_bits":"bf04d15d","model":"distance[100,10]","time":2}
)json"},
    {"distance", DType::kFloat16,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[5,6,0,0],"flat":46,"bit":8,"pre":0.273706049,"pre_bits":"3e8c2333","post":0.336181641,"post_bits":"3eac2000","model":"distance[100,10]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[12,1,0,0],"flat":97,"bit":5,"pre":-0.424591184,"pre_bits":"bed96404","post":-0.432373047,"post_bits":"bedd6000","model":"distance[100,10]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[6,1,0,0],"flat":49,"bit":4,"pre":0.00853983872,"pre_bits":"3c0beaae","post":0.00841522217,"post_bits":"3c09e000","model":"distance[100,10]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[12,5,0,0],"flat":101,"bit":3,"pre":-0.873783588,"pre_bits":"bf5fb048","post":-0.870117188,"post_bits":"bf5ec000","model":"distance[100,10]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[5,4,0,0],"flat":44,"bit":13,"pre":-0.420602232,"pre_bits":"bed7592d","post":-0.00164318085,"post_bits":"bad76000","model":"distance[100,10]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[11,4,0,0],"flat":92,"bit":11,"pre":0.664188385,"pre_bits":"3f2a0840","post":0.166015625,"post_bits":"3e2a0000","model":"distance[100,10]","time":2}
)json"},
    {"distance", DType::kBFloat16,
     R"json({"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[5,6,0,0],"flat":46,"bit":8,"pre":0.273706049,"pre_bits":"3e8c2333","post":1.09375,"post_bits":"3f8c0000","model":"distance[100,10]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[12,1,0,0],"flat":97,"bit":5,"pre":-0.424591184,"pre_bits":"bed96404","post":-0.486328125,"post_bits":"bef90000","model":"distance[100,10]","time":0}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[6,1,0,0],"flat":49,"bit":4,"pre":0.00853983872,"pre_bits":"3c0beaae","post":0.00952148438,"post_bits":"3c1c0000","model":"distance[100,10]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[12,5,0,0],"flat":101,"bit":3,"pre":-0.873783588,"pre_bits":"bf5fb048","post":-0.90625,"post_bits":"bf680000","model":"distance[100,10]","time":1}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[5,4,0,0],"flat":44,"bit":13,"pre":-0.420602232,"pre_bits":"bed7592d","post":-2.27640105e-20,"post_bits":"9ed70000","model":"distance[100,10]","time":2}
{"trial":0,"attempt":0,"rep":0,"kind":"persist","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[11,4,0,0],"flat":92,"bit":11,"pre":0.664188385,"pre_bits":"3f2a0840","post":1.01327896e-05,"post_bits":"372a0000","model":"distance[100,10]","time":2}
)json"},
    // PERSIST_GOLDEN_END
};

TEST(PersistGolden, EveryFaultProcessMatchesItsCheckedInTrace) {
  ASSERT_EQ(std::size(kPersistGolden), 12u)
      << "expected 3 fault processes x {fp32, int8, fp16, bf16}";
  const bool print = std::getenv("PFI_PERSIST_PRINT_GOLDEN") != nullptr;
  for (const auto& c : kPersistGolden) {
    const std::string got = persist_trace(scenario_by_id(c.id), c.dtype);
    EXPECT_FALSE(got.empty()) << c.id << " @ " << dtype_name(c.dtype);
    if (print) {
      std::printf("    {\"%s\", DType::k%s,\n     R\"json(%s)json\"},\n",
                  c.id,
                  c.dtype == DType::kFloat32   ? "Float32"
                  : c.dtype == DType::kInt8    ? "Int8"
                  : c.dtype == DType::kFloat16 ? "Float16"
                                               : "BFloat16",
                  got.c_str());
      continue;
    }
    EXPECT_EQ(got, c.jsonl) << c.id << " @ " << dtype_name(c.dtype);
  }
}

// The same scenario advanced twice from a healed injector reproduces the
// same trace: every fault is a pure function of (seed, event index), not of
// accumulated generator state.
TEST(PersistGolden, AdvanceIsAPureFunctionOfSeedAndEvent) {
  const auto sc = scenario_by_id("ber");
  EXPECT_EQ(persist_trace(sc, DType::kFloat32),
            persist_trace(sc, DType::kFloat32));
}

// ------------------------------------------------------ fleet determinism ----

struct FleetRun {
  FleetResult result;
  std::string jsonl;
};

FleetRun fleet_run(std::int64_t threads, bool prefix_cache,
                   CampaignCheckpointer* ckpt = nullptr,
                   trace::TraceSink* sink = nullptr) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net,
                   persist_config(DType::kFloat32, false, prefix_cache));
  trace::TraceSink local;
  if (sink == nullptr) sink = &local;
  FleetCampaignConfig cfg;
  cfg.horizon = 20;
  cfg.scenario.ber = 2e-5;
  cfg.scenario.stuck_bits = 2;
  cfg.batch_size = 4;
  cfg.seed = 91;
  cfg.threads = threads;
  cfg.trace = sink;
  cfg.checkpoint = ckpt;
  FleetRun run;
  run.result = run_fleet_campaign(fi, ds, cfg);
  run.jsonl = trace::trace_to_jsonl(sink->events());
  return run;
}

void expect_same_fleet_result(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.non_finite, b.non_finite);
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.first_sdc, b.first_sdc);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].event, b.timeline[i].event) << "event " << i;
    EXPECT_EQ(a.timeline[i].faults, b.timeline[i].faults) << "event " << i;
    EXPECT_EQ(a.timeline[i].correct, b.timeline[i].correct) << "event " << i;
    EXPECT_EQ(a.timeline[i].rows, b.timeline[i].rows) << "event " << i;
  }
}

TEST(PersistFleet, ByteIdenticalAcrossThreadsAndPrefixCache) {
  const FleetRun reference = fleet_run(1, true);
  EXPECT_GT(reference.result.total_faults, 0u);
  EXPECT_FALSE(reference.jsonl.empty());
  for (const auto& [threads, prefix] :
       {std::pair<std::int64_t, bool>{1, false},
        std::pair<std::int64_t, bool>{4, true},
        std::pair<std::int64_t, bool>{4, false}}) {
    const FleetRun run = fleet_run(threads, prefix);
    EXPECT_EQ(run.jsonl, reference.jsonl)
        << "threads=" << threads << " prefix=" << prefix;
    expect_same_fleet_result(run.result, reference.result);
  }
}

TEST(PersistFleet, TimelineAccountsEveryEventAndFault) {
  const FleetRun run = fleet_run(2, true);
  ASSERT_EQ(run.result.timeline.size(), 20u);
  std::uint64_t prev_faults = 0;
  for (std::size_t i = 0; i < run.result.timeline.size(); ++i) {
    const FleetEvent& ev = run.result.timeline[i];
    EXPECT_EQ(ev.event, i);
    EXPECT_EQ(ev.rows, 4u);
    EXPECT_LE(ev.correct, ev.rows);
    EXPECT_GE(ev.faults, prev_faults) << "faults only accumulate";
    prev_faults = ev.faults;
  }
  EXPECT_EQ(run.result.total_faults, prev_faults);
  EXPECT_EQ(run.result.rows, 80u);
}

TEST(PersistFleet, KillAndResumeReproducesByteIdenticalTrace) {
  const std::string dir = "/tmp/pfi_test_persist_ckpt";
  const std::string ref_ckpt = dir + "-ref.ckpt";
  const std::string ref_trace = dir + "-ref.jsonl";
  const std::string ckpt = dir + ".ckpt";
  const std::string trace_path = dir + ".jsonl";
  for (const auto& p : {ref_ckpt, ref_trace, ckpt, trace_path}) {
    std::remove(p.c_str());
  }

  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net, persist_config());
  FleetCampaignConfig cfg;
  cfg.horizon = 20;
  cfg.scenario.ber = 2e-5;
  cfg.scenario.stuck_bits = 2;
  cfg.batch_size = 4;
  cfg.seed = 91;
  cfg.threads = 1;  // wave = 8 events -> 3 commits over the horizon
  const std::uint64_t fp = fleet_campaign_fingerprint(cfg, "test");

  // Uninterrupted reference.
  trace::TraceSink ref_sink;
  CampaignCheckpointer ref(ref_ckpt, ref_trace);
  ref.begin(fp);
  cfg.trace = &ref_sink;
  cfg.checkpoint = &ref;
  const FleetResult ref_result = run_fleet_campaign(fi, ds, cfg);
  const std::string ref_bytes = util::read_file(ref_trace);
  EXPECT_FALSE(ref_bytes.empty());

  // Killed after the first committed wave, then resumed to completion.
  {
    trace::TraceSink sink;
    CampaignCheckpointer interrupted(ckpt, trace_path);
    interrupted.begin(fp);
    interrupted.fail_after_commits(1);
    cfg.trace = &sink;
    cfg.checkpoint = &interrupted;
    EXPECT_THROW(run_fleet_campaign(fi, ds, cfg), CampaignAborted);
  }
  trace::TraceSink sink;
  CampaignCheckpointer resumed(ckpt, trace_path);
  ASSERT_TRUE(resumed.resume(fp));
  EXPECT_GT(resumed.next_unit(), 0u);
  EXPECT_FALSE(resumed.done());
  cfg.trace = &sink;
  cfg.checkpoint = &resumed;
  const FleetResult res_result = run_fleet_campaign(fi, ds, cfg);

  expect_same_fleet_result(res_result, ref_result);
  EXPECT_EQ(util::read_file(trace_path), ref_bytes);

  for (const auto& p : {ref_ckpt, ref_trace, ckpt, trace_path}) {
    std::remove(p.c_str());
  }
}

// ------------------------------------------------------- native deployment ----

// Persistent faults must land in the DEPLOYED weight codes: under native
// INT8 execution the packed GEMM operands are rebuilt from the corrupted
// weights (cache invalidation), so the faulty logits differ from golden —
// and healing restores golden bit-exactly.
TEST(PersistNative, FaultsCorruptNativeInt8CodesAndHealRestores) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net, persist_config(DType::kInt8, /*native=*/true));
  Rng batch_rng(7);
  const auto batch = ds.sample_batch(4, batch_rng);

  const Tensor golden = fi.forward(batch.images);

  PersistScenario sc;
  sc.ber = 2e-4;  // dense enough to guarantee visible corruption
  PersistentFaultSet faults(fi, sc);
  faults.advance_to(2);
  EXPECT_GT(faults.faults_applied(), 0u);

  const Tensor faulty = fi.forward(batch.images);
  bool differs = false;
  for (std::int64_t i = 0; i < golden.numel(); ++i) {
    if (float_to_bits(golden.data()[i]) != float_to_bits(faulty.data()[i])) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs)
      << "persistent faults did not reach the native INT8 weight codes";

  faults.heal();
  const Tensor healed = fi.forward(batch.images);
  for (std::int64_t i = 0; i < golden.numel(); ++i) {
    ASSERT_EQ(float_to_bits(golden.data()[i]),
              float_to_bits(healed.data()[i]))
        << "heal left residue at logit " << i;
  }

  // With instrument_linear, persistent writes land in the native-INT8
  // classifier's codes under its frozen scales.
  auto alex = make_model("alexnet", {.num_classes = 10}, rng);
  alex->eval();  // dropout would otherwise change every forward
  auto* head = dynamic_cast<nn::Linear*>(alex->children().back());
  ASSERT_NE(head, nullptr);
  {
    FiConfig cfg = persist_config(DType::kInt8, /*native=*/true);
    cfg.instrument_linear = true;
    FaultInjector afi(alex, cfg);
    const std::int64_t last = afi.num_layers() - 1;
    ASSERT_EQ(&afi.layer(last), head);
    ASSERT_EQ(head->native_dtype(), kernels::LowPrec::kInt8);
    const std::vector<float> scales = head->native_scales();
    const Tensor a_golden = afi.forward(batch.images).clone();
    // A whole weight row: one flipped weight can meet a zero input.
    const std::int64_t row = 3, in = head->in_features();
    for (std::int64_t j = 0; j < in; ++j) {
      afi.write_persistent_bit(last, row * in + j, 6, -1, 0, "row");
    }
    const Tensor a_faulty = afi.forward(batch.images).clone();
    bool moved = false;
    for (std::int64_t i = 0; i < a_golden.numel(); ++i) {
      moved |= float_to_bits(a_golden.data()[i]) !=
               float_to_bits(a_faulty.data()[i]);
    }
    EXPECT_TRUE(moved) << "persistent writes did not reach the classifier";
    EXPECT_EQ(head->native_scales(), scales);
    afi.heal_persistent_faults();
    const Tensor a_healed = afi.forward(batch.images).clone();
    for (std::int64_t i = 0; i < a_golden.numel(); ++i) {
      ASSERT_EQ(float_to_bits(a_golden.data()[i]),
                float_to_bits(a_healed.data()[i]))
          << "heal left residue at alexnet logit " << i;
    }
  }
  EXPECT_EQ(head->native_dtype(), kernels::LowPrec::kNone);
}

// Same property for the 16-bit native storage paths.
TEST(PersistNative, FaultsCorruptNativeFp16PathAndHealRestores) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net, persist_config(DType::kFloat16, /*native=*/true));
  Rng batch_rng(7);
  const auto batch = ds.sample_batch(4, batch_rng);
  const Tensor golden = fi.forward(batch.images);

  PersistScenario sc;
  sc.ber = 2e-4;
  PersistentFaultSet faults(fi, sc);
  faults.advance_to(2);
  const Tensor faulty = fi.forward(batch.images);
  bool differs = false;
  for (std::int64_t i = 0; i < golden.numel(); ++i) {
    differs |= float_to_bits(golden.data()[i]) !=
               float_to_bits(faulty.data()[i]);
  }
  EXPECT_TRUE(differs);
  faults.heal();
  const Tensor healed = fi.forward(batch.images);
  for (std::int64_t i = 0; i < golden.numel(); ++i) {
    ASSERT_EQ(float_to_bits(golden.data()[i]),
              float_to_bits(healed.data()[i]));
  }
}

// ----------------------------------------------------------------- replay ----

// A recorded persistent trace re-asserts to the same corrupted weights: the
// replayed logits match the live run's bit-for-bit.
TEST(PersistReplay, TraceReplayReproducesCorruptedLogitsBitExactly) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net, persist_config());
  Rng batch_rng(7);
  const auto batch = ds.sample_batch(4, batch_rng);

  trace::TraceSink sink;
  fi.set_trace_sink(&sink);
  Tensor live;
  {
    PersistentFaultSet faults(fi, scenario_by_id("ber"));
    faults.advance_to(3);
    live = fi.forward(batch.images).clone();
  }  // heals
  fi.set_trace_sink(nullptr);
  ASSERT_FALSE(sink.events().empty());

  trace::TraceReplayer replayer(fi);
  const Tensor replayed = replayer.replay(batch.images, sink.events());
  ASSERT_EQ(replayed.numel(), live.numel());
  for (std::int64_t i = 0; i < live.numel(); ++i) {
    ASSERT_EQ(float_to_bits(live.data()[i]), float_to_bits(replayed.data()[i]))
        << "logit " << i;
  }
  EXPECT_EQ(fi.active_persistent_faults(), 0u) << "replay must heal";
}

// The fleet campaign's merged trace carries every fault event exactly once
// (each event is traced by its one assigned worker): re-asserting the
// events with time < T reconstructs the weight state at event T.
TEST(PersistReplay, FleetTraceReconstructsMidHorizonWeightState) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net, persist_config());
  trace::TraceSink sink;
  FleetCampaignConfig cfg;
  cfg.horizon = 12;
  cfg.scenario.ber = 2e-5;
  cfg.batch_size = 4;
  cfg.seed = 91;
  cfg.threads = 3;
  cfg.trace = &sink;
  run_fleet_campaign(fi, ds, cfg);

  const std::uint64_t T = 7;
  const auto batch = fleet_campaign_event_batch(ds, cfg, T);

  // Reference: a fresh scenario advanced to just past event T.
  Tensor ref;
  {
    PersistentFaultSet faults(fi, cfg.scenario);
    faults.advance_to(T + 1);
    ref = fi.forward(batch.images).clone();
  }

  // Replay: arm the merged trace's persist events with time <= T.
  std::vector<trace::InjectionEvent> upto;
  for (const auto& ev : sink.events()) {
    if (ev.kind == trace::FaultKind::kPersist && ev.time <= T) {
      upto.push_back(ev);
    }
  }
  ASSERT_FALSE(upto.empty());
  trace::TraceReplayer replayer(fi);
  const Tensor replayed = replayer.replay(batch.images, upto);
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    ASSERT_EQ(float_to_bits(ref.data()[i]), float_to_bits(replayed.data()[i]))
        << "logit " << i;
  }
}

}  // namespace
}  // namespace pfi::core
