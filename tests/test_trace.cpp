// Tests for the pfi::trace observability layer: InjectionEvent emission,
// JSONL serialization (bit-faithful, hostile-name-proof), the golden traces
// every error model must reproduce, thread-count invariance of campaign
// traces, trace replay (the differential oracle for the hook mechanism),
// the hook-vs-PerturbationLayer differential, and the Profiler/HookTimer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/fault_injector.hpp"
#include "core/perturbation_layer.hpp"
#include "core/report.hpp"
#include "models/zoo.hpp"
#include "util/bits.hpp"
#include "util/strings.hpp"

namespace pfi::core {
namespace {

using models::make_model;

FiConfig trace_config(DType dtype = DType::kFloat32) {
  return {.input_shape = {3, 32, 32}, .batch_size = 4, .dtype = dtype};
}

// --------------------------------------------------------------- diff_bit ----

TEST(TraceDiffBit, Fp32AttributionFollowsTheWordXor) {
  const quant::QuantParams qp;
  EXPECT_EQ(trace::diff_bit(1.0f, flip_float_bit(1.0f, 30), DType::kFloat32, qp),
            30);
  EXPECT_EQ(trace::diff_bit(-2.5f, flip_float_bit(-2.5f, 0), DType::kFloat32, qp),
            0);
  // Identical values and multi-bit deltas have no single-bit attribution.
  EXPECT_EQ(trace::diff_bit(1.0f, 1.0f, DType::kFloat32, qp), -1);
  EXPECT_EQ(trace::diff_bit(
                1.0f, flip_float_bit(flip_float_bit(1.0f, 3), 17),
                DType::kFloat32, qp),
            -1);
}

TEST(TraceDiffBit, Fp16AttributionUsesTheHalfWord) {
  const quant::QuantParams qp;
  EXPECT_EQ(trace::diff_bit(1.0f, flip_fp16_bit(1.0f, 9), DType::kFloat16, qp),
            9);
  EXPECT_EQ(trace::diff_bit(1.0f, flip_fp16_bit(1.0f, 15), DType::kFloat16, qp),
            15);
}

TEST(TraceDiffBit, Bf16AttributionUsesTheBf16Word) {
  const quant::QuantParams qp;
  EXPECT_EQ(
      trace::diff_bit(1.0f, flip_bf16_bit(1.0f, 6), DType::kBFloat16, qp), 6);
  EXPECT_EQ(
      trace::diff_bit(1.0f, flip_bf16_bit(1.0f, 15), DType::kBFloat16, qp),
      15);
  // A delta below bf16 resolution collapses under rounding: no attribution.
  EXPECT_EQ(trace::diff_bit(1.0f, 1.0000001f, DType::kBFloat16, qp), -1);
}

TEST(TraceDiffBit, Int8AttributionLivesInTheQuantizedCodes) {
  const auto qp = quant::calibrate_absmax(2.0f);
  const float pre = quant::dequantize_value(64, qp);
  // Flipping code bit 5 turns 64 (0b01000000) into 96 (0b01100000).
  const float post = quant::flip_bit_int8(pre, 5, qp);
  EXPECT_EQ(trace::diff_bit(pre, post, DType::kInt8, qp), 5);
  // In the FP32 domain the same pair differs in many bits.
  EXPECT_EQ(trace::diff_bit(pre, post, DType::kFloat32, qp), -1);
}

// -------------------------------------------------------------- TraceSink ----

TEST(TraceSink, RecordStampsContextAndRespectsCompileSwitch) {
  trace::TraceSink sink;
  sink.set_context(5, 2);
  trace::InjectionEvent ev;
  ev.layer = 3;
  sink.record(ev);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.events()[0].attempt, 5u);
  EXPECT_EQ(sink.events()[0].rep, 2);
  EXPECT_EQ(sink.events()[0].layer, 3);
}

TEST(TraceSink, InjectorEmitsExactlyWhenTraceIsCompiledIn) {
  Rng rng(90);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, trace_config());
  trace::TraceSink sink;
  fi.set_trace_sink(&sink);

  Rng pick(17);
  fi.declare_weight_fault(fi.random_weight_location(pick), zero_value());
  const NeuronLocation loc = fi.random_neuron_location(pick);
  fi.declare_neuron_fault(
      {.layer = loc.layer, .batch = 0, .c = loc.c, .h = loc.h, .w = loc.w},
      constant_value(3.0f));
  Rng drng(18);
  fi.forward(Tensor::rand({4, 3, 32, 32}, drng, -1.0f, 1.0f));
  fi.clear();
  fi.set_trace_sink(nullptr);

  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].kind, trace::FaultKind::kWeight);
  EXPECT_EQ(sink.events()[1].kind, trace::FaultKind::kNeuron);
  EXPECT_EQ(sink.events()[1].post, 3.0f);
  EXPECT_EQ(sink.events()[1].layer_name, fi.layer_path(sink.events()[1].layer));
}

TEST(TraceSink, SplitRepsGroupsRunsByAttemptAndRep) {
  auto ev = [](std::uint64_t attempt, std::int32_t rep) {
    trace::InjectionEvent e;
    e.attempt = attempt;
    e.rep = rep;
    return e;
  };
  const std::vector<trace::InjectionEvent> stream{
      ev(0, 0), ev(0, 0), ev(0, 1), ev(2, 0), ev(2, 0), ev(3, 0)};
  const auto reps = trace::split_reps(stream);
  ASSERT_EQ(reps.size(), 4u);
  EXPECT_EQ(reps[0].size(), 2u);
  EXPECT_EQ(reps[1].size(), 1u);
  EXPECT_EQ(reps[2].size(), 2u);
  EXPECT_EQ(reps[3].size(), 1u);
}

// ------------------------------------------------------------------ JSONL ----

trace::InjectionEvent sample_event() {
  trace::InjectionEvent ev;
  ev.trial = 12;
  ev.attempt = 34;
  ev.rep = 1;
  ev.kind = trace::FaultKind::kNeuron;
  ev.layer = 5;
  ev.layer_name = "features.3";
  ev.layer_kind = "Conv2d";
  ev.dtype = DType::kFloat32;
  ev.coords[0] = 0;
  ev.coords[1] = 7;
  ev.coords[2] = 2;
  ev.coords[3] = 9;
  ev.flat = 1234;
  ev.bit = 30;
  ev.pre = 0.5f;
  ev.post = flip_float_bit(0.5f, 30);
  ev.model = "single_bit_flip[30]";
  return ev;
}

void expect_same_event(const trace::InjectionEvent& a,
                       const trace::InjectionEvent& b) {
  EXPECT_EQ(a.trial, b.trial);
  EXPECT_EQ(a.attempt, b.attempt);
  EXPECT_EQ(a.rep, b.rep);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.layer, b.layer);
  EXPECT_EQ(a.layer_name, b.layer_name);
  EXPECT_EQ(a.layer_kind, b.layer_kind);
  EXPECT_EQ(a.dtype, b.dtype);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.coords[i], b.coords[i]);
  EXPECT_EQ(a.flat, b.flat);
  EXPECT_EQ(a.bit, b.bit);
  // Bit-exact, so NaN payloads compare too.
  EXPECT_EQ(float_to_bits(a.pre), float_to_bits(b.pre));
  EXPECT_EQ(float_to_bits(a.post), float_to_bits(b.post));
  EXPECT_EQ(a.model, b.model);
}

TEST(TraceJsonl, EventRoundTripsThroughJson) {
  const auto ev = sample_event();
  expect_same_event(ev, trace::event_from_json(trace::event_to_json(ev)));
}

TEST(TraceJsonl, NonFiniteValuesSurviveBitExactly) {
  auto ev = sample_event();
  ev.pre = std::numeric_limits<float>::infinity();
  ev.post = bits_to_float(0x7fc00123u);  // NaN with a payload
  const std::string line = trace::event_to_json(ev);
  // JSON has no Inf/NaN literal: the decimal fields go null, the
  // authoritative bits fields carry the exact pattern.
  EXPECT_NE(line.find("\"pre\":null"), std::string::npos);
  EXPECT_NE(line.find("\"post\":null"), std::string::npos);
  expect_same_event(ev, trace::event_from_json(line));
}

TEST(TraceJsonl, HalfPrecisionNanPayloadsSurviveBitExactly) {
  // fp16/bf16 events store the fp32 widening of the 16-bit pattern; a NaN
  // produced by an exponent-field flip must round-trip through the
  // null-decimal / hex-bits JSONL encoding with its payload intact.
  auto ev = sample_event();
  ev.dtype = DType::kFloat16;
  ev.bit = 14;
  ev.pre = float_from_f16_bits(0x3c01);  // 1 + 2^-10
  ev.post = flip_fp16_bit(ev.pre, 14);   // exponent msb -> NaN, payload 1
  ASSERT_TRUE(std::isnan(ev.post));
  const std::string fp16_line = trace::event_to_json(ev);
  EXPECT_NE(fp16_line.find("\"post\":null"), std::string::npos);
  expect_same_event(ev, trace::event_from_json(fp16_line));
  EXPECT_EQ(f16_bits_from_float(trace::event_from_json(fp16_line).post),
            0x7c01);

  ev.dtype = DType::kBFloat16;
  ev.pre = float_from_bf16_bits(0x3f81);  // 1 + 2^-7
  ev.post = flip_bf16_bit(ev.pre, 14);
  ASSERT_TRUE(std::isnan(ev.post));
  const std::string bf16_line = trace::event_to_json(ev);
  expect_same_event(ev, trace::event_from_json(bf16_line));
  EXPECT_EQ(bf16_bits_from_float(trace::event_from_json(bf16_line).post),
            0x7f81);
}

// The regression pinned here: the parser used to accept any diff_bit the
// line claimed, so a trace asserting diff_bit=28 on an fp16 event — a bit
// that cannot exist in a 16-bit container — replayed as if it were valid.
// dtype and diff_bit must agree or the line is rejected.
TEST(TraceJsonl, RejectsDiffBitWiderThanTheDtype) {
  auto ev = sample_event();
  ev.dtype = DType::kFloat16;
  ev.bit = 28;  // valid for fp32, impossible on fp16
  EXPECT_THROW(trace::event_from_json(trace::event_to_json(ev)), Error);
  ev.bit = 16;  // first bit past the fp16 container
  EXPECT_THROW(trace::event_from_json(trace::event_to_json(ev)), Error);
  ev.dtype = DType::kBFloat16;
  EXPECT_THROW(trace::event_from_json(trace::event_to_json(ev)), Error);
  ev.dtype = DType::kInt8;
  ev.bit = 9;
  EXPECT_THROW(trace::event_from_json(trace::event_to_json(ev)), Error);
  // The same indices are fine where the container is wide enough, and the
  // no-bit-diff sentinel (-1, value faults) is always legal.
  ev.dtype = DType::kFloat32;
  ev.bit = 28;
  EXPECT_NO_THROW(trace::event_from_json(trace::event_to_json(ev)));
  ev.dtype = DType::kFloat16;
  ev.bit = -1;
  EXPECT_NO_THROW(trace::event_from_json(trace::event_to_json(ev)));
}

// Each line is one edit away from a valid event. The old reader took most
// of them as a different event, and threw std::invalid_argument or
// std::out_of_range on the last two, which pfi_merge's `catch (const
// Error&)` does not catch.
TEST(TraceJsonl, RefusesMalformedLines) {
  const std::string line = trace::event_to_json(sample_event());
  ASSERT_NO_THROW(trace::event_from_json(line));
  const auto edit = [&](const std::string& from, const std::string& to) {
    std::string out = line;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return out.replace(at, from.size(), to);
  };
  for (const std::string& bad : {
           edit("\"coords\":[0,7,2,9]", "\"coords\":[0,1]"),
           edit("\"coords\":[0,7,2,9]", "\"coords\":[0,1,2,3,4]"),
           edit("\"trial\":12", "\"trial\":-1"),
           edit("\"trial\":12", "\"trial\":12abc"),
           edit("\"rep\":1", "\"rep\":4294967297"),
           edit("\"pre_bits\":\"3f000000\"", "\"pre_bits\":\"3fc0000g\""),
           edit("\"flat\":1234", "\"flat\":1234,\"flat\":1234"),
           line + "}",
           edit("\"flat\":1234", "\"flat\":abc"),
           edit("\"trial\":12", "\"trial\":18446744073709551617"),
       }) {
    EXPECT_THROW(trace::event_from_json(bad), Error) << bad;
  }
}

TEST(TraceJsonl, HostileLayerNameCannotShadowFieldsOrBreakParsing) {
  auto ev = sample_event();
  // Quotes, a comma, a newline, and text that looks like a JSON field.
  ev.layer_name = "evil\"name,\n\"flat\":999,\"post_bits\":\"00000000";
  ev.model = "model\"with\\escapes\t";
  expect_same_event(ev, trace::event_from_json(trace::event_to_json(ev)));
}

TEST(TraceJsonl, FileRoundTripPreservesTheByteStream) {
  std::vector<trace::InjectionEvent> events{sample_event(), sample_event()};
  events[1].attempt = 35;
  events[1].kind = trace::FaultKind::kWeight;
  events[1].post = -std::numeric_limits<float>::infinity();
  const std::string path = "/tmp/pfi_test_trace_roundtrip.jsonl";
  trace::write_trace_jsonl(path, events);
  const auto back = trace::read_trace_jsonl(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_same_event(events[i], back[i]);
  }
  EXPECT_EQ(trace::trace_to_jsonl(events), trace::trace_to_jsonl(back));
}

// A model whose conv carries a hostile name must flow through the whole
// observability stack — trace JSONL and campaign CSV — without corrupting
// either format (the regression for the old delimiter-rejecting CSV writer).
TEST(TraceJsonl, HostileModuleNameSurvivesTraceAndCsvExport) {
  Rng rng(21);
  auto seq = std::make_shared<nn::Sequential>();
  seq->push(std::make_shared<nn::Conv2d>(
      nn::Conv2dOptions{.in_channels = 3, .out_channels = 4, .kernel = 3,
                        .padding = 1, .bias = false},
      rng));
  seq->children()[0]->set_name("bad,\"name\"\nwith:everything");
  seq->eval();
  FaultInjector fi(seq, {.input_shape = {3, 8, 8}, .batch_size = 1});

  trace::TraceSink sink;
  fi.set_trace_sink(&sink);
  fi.declare_neuron_fault({.layer = 0, .batch = 0, .c = 1, .h = 2, .w = 3},
                          constant_value(9.0f));
  Rng drng(22);
  fi.forward(Tensor::rand({1, 3, 8, 8}, drng, -1.0f, 1.0f));
  fi.clear();
  fi.set_trace_sink(nullptr);

  ASSERT_EQ(sink.size(), 1u);
  const auto& ev = sink.events()[0];
  EXPECT_EQ(ev.layer_name, "bad,\"name\"\nwith:everything");
  expect_same_event(ev, trace::event_from_json(trace::event_to_json(ev)));

  // The same hostile name as a campaign CSV label: quoted, not rejected.
  CampaignResult r;
  r.trials = 1;
  const std::string path = "/tmp/pfi_test_trace_hostile.csv";
  write_campaign_csv(path, {{ev.layer_name, r}});
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"bad,\"\"name\"\"\nwith:everything\",1,"),
            std::string::npos)
      << content;
}

// ---------------------------------------------------------- golden traces ----

/// One-trial campaign with a fixed seed: the entire emitted trace for each
/// error model is pinned byte-for-byte below. Regenerate by printing this
/// function's return value after an intentional change.
std::string golden_trace(const ErrorModel& model, DType dtype) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto net = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(net, trace_config(dtype));
  trace::TraceSink sink;
  CampaignConfig cfg;
  cfg.trials = 1;
  cfg.error_model = model;
  cfg.seed = 91;
  cfg.batch_size = 4;
  cfg.threads = 1;
  cfg.trace = &sink;
  run_classification_campaign(fi, ds, cfg);
  return trace::trace_to_jsonl(sink.events());
}

ErrorModel model_by_id(const std::string& id) {
  if (id == "random_value") return random_value();
  if (id == "zero_value") return zero_value();
  if (id == "constant_value") return constant_value(10000.0f);
  if (id == "single_bit_flip") return single_bit_flip();
  if (id == "scale_value") return scale_value(2.0f);
  if (id == "additive_noise") return additive_noise(0.5f);
  if (id == "multi_bit_flip") return multi_bit_flip(2);
  if (id == "sign_flip") return sign_flip();
  if (id == "saturate") return saturate(0.5f);
  PFI_CHECK(false) << "unknown golden error model id '" << id << "'";
}

struct GoldenCase {
  const char* id;
  DType dtype;
  const char* jsonl;
};

const GoldenCase kGoldenTraces[] = {
    {"random_value", DType::kFloat32,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15632296,"pre_bits":"3f940264","post":-0.157927275,"post_bits":"be21b7b0","model":"random_value[-1.000000,1.000000]"})json" "\n"},
    {"random_value", DType::kInt8,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.13058972,"pre_bits":"3f90b72a","post":-0.157927275,"post_bits":"be21b7b0","model":"random_value[-1.000000,1.000000]"})json" "\n"},
    {"random_value", DType::kFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":-0.157927275,"post_bits":"be21b7b0","model":"random_value[-1.000000,1.000000]"})json" "\n"},
    {"random_value", DType::kBFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":-0.157927275,"post_bits":"be21b7b0","model":"random_value[-1.000000,1.000000]"})json" "\n"},
    {"zero_value", DType::kFloat32,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15632296,"pre_bits":"3f940264","post":0,"post_bits":"00000000","model":"zero_value"})json" "\n"},
    {"zero_value", DType::kInt8,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.13058972,"pre_bits":"3f90b72a","post":0,"post_bits":"00000000","model":"zero_value"})json" "\n"},
    {"zero_value", DType::kFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":0,"post_bits":"00000000","model":"zero_value"})json" "\n"},
    {"zero_value", DType::kBFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":0,"post_bits":"00000000","model":"zero_value"})json" "\n"},
    {"constant_value", DType::kFloat32,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15632296,"pre_bits":"3f940264","post":10000,"post_bits":"461c4000","model":"constant_value[10000.000000]"})json" "\n"},
    {"constant_value", DType::kInt8,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.13058972,"pre_bits":"3f90b72a","post":10000,"post_bits":"461c4000","model":"constant_value[10000.000000]"})json" "\n"},
    {"constant_value", DType::kFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":10000,"post_bits":"461c4000","model":"constant_value[10000.000000]"})json" "\n"},
    {"constant_value", DType::kBFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":10000,"post_bits":"461c4000","model":"constant_value[10000.000000]"})json" "\n"},
    {"single_bit_flip", DType::kFloat32,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[0,2,12,11],"flat":715,"bit":13,"pre":1.15632296,"pre_bits":"3f940264","post":1.15729952,"post_bits":"3f942264","model":"single_bit_flip[random]"})json" "\n"},
    {"single_bit_flip", DType::kInt8,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[0,2,12,11],"flat":715,"bit":3,"pre":1.13058972,"pre_bits":"3f90b72a","post":1.60662746,"post_bits":"3fcda5f8","model":"single_bit_flip[random]"})json" "\n"},
    {"single_bit_flip", DType::kFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[0,2,12,11],"flat":715,"bit":6,"pre":1.15625,"pre_bits":"3f940000","post":1.21875,"post_bits":"3f9c0000","model":"single_bit_flip[random]"})json" "\n"},
    {"single_bit_flip", DType::kBFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[0,2,12,11],"flat":715,"bit":6,"pre":1.15625,"pre_bits":"3f940000","post":1.65625,"post_bits":"3fd40000","model":"single_bit_flip[random]"})json" "\n"},
    {"scale_value", DType::kFloat32,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15632296,"pre_bits":"3f940264","post":2.31264591,"post_bits":"40140264","model":"scale_value[2.000000]"})json" "\n"},
    {"scale_value", DType::kInt8,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.13058972,"pre_bits":"3f90b72a","post":2.26117945,"post_bits":"4010b72a","model":"scale_value[2.000000]"})json" "\n"},
    {"scale_value", DType::kFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":2.3125,"post_bits":"40140000","model":"scale_value[2.000000]"})json" "\n"},
    {"scale_value", DType::kBFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":2.3125,"post_bits":"40140000","model":"scale_value[2.000000]"})json" "\n"},
    {"additive_noise", DType::kFloat32,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15632296,"pre_bits":"3f940264","post":1.07735932,"post_bits":"3f89e6e9","model":"additive_noise[0.500000]"})json" "\n"},
    {"additive_noise", DType::kInt8,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[0,2,12,11],"flat":715,"bit":0,"pre":1.13058972,"pre_bits":"3f90b72a","post":1.05162609,"post_bits":"3f869baf","model":"additive_noise[0.500000]"})json" "\n"},
    {"additive_noise", DType::kFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":1.07728636,"post_bits":"3f89e485","model":"additive_noise[0.500000]"})json" "\n"},
    {"additive_noise", DType::kBFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":1.07728636,"post_bits":"3f89e485","model":"additive_noise[0.500000]"})json" "\n"},
    {"multi_bit_flip", DType::kFloat32,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15632296,"pre_bits":"3f940264","post":1.17292452,"post_bits":"3f962264","model":"multi_bit_flip[2]"})json" "\n"},
    {"multi_bit_flip", DType::kInt8,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.13058972,"pre_bits":"3f90b72a","post":0.654551923,"post_bits":"3f2790b7","model":"multi_bit_flip[2]"})json" "\n"},
    {"multi_bit_flip", DType::kFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":1.46875,"post_bits":"3fbc0000","model":"multi_bit_flip[2]"})json" "\n"},
    {"multi_bit_flip", DType::kBFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":0.4140625,"post_bits":"3ed40000","model":"multi_bit_flip[2]"})json" "\n"},
    {"sign_flip", DType::kFloat32,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[0,2,12,11],"flat":715,"bit":31,"pre":1.15632296,"pre_bits":"3f940264","post":-1.15632296,"post_bits":"bf940264","model":"sign_flip"})json" "\n"},
    {"sign_flip", DType::kInt8,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.13058972,"pre_bits":"3f90b72a","post":-1.13058972,"post_bits":"bf90b72a","model":"sign_flip"})json" "\n"},
    {"sign_flip", DType::kFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[0,2,12,11],"flat":715,"bit":15,"pre":1.15625,"pre_bits":"3f940000","post":-1.15625,"post_bits":"bf940000","model":"sign_flip"})json" "\n"},
    {"sign_flip", DType::kBFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[0,2,12,11],"flat":715,"bit":15,"pre":1.15625,"pre_bits":"3f940000","post":-1.15625,"post_bits":"bf940000","model":"sign_flip"})json" "\n"},
    {"saturate", DType::kFloat32,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp32","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15632296,"pre_bits":"3f940264","post":0.5,"post_bits":"3f000000","model":"saturate[0.500000]"})json" "\n"},
    {"saturate", DType::kInt8,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"int8","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.13058972,"pre_bits":"3f90b72a","post":0.5,"post_bits":"3f000000","model":"saturate[0.500000]"})json" "\n"},
    {"saturate", DType::kFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"fp16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":0.5,"post_bits":"3f000000","model":"saturate[0.500000]"})json" "\n"},
    {"saturate", DType::kBFloat16,
     R"json({"trial":0,"attempt":4,"rep":0,"kind":"neuron","layer":2,"layer_name":"squeezenet.2.1.branch0.0","layer_kind":"Conv2d","dtype":"bf16","coords":[0,2,12,11],"flat":715,"bit":-1,"pre":1.15625,"pre_bits":"3f940000","post":0.5,"post_bits":"3f000000","model":"saturate[0.500000]"})json" "\n"},
};

TEST(TraceGolden, EveryErrorModelMatchesItsCheckedInTrace) {
  ASSERT_EQ(std::size(kGoldenTraces), 36u)
      << "expected 9 error models x {fp32, int8, fp16, bf16}";
  for (const auto& c : kGoldenTraces) {
    EXPECT_EQ(golden_trace(model_by_id(c.id), c.dtype), c.jsonl)
        << c.id << " @ " << dtype_name(c.dtype);
  }
}

// --------------------------------------------- campaign trace invariance ----

std::string neuron_trace_jsonl(std::int64_t threads) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, trace_config());
  trace::TraceSink sink;
  CampaignConfig cfg;
  cfg.trials = 24;
  cfg.error_model = single_bit_flip();
  cfg.seed = 91;
  cfg.batch_size = 4;
  cfg.injections_per_image = 2;
  cfg.threads = threads;
  cfg.trace = &sink;
  run_classification_campaign(fi, ds, cfg);
  return trace::trace_to_jsonl(sink.events());
}

TEST(TraceCampaign, NeuronJsonlByteIdenticalForOneAndFourThreads) {
  const std::string serial = neuron_trace_jsonl(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, neuron_trace_jsonl(4));
}

std::string weight_trace_jsonl(std::int64_t threads) {
  Rng rng(92);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, trace_config());
  trace::TraceSink sink;
  WeightCampaignConfig cfg;
  cfg.faults = 24;
  cfg.images_per_fault = 4;
  cfg.error_model = single_bit_flip();
  cfg.seed = 93;
  cfg.threads = threads;
  cfg.trace = &sink;
  run_weight_campaign(fi, ds, cfg);
  return trace::trace_to_jsonl(sink.events());
}

TEST(TraceCampaign, WeightJsonlByteIdenticalForOneAndFourThreads) {
  const std::string serial = weight_trace_jsonl(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, weight_trace_jsonl(4));
}

TEST(TraceCampaign, EventsCarryMergedTrialOrderAndLayerPaths) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, trace_config());
  trace::TraceSink sink;
  CampaignConfig cfg;
  cfg.trials = 12;
  cfg.error_model = random_value();
  cfg.seed = 91;
  cfg.batch_size = 4;
  cfg.threads = 2;
  cfg.trace = &sink;
  const auto result = run_classification_campaign(fi, ds, cfg);
  EXPECT_EQ(result.trials, 12u);
  ASSERT_FALSE(sink.empty());
  std::uint64_t last_trial = 0;
  for (const auto& ev : sink.events()) {
    EXPECT_GE(ev.trial, last_trial);        // merge order is trial order
    EXPECT_LT(ev.trial, result.trials);     // discarded reps left no events
    EXPECT_EQ(ev.layer_name, fi.layer_path(ev.layer));
    EXPECT_EQ(ev.model, "random_value[-1.000000,1.000000]");
    last_trial = ev.trial;
  }
}

// ------------------------------------------------------------------ replay ----

TEST(TraceReplay, NeuronCampaignLogitsReproduceBitExactly) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, trace_config());
  trace::TraceSink sink(/*capture_logits=*/true);
  CampaignConfig cfg;
  cfg.trials = 6;
  cfg.error_model = single_bit_flip();
  cfg.seed = 91;
  cfg.batch_size = 4;
  cfg.injections_per_image = 2;
  cfg.threads = 1;
  cfg.trace = &sink;
  run_classification_campaign(fi, ds, cfg);

  const auto reps = trace::split_reps(sink.events());
  ASSERT_FALSE(reps.empty());
  ASSERT_EQ(reps.size(), sink.logits().size());
  trace::TraceReplayer replayer(fi);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& rl = sink.logits()[i];
    ASSERT_EQ(reps[i].front().attempt, rl.attempt);
    ASSERT_EQ(reps[i].front().rep, rl.rep);
    const auto batch = campaign_attempt_batch(ds, cfg, rl.attempt);
    const Tensor replayed = replayer.replay(batch.images, reps[i]);
    EXPECT_TRUE(allclose(rl.logits, replayed, 0.0f)) << "rep " << i;
  }
}

TEST(TraceReplay, Int8CampaignReplaysThroughDtypeEmulation) {
  Rng rng(90);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, trace_config(DType::kInt8));
  trace::TraceSink sink(/*capture_logits=*/true);
  CampaignConfig cfg;
  cfg.trials = 4;
  cfg.error_model = single_bit_flip();
  cfg.seed = 95;
  cfg.batch_size = 4;
  cfg.threads = 1;
  cfg.trace = &sink;
  run_classification_campaign(fi, ds, cfg);

  const auto reps = trace::split_reps(sink.events());
  ASSERT_EQ(reps.size(), sink.logits().size());
  trace::TraceReplayer replayer(fi);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto batch = campaign_attempt_batch(ds, cfg, sink.logits()[i].attempt);
    const Tensor replayed = replayer.replay(batch.images, reps[i]);
    EXPECT_TRUE(allclose(sink.logits()[i].logits, replayed, 0.0f)) << "rep "
                                                                   << i;
  }
}

TEST(TraceReplay, WeightCampaignLogitsReproduceBitExactly) {
  Rng rng(92);
  data::SyntheticDataset ds(data::cifar10_like());
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, trace_config());
  trace::TraceSink sink(/*capture_logits=*/true);
  WeightCampaignConfig cfg;
  cfg.faults = 6;
  cfg.images_per_fault = 4;
  cfg.error_model = single_bit_flip();
  cfg.seed = 93;
  cfg.threads = 1;
  cfg.trace = &sink;
  run_weight_campaign(fi, ds, cfg);

  const auto reps = trace::split_reps(sink.events());
  ASSERT_EQ(reps.size(), 6u);  // one weight fault per fault index
  ASSERT_EQ(reps.size(), sink.logits().size());
  trace::TraceReplayer replayer(fi);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& rl = sink.logits()[i];
    const auto batch = weight_campaign_fault_batch(ds, cfg, rl.attempt);
    const Tensor replayed = replayer.replay(batch.images, reps[i]);
    EXPECT_TRUE(allclose(rl.logits, replayed, 0.0f)) << "fault " << i;
  }
}

TEST(TraceReplay, ReplayerRejectsDtypeMismatch) {
  Rng rng(90);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, trace_config(DType::kFloat32));
  auto ev = sample_event();
  ev.dtype = DType::kInt8;
  ev.layer = 0;
  trace::TraceReplayer replayer(fi);
  const std::vector<trace::InjectionEvent> events{ev};
  EXPECT_THROW(replayer.arm(events), Error);
  fi.clear();
}

TEST(TraceReplay, ReplayerChecksDtypePerLayerUnderResolutionConfigs) {
  // With a per-layer resolution config, dtype is a layer property: an event
  // recorded at the GLOBAL dtype must be rejected on an overridden layer,
  // and one recorded at the layer's resolved dtype must arm cleanly.
  Rng rng(90);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  std::string path0;
  {
    FaultInjector probe(model, trace_config());
    path0 = probe.layer_path(0);
  }
  FiConfig cfg = trace_config();  // global fp32
  cfg.per_layer = {{.layer = path0, .dtype = DType::kFloat16, .native = false}};
  FaultInjector fi(model, cfg);
  trace::TraceReplayer replayer(fi);

  auto ev = sample_event();
  ev.layer = 0;
  for (int i = 0; i < 4; ++i) ev.coords[i] = 0;
  ev.dtype = DType::kFloat32;  // global dtype, but not layer 0's resolution
  EXPECT_THROW(replayer.arm(std::vector<trace::InjectionEvent>{ev}), Error);
  fi.clear();
  ev.dtype = DType::kFloat16;
  EXPECT_NO_THROW(replayer.arm(std::vector<trace::InjectionEvent>{ev}));
  fi.clear();
}

// ------------------------------------- hook vs PerturbationLayer differential ----

// The design-alternative differential: the same conv trunk wired once bare
// (hook injection via FaultInjector) and once with PerturbationLayers after
// every conv. Injecting with hooks, recording the trace, then arming the
// perturbation layers at the RECORDED coordinates with the RECORDED values
// must produce bit-identical outputs — the trace is a complete description
// of what the hooks did.
TEST(TraceDifferential, PerturbationLayerReproducesRecordedHookInjections) {
  Rng rng(3);
  auto plain = std::make_shared<nn::Sequential>();
  auto layered = std::make_shared<nn::Sequential>();
  std::vector<std::shared_ptr<PerturbationLayer>> perturbers;
  std::int64_t ch = 3;
  for (const std::int64_t out : {8, 16, 16}) {
    // Leaf convs are SHARED between the wirings (same weights; only one
    // model runs at a time), mirroring bench/ablation_hook_vs_layer.
    auto conv = std::make_shared<nn::Conv2d>(
        nn::Conv2dOptions{.in_channels = ch, .out_channels = out, .kernel = 3,
                          .padding = 1, .bias = false},
        rng);
    plain->push(conv);
    plain->emplace<nn::ReLU>();
    layered->push(conv);
    auto p = std::make_shared<PerturbationLayer>(9);
    perturbers.push_back(p);
    layered->push(p);
    layered->emplace<nn::ReLU>();
    ch = out;
  }
  plain->eval();
  layered->eval();
  FaultInjector fi(plain, {.input_shape = {3, 16, 16}, .batch_size = 2});
  Rng drng(4);
  const Tensor input = Tensor::rand({2, 3, 16, 16}, drng, -1.0f, 1.0f);

  // Hook injection with a stochastic model, traced.
  trace::TraceSink sink;
  fi.set_trace_sink(&sink);
  Rng pick(5);
  for (std::int64_t l = 0; l < fi.num_layers(); ++l) {
    NeuronLocation loc = fi.random_neuron_location(pick, l);
    loc.batch = 1;
    fi.declare_neuron_fault(loc, random_value(-4.0f, 4.0f));
  }
  const Tensor via_hooks = fi.forward(input).clone();
  fi.clear();
  fi.set_trace_sink(nullptr);
  ASSERT_EQ(sink.size(), 3u);

  // Equivalent PerturbationLayer injection at the recorded coordinates.
  for (const auto& ev : sink.events()) {
    ASSERT_EQ(ev.kind, trace::FaultKind::kNeuron);
    perturbers[static_cast<std::size_t>(ev.layer)]->arm(
        ev.coords[0], ev.coords[1], ev.coords[2], ev.coords[3],
        constant_value(ev.post));
  }
  const Tensor via_layers = (*layered)(input);
  EXPECT_TRUE(allclose(via_hooks, via_layers, 0.0f));
}

// ---------------------------------------------------------------- profiler ----

TEST(TraceProfiler, RecordsActivationStatsAndHookTime) {
  Rng rng(90);
  auto model = make_model("squeezenet", {.num_classes = 10}, rng);
  FaultInjector fi(model, trace_config());
  trace::Profiler prof;
  fi.set_profiler(&prof);
  Rng drng(7);
  const Tensor in = Tensor::rand({4, 3, 32, 32}, drng, -1.0f, 1.0f);
  fi.forward(in);
  fi.forward(in);
  fi.set_profiler(nullptr);

  ASSERT_EQ(prof.layers().size(), static_cast<std::size_t>(fi.num_layers()));
  for (std::size_t i = 0; i < prof.layers().size(); ++i) {
    const auto& p = prof.layers()[i];
    EXPECT_EQ(p.name, fi.layer_path(static_cast<std::int64_t>(i)));
    EXPECT_EQ(p.forwards, 2u);
    EXPECT_EQ(p.hook_calls, 2u);
    const Shape& s = fi.layer_shape(static_cast<std::int64_t>(i));
    const auto numel =
        static_cast<std::uint64_t>(s[0] * s[1] * s[2] * s[3]);
    EXPECT_EQ(p.count, 2u * numel) << "layer " << i;
    EXPECT_LE(p.min, p.mean());
    EXPECT_GE(p.max, p.mean());
  }
  const std::string table = prof.table();
  EXPECT_NE(table.find("hook us/call"), std::string::npos);
  EXPECT_NE(table.find(prof.layers()[0].name), std::string::npos);
}

TEST(TraceProfiler, NonFiniteActivationsDoNotPoisonStats) {
  // Regression: observe() used to fold NaN/Inf into `sum`, so one exponent
  // flip turned every later mean into NaN. Non-finite values must be counted
  // separately and excluded from min/max/mean.
  trace::Profiler prof;
  prof.init({{.name = "features.0", .kind = "Conv2d"}});
  const float acts[6] = {1.0f, std::numeric_limits<float>::quiet_NaN(), 3.0f,
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity(), 2.0f};
  prof.observe(0, std::span<const float>(acts, 6));

  const auto& p = prof.layers()[0];
  EXPECT_EQ(p.count, 3u);       // finite values only
  EXPECT_EQ(p.non_finite, 3u);  // NaN, +Inf, -Inf
  EXPECT_EQ(p.min, 1.0);
  EXPECT_EQ(p.max, 3.0);
  EXPECT_DOUBLE_EQ(p.mean(), 2.0);
  EXPECT_TRUE(std::isfinite(p.mean()));
  EXPECT_NE(prof.table().find("nonfinite"), std::string::npos);
}

TEST(TraceProfiler, AllNonFiniteLayerHasVacuousMean) {
  trace::Profiler prof;
  prof.init({{.name = "features.0", .kind = "Conv2d"}});
  const float acts[2] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity()};
  prof.observe(0, std::span<const float>(acts, 2));
  EXPECT_EQ(prof.layers()[0].count, 0u);
  EXPECT_EQ(prof.layers()[0].non_finite, 2u);
  EXPECT_TRUE(std::isfinite(prof.layers()[0].mean()));
}

// The regression pinned here: a layer whose every activation went non-finite
// used to print an innocuous-looking "0.0000  0.0000  0.0000" min/max/mean
// row — indistinguishable from a healthy all-zero layer. The table must
// show "-" for stats that have no finite samples behind them.
TEST(TraceProfiler, AllNonFiniteLayerTableShowsDashNotZero) {
  trace::Profiler prof;
  prof.init({{.name = "features.0", .kind = "Conv2d"},
             {.name = "features.3", .kind = "Conv2d"}});
  const float bad[2] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity()};
  const float good[2] = {1.0f, 3.0f};
  prof.observe(0, std::span<const float>(bad, 2));
  prof.observe(1, std::span<const float>(good, 2));
  const std::string table = prof.table();
  std::istringstream lines(table);
  std::string line, bad_row, good_row;
  while (std::getline(lines, line)) {
    if (line.find("features.0") != std::string::npos) bad_row = line;
    if (line.find("features.3") != std::string::npos) good_row = line;
  }
  ASSERT_FALSE(bad_row.empty());
  ASSERT_FALSE(good_row.empty());
  EXPECT_EQ(bad_row.find("0.0000"), std::string::npos) << bad_row;
  EXPECT_NE(bad_row.find('-'), std::string::npos) << bad_row;
  EXPECT_NE(good_row.find("1.0000"), std::string::npos) << good_row;
  EXPECT_NE(good_row.find("3.0000"), std::string::npos) << good_row;
  EXPECT_NE(good_row.find("2.0000"), std::string::npos) << good_row;
}

TEST(TraceProfiler, ResetKeepsTheLayerTable) {
  trace::Profiler prof;
  prof.init({{.name = "features.0", .kind = "Conv2d"}});
  const float acts[3] = {1.0f, -2.0f, 4.0f};
  prof.observe(0, std::span<const float>(acts, 3));
  prof.add_hook_time(0, 1500);
  EXPECT_EQ(prof.layers()[0].count, 3u);
  EXPECT_EQ(prof.layers()[0].min, -2.0);
  EXPECT_EQ(prof.layers()[0].max, 4.0);
  EXPECT_DOUBLE_EQ(prof.layers()[0].mean(), 1.0);
  EXPECT_GT(prof.layers()[0].hook_us_per_call(), 0.0);
  prof.reset_stats();
  EXPECT_EQ(prof.layers()[0].name, "features.0");
  EXPECT_EQ(prof.layers()[0].kind, "Conv2d");
  EXPECT_EQ(prof.layers()[0].count, 0u);
  EXPECT_EQ(prof.layers()[0].hook_calls, 0u);
}

}  // namespace
}  // namespace pfi::core
