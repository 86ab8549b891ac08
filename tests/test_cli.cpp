// Unit tests for pfi_cli's argument parser (core/cli.hpp). The parser is a
// pure function from argv to CliParse, so every usage error — unknown
// flags, missing values, out-of-range integers, conflicting flag
// combinations, and the shard-mode validation rules — can be pinned
// without spawning the binary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cli.hpp"

namespace pfi::core {
namespace {

/// Parse a brace-list of flags as pfi_cli would see them (argv[0] is the
/// program name and is skipped).
CliParse parse(std::vector<std::string> args) {
  std::vector<const char*> argv = {"pfi_cli"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return parse_cli_args(static_cast<int>(argv.size()), argv.data());
}

void expect_error(std::vector<std::string> args, const std::string& needle) {
  const CliParse p = parse(std::move(args));
  EXPECT_FALSE(p.ok());
  EXPECT_NE(p.error.find(needle), std::string::npos)
      << "error was: " << p.error;
}

// ----------------------------------------------------------- happy path ----

TEST(Cli, DefaultsWhenNoFlags) {
  const CliParse p = parse({});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.options.model, "resnet18");
  EXPECT_EQ(p.options.dataset, "cifar10");
  EXPECT_EQ(p.options.dtype, "fp32");
  EXPECT_EQ(p.options.error, "random");  // filled in during validation
  EXPECT_EQ(p.options.trials, 500);
  EXPECT_EQ(p.options.seed, 1u);
  EXPECT_EQ(p.options.shards, 1);
  EXPECT_EQ(p.options.shard_index, -1);
  EXPECT_FALSE(p.options.shard_mode());
}

TEST(Cli, ParsesTypicalCampaignInvocation) {
  const CliParse p =
      parse({"--model", "alexnet", "--trials", "1000", "--error",
             "bitflip:31", "--layer", "3", "--threads", "8", "--seed", "42",
             "--trace", "/tmp/t.jsonl", "--no-prefix-cache"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.options.model, "alexnet");
  EXPECT_EQ(p.options.trials, 1000);
  EXPECT_EQ(p.options.error, "bitflip:31");
  EXPECT_EQ(p.options.layer, 3);
  EXPECT_EQ(p.options.threads, 8);
  EXPECT_EQ(p.options.seed, 42u);
  EXPECT_EQ(p.options.trace_path, "/tmp/t.jsonl");
  EXPECT_FALSE(p.options.prefix_cache);
}

TEST(Cli, HelpAndListModelsShortCircuit) {
  EXPECT_TRUE(parse({"--help"}).show_help);
  EXPECT_TRUE(parse({"-h"}).show_help);
  EXPECT_TRUE(parse({"--list-models"}).list_models);
  // Short-circuits even if later flags are nonsense.
  EXPECT_TRUE(parse({"--help", "--bogus"}).show_help);
  EXPECT_FALSE(parse({"--help"}).ok());
  EXPECT_NE(cli_usage().find("--shard-dir"), std::string::npos);
}

TEST(Cli, ShardWorkerInvocation) {
  const CliParse p = parse({"--shard-dir", "/tmp/shards", "--shards", "4",
                            "--shard-index", "2", "--shard-horizon", "512"});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.options.shard_mode());
  EXPECT_EQ(p.options.shards, 4);
  EXPECT_EQ(p.options.shard_index, 2);
  EXPECT_EQ(p.options.shard_horizon, 512);
}

TEST(Cli, ShardDriverInvocationWithoutIndex) {
  const CliParse p = parse({"--shard-dir", "/tmp/shards", "--shards", "3"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.options.shard_index, -1);  // run all shards + merge
}

// --------------------------------------------------------- usage errors ----

TEST(Cli, UnknownFlagIsNamed) {
  expect_error({"--bogus"}, "unknown flag '--bogus'");
  expect_error({"--trials", "10", "--frobnicate"},
               "unknown flag '--frobnicate'");
}

TEST(Cli, MissingValueIsNamed) {
  expect_error({"--trials"}, "flag '--trials' is missing its value");
  expect_error({"--model"}, "flag '--model' is missing its value");
  expect_error({"--shard-dir"}, "flag '--shard-dir' is missing its value");
}

TEST(Cli, OutOfRangeIntegersAreRejectedWithRange) {
  expect_error({"--trials", "0"}, "--trials expects an integer in [1, ");
  expect_error({"--trials", "-5"}, "--trials expects an integer");
  expect_error({"--trials", "12banana"}, "got '12banana'");
  expect_error({"--threads", "5000"}, "--threads expects an integer");
  expect_error({"--epochs", "x"}, "--epochs expects an integer");
  expect_error({"--seed", "-1"}, "--seed expects an unsigned integer");
  expect_error({"--ci-target", "1.5"},
               "--ci-target expects a half-width in [0, 1)");
  expect_error({"--ci-target", "abc"}, "got 'abc'");
  // NaN passes both range comparisons, and 1e-400 underflows to 0, which
  // would silently run a fixed budget: the parser refuses them, naming the
  // flag.
  for (const char* text : {"nan", "inf", "1e-400"}) {
    expect_error({"--ci-target", text},
                 "--ci-target expects a half-width in [0, 1), got '" +
                     std::string(text) + "'");
  }
}

TEST(Cli, BadErrorModelAndDtypeSpecs) {
  expect_error({"--error", "frob"}, "unknown error model 'frob'");
  expect_error({"--error", "random:1"}, "random takes 0 or 2 arguments");
  expect_error({"--error", "const:x"}, "'x' is not a number");
  // Not an integer bit, or outside what the model accepts: refused as data
  // naming the spec — never truncated, never thrown by a constructor.
  for (const std::string spec : {"bitflip:3.7", "bitflip:1e1", "bitflip:nan",
                                 "bitflip:1e10", "bitflip:99", "noise:nan",
                                 "random:2:1"}) {
    expect_error({"--error", spec}, "error model '" + spec + "'");
  }
  expect_error({"--dtype", "fp64"}, "unknown dtype 'fp64'");
  expect_error({"--sampler", "quantum"}, "unknown sampler 'quantum'");
}

TEST(Cli, ErrorModelSpecParser) {
  EXPECT_TRUE(parse_error_model_spec("bitflip").has_value());
  EXPECT_TRUE(parse_error_model_spec("bitflip:31").has_value());
  EXPECT_TRUE(parse_error_model_spec("random:0:1").has_value());
  EXPECT_TRUE(parse_error_model_spec("noise:0.5").has_value());
  // A non-finite constant is a meaningful fault value.
  EXPECT_TRUE(parse_error_model_spec("const:inf").has_value());
  EXPECT_TRUE(parse_error_model_spec("const:-inf").has_value());
  EXPECT_TRUE(parse_error_model_spec("const:nan").has_value());
  std::string why;
  EXPECT_FALSE(parse_error_model_spec("bitflip:1:2", &why).has_value());
  EXPECT_NE(why.find("at most one argument"), std::string::npos);
  EXPECT_EQ(parse_error_model_spec("bitflip:-1")->name,
            "single_bit_flip[random]");
  EXPECT_EQ(parse_error_model_spec("bitflip:0")->name, "single_bit_flip[0]");
  for (const std::string spec :
       {"bitflip:3.7", "bitflip:1e1", "bitflip:nan", "bitflip:1e10",
        "bitflip:32", "bitflip:-2", "bitflip:99", "noise:nan", "noise:0",
        "random:2:1", "random:1:1", "const:1e39", "random:-inf:1",
        "random:0:inf", "random:-inf:inf", "random:-3e38:3e38", "noise:inf",
        "noise:3e38"}) {
    why.clear();
    EXPECT_FALSE(parse_error_model_spec(spec, &why).has_value()) << spec;
    EXPECT_NE(why.find("'" + spec + "'"), std::string::npos) << why;
  }
}

TEST(Cli, DtypeNameParser) {
  EXPECT_TRUE(parse_dtype_name("fp32").has_value());
  EXPECT_TRUE(parse_dtype_name("fp16").has_value());
  EXPECT_TRUE(parse_dtype_name("int8").has_value());
  EXPECT_TRUE(parse_dtype_name("bf16").has_value());
  EXPECT_FALSE(parse_dtype_name("int4").has_value());
  EXPECT_FALSE(parse_dtype_name("fp32-native").has_value());  // spec syntax
}

TEST(Cli, DtypeSpecParser) {
  const auto plain = parse_dtype_spec("int8");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->dtype, DType::kInt8);
  EXPECT_FALSE(plain->native);
  const auto native = parse_dtype_spec("int8-native");
  ASSERT_TRUE(native.has_value());
  EXPECT_EQ(native->dtype, DType::kInt8);
  EXPECT_TRUE(native->native);
  EXPECT_TRUE(parse_dtype_spec("bf16-native").has_value());
  EXPECT_TRUE(parse_dtype_spec("fp16-native").has_value());
  EXPECT_FALSE(parse_dtype_spec("-native").has_value());
  EXPECT_FALSE(parse_dtype_spec("int8-nativ").has_value());
}

TEST(Cli, PerLayerDtypeParser) {
  std::string error;
  const auto one = parse_per_layer_dtype("features.3=int8-native", &error);
  ASSERT_TRUE(one.has_value()) << error;
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0].layer, "features.3");
  EXPECT_EQ((*one)[0].dtype, DType::kInt8);
  EXPECT_TRUE((*one)[0].native);
  const auto two =
      parse_per_layer_dtype("features.0=fp16,classifier.1=bf16-native", &error);
  ASSERT_TRUE(two.has_value()) << error;
  ASSERT_EQ(two->size(), 2u);
  EXPECT_EQ((*two)[1].layer, "classifier.1");
  EXPECT_EQ((*two)[1].dtype, DType::kBFloat16);
  EXPECT_TRUE((*two)[1].native);
  EXPECT_FALSE(parse_per_layer_dtype("", &error).has_value());
  EXPECT_FALSE(parse_per_layer_dtype("features.3", &error).has_value());
  EXPECT_FALSE(parse_per_layer_dtype("=int8", &error).has_value());
  EXPECT_FALSE(parse_per_layer_dtype("features.3=", &error).has_value());
  EXPECT_FALSE(parse_per_layer_dtype("features.3=int9", &error).has_value());
}

TEST(Cli, NativeFlagAndSuffix) {
  const auto flag = parse({"--dtype", "int8", "--native"});
  ASSERT_TRUE(flag.ok()) << flag.error;
  EXPECT_TRUE(flag.options.native);
  EXPECT_EQ(flag.options.dtype, "int8");
  // A -native dtype suffix folds into the flag and strips from the token.
  const auto suffix = parse({"--dtype", "bf16-native"});
  ASSERT_TRUE(suffix.ok()) << suffix.error;
  EXPECT_TRUE(suffix.options.native);
  EXPECT_EQ(suffix.options.dtype, "bf16");
  expect_error({"--dtype", "int8-nativ"}, "unknown dtype");
  expect_error({"--per-layer-dtype", "features.3"}, "not PATH=DTYPE");
}

// ---------------------------------------------------- shard validation ----

TEST(Cli, ShardFlagsRequireShardDir) {
  expect_error({"--shards", "4"}, "need --shard-dir");
  expect_error({"--shard-index", "0"}, "need --shard-dir");
  expect_error({"--shard-horizon", "100"}, "--shard-horizon needs --shard-dir");
}

TEST(Cli, ShardIndexMustBeBelowShardCount) {
  expect_error({"--shard-dir", "/tmp/s", "--shards", "4", "--shard-index",
                "4"},
               "--shard-index 4 must be < --shards 4");
  expect_error({"--shard-dir", "/tmp/s", "--shard-index", "1"},
               "--shard-index 1 must be < --shards 1");
}

TEST(Cli, ShardRangesEnforced) {
  expect_error({"--shards", "0"}, "--shards expects an integer in [1, ");
  expect_error({"--shard-index", "-1"}, "--shard-index expects an integer");
  expect_error({"--shard-horizon", "0"},
               "--shard-horizon expects an integer");
}

TEST(Cli, ShardModeConflicts) {
  expect_error({"--shard-dir", "/tmp/s", "--checkpoint", "/tmp/c.json"},
               "--checkpoint conflicts with sharding");
  expect_error({"--shard-dir", "/tmp/s", "--resume"},
               "--resume is implicit in shard mode");
  expect_error({"--shard-dir", "/tmp/s", "--per-layer"},
               "--per-layer campaigns cannot be sharded");
  expect_error({"--shard-dir", "/tmp/s", "--sampler", "stratified",
                "--ci-target", "0.01"},
               "cannot be sharded");
}

TEST(Cli, ShardedStratifiedBudgetModeIsAllowed) {
  const CliParse p = parse({"--shard-dir", "/tmp/s", "--shards", "2",
                            "--sampler", "stratified"});
  EXPECT_TRUE(p.ok()) << p.error;
}

// ----------------------------------------------- non-shard cross checks ----

TEST(Cli, ResumeRequiresCheckpoint) {
  expect_error({"--resume"}, "--resume requires --checkpoint");
  EXPECT_TRUE(
      parse({"--checkpoint", "/tmp/c.json", "--resume"}).ok());
}

TEST(Cli, StratifiedRules) {
  expect_error({"--sampler", "stratified", "--error", "zero"},
               "--error does not apply");
  expect_error({"--sampler", "stratified", "--per-layer"},
               "--per-layer is the uniform sampler's mode");
  expect_error({"--ci-target", "0.01"},
               "--ci-target requires --sampler stratified");
  EXPECT_TRUE(parse({"--sampler", "stratified", "--ci-target", "0.01"}).ok());
}

}  // namespace
}  // namespace pfi::core
