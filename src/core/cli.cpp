#include "core/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "core/shard.hpp"
#include "util/bits.hpp"
#include "util/parse.hpp"

namespace pfi::core {

namespace {

/// Strict numeric flag parsing: non-numeric text, trailing junk, and
/// out-of-range values are usage errors naming the flag, never silent
/// zeros.
std::optional<std::int64_t> int_flag(const std::string& flag,
                                     const std::string& text, std::int64_t lo,
                                     std::int64_t hi, std::string* error) {
  const auto v = util::parse_int(text, lo, hi);
  if (!v.has_value()) {
    *error = flag + " expects an integer in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "], got '" + text + "'";
  }
  return v;
}

std::optional<std::uint64_t> uint_flag(const std::string& flag,
                                       const std::string& text,
                                       std::string* error) {
  const auto v = util::parse_uint(text);
  if (!v.has_value()) {
    *error = flag + " expects an unsigned integer, got '" + text + "'";
  }
  return v;
}

}  // namespace

std::string cli_usage() {
  return
      "usage: pfi_cli [--model NAME] [--dataset cifar10|cifar100|imagenet]\n"
      "               [--dtype DTYPE[-native]] [--native]\n"
      "               [--per-layer-dtype PATH=DTYPE[-native],...]\n"
      "               [--error MODEL] [--trials N]\n"
      "               [--layer L] [--per-layer] [--epochs N] [--seed S]\n"
      "               [--threads N] [--save PATH] [--load PATH]"
      " [--list-models]\n"
      "               [--trace PATH] [--profile] [--checkpoint PATH]"
      " [--resume]\n"
      "               [--no-prefix-cache] [--sampler uniform|stratified]\n"
      "               [--ci-target HW] [--no-prune]\n"
      "               [--shard-dir DIR] [--shards S] [--shard-index K]\n"
      "               [--shard-horizon H]\n"
      "               [--horizon N] [--ber RATE] [--persist SPEC]\n"
      "error models: bitflip | bitflip:BIT | random | random:LO:HI |"
      " zero | const:V | noise:MAG\n"
      "fleet mode: --horizon N simulates N inference events under a\n"
      "            persistent memory-fault process; --ber RATE flips each\n"
      "            weight bit with probability RATE per event, --persist\n"
      "            stuckat:N[:0|1] sticks N cells at event 0, --persist\n"
      "            distance:MEAN:STDDEV spaces errors ~N(MEAN,STDDEV) bytes\n"
      "dtypes: fp32 | fp16 | bf16 | int8; a -native suffix (or --native)\n"
      "        runs layers IN that representation (INT8 GEMM / 16-bit\n"
      "        storage) instead of emulating on fp32 outputs\n"
      "static calibration: --static-calib PATH freezes per-layer INT8\n"
      "        activation scales (computed by a golden fp32 pass and saved\n"
      "        to PATH on first use; loaded afterwards) so native INT8\n"
      "        layers skip the per-inference absmax pass and keep\n"
      "        conv->ReLU->conv boundaries INT8-resident\n"
      "sharding: --shard-dir alone runs all S shards in-process and merges;\n"
      "          --shard-index K runs this process as shard K only"
      " (pfi_launch\n"
      "          spawns these; merge the manifests with pfi_merge)\n";
}

std::optional<ErrorModel> parse_error_model_spec(const std::string& spec,
                                                 std::string* error) {
  // Every refusal names the spec. Arguments are checked against what the
  // error-model constructors require, so none of them throws from here.
  const auto fail = [&](const std::string& why) -> std::optional<ErrorModel> {
    if (error != nullptr) *error = "error model '" + spec + "': " + why;
    return std::nullopt;
  };
  const auto colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  std::vector<std::string> args;
  for (std::size_t pos = colon; pos != std::string::npos;) {
    const auto next = spec.find(':', pos + 1);
    args.push_back(spec.substr(
        pos + 1, next == std::string::npos ? next : next - pos - 1));
    pos = next;
  }
  if (head == "bitflip") {
    if (args.size() > 1) return fail("bitflip takes at most one argument");
    if (args.empty()) return single_bit_flip(-1);
    const auto bit = util::parse_int(args[0], -1, kFloatBits - 1);
    if (!bit.has_value()) {
      return fail("bit '" + args[0] + "' is not an integer in [-1, " +
                  std::to_string(kFloatBits - 1) + "]");
    }
    return single_bit_flip(static_cast<int>(*bit));
  }
  std::vector<float> values;
  for (const std::string& arg : args) {
    errno = 0;
    char* end = nullptr;
    const float v = std::strtof(arg.c_str(), &end);
    if (arg.empty() || end != arg.c_str() + arg.size()) {
      return fail("'" + arg + "' is not a number");
    }
    if (errno == ERANGE && std::isinf(v)) {
      return fail("'" + arg + "' overflows float");
    }
    values.push_back(v);
  }
  // random and noise draw lo + (hi - lo) * u, which is NaN or +-inf on
  // every draw unless the width hi - lo is finite (so are lo and hi then).
  if (head == "random") {
    if (values.empty()) return random_value();
    if (values.size() != 2) {
      return fail("random takes 0 or 2 arguments (random:LO:HI)");
    }
    const float lo = values[0], hi = values[1];
    if (!(lo < hi) || !std::isfinite(hi - lo)) {
      return fail("random needs finite LO < HI with a finite HI - LO");
    }
    return random_value(lo, hi);
  }
  if (head == "zero" && values.empty()) return zero_value();
  if (head == "const" && values.size() == 1) return constant_value(values[0]);
  if (head == "noise" && values.size() == 1) {
    const float mag = values[0];  // draws from [-mag, mag)
    if (!(mag > 0.0f) || !std::isfinite(mag + mag)) {
      return fail("noise needs MAG > 0 with a finite 2 * MAG");
    }
    return additive_noise(mag);
  }
  if (error != nullptr) *error = "unknown error model '" + spec + "'";
  return std::nullopt;
}

bool parse_persist_spec(const std::string& spec, PersistScenario* scenario,
                        std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::vector<std::string> parts;
  for (std::size_t pos = 0; pos <= spec.size();) {
    const auto colon = spec.find(':', pos);
    parts.push_back(spec.substr(
        pos, colon == std::string::npos ? std::string::npos : colon - pos));
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  if (parts[0] == "stuckat") {
    if (parts.size() < 2 || parts.size() > 3) {
      return fail("stuckat spec is stuckat:N or stuckat:N:0|1, got '" + spec +
                  "'");
    }
    const auto n = util::parse_int(parts[1], 1, 1'000'000'000);
    if (!n.has_value()) {
      return fail("stuck-cell count '" + parts[1] +
                  "' is not a positive integer");
    }
    scenario->stuck_bits = *n;
    if (parts.size() == 3) {
      const auto v = util::parse_int(parts[2], 0, 1);
      if (!v.has_value()) {
        return fail("stuck value '" + parts[2] + "' must be 0 or 1");
      }
      scenario->stuck_value = static_cast<int>(*v);
    }
    return true;
  }
  if (parts[0] == "distance") {
    if (parts.size() != 3) {
      return fail("distance spec is distance:MEAN:STDDEV (bytes), got '" +
                  spec + "'");
    }
    const auto mean = util::parse_double(parts[1]);
    if (!mean.has_value() || *mean <= 0.0) {
      return fail("distance mean '" + parts[1] +
                  "' is not a positive number of bytes");
    }
    const auto stddev = util::parse_double(parts[2]);
    if (!stddev.has_value() || *stddev < 0.0) {
      return fail("distance stddev '" + parts[2] +
                  "' is not a non-negative number of bytes");
    }
    scenario->distance_mean = *mean;
    scenario->distance_stddev = *stddev;
    return true;
  }
  return fail("unknown persist spec '" + spec +
              "' (stuckat:N[:0|1] | distance:MEAN:STDDEV)");
}

std::optional<DType> parse_dtype_name(const std::string& name) {
  if (name == "fp32") return DType::kFloat32;
  if (name == "fp16") return DType::kFloat16;
  if (name == "bf16") return DType::kBFloat16;
  if (name == "int8") return DType::kInt8;
  return std::nullopt;
}

std::optional<DtypeSpec> parse_dtype_spec(const std::string& spec) {
  constexpr std::string_view kSuffix = "-native";
  std::string name = spec;
  bool native = false;
  if (name.size() > kSuffix.size() &&
      name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
          0) {
    native = true;
    name.resize(name.size() - kSuffix.size());
  }
  const auto dt = parse_dtype_name(name);
  if (!dt.has_value()) return std::nullopt;
  return DtypeSpec{.dtype = *dt, .native = native};
}

std::optional<std::vector<LayerResolution>> parse_per_layer_dtype(
    const std::string& text, std::string* error) {
  const auto fail =
      [&](const std::string& why) -> std::optional<std::vector<LayerResolution>> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (text.empty()) return fail("--per-layer-dtype expects PATH=DTYPE[,...]");
  std::vector<LayerResolution> out;
  for (std::size_t pos = 0; pos <= text.size();) {
    const auto comma = text.find(',', pos);
    const std::string entry = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      return fail("per-layer dtype entry '" + entry +
                  "' is not PATH=DTYPE[-native]");
    }
    const std::string spec_text = entry.substr(eq + 1);
    const auto spec = parse_dtype_spec(spec_text);
    if (!spec.has_value()) {
      return fail("unknown dtype '" + spec_text + "' in per-layer entry '" +
                  entry + "'");
    }
    out.push_back({.layer = entry.substr(0, eq),
                   .dtype = spec->dtype,
                   .native = spec->native});
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

CliParse parse_cli_args(int argc, const char* const* argv) {
  CliParse out;
  CliOptions& opt = out.options;
  std::string& error = out.error;

  int i = 1;
  const auto need_value = [&](const std::string& flag) -> const char* {
    if (i + 1 >= argc) {
      error = "flag '" + flag + "' is missing its value";
      return nullptr;
    }
    return argv[++i];
  };

  for (; i < argc && error.empty(); ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--help" || a == "-h") {
      out.show_help = true;
      return out;
    } else if (a == "--list-models") {
      out.list_models = true;
      return out;
    } else if (a == "--per-layer") {
      opt.per_layer = true;
    } else if (a == "--native") {
      opt.native = true;
    } else if (a == "--resume") {
      opt.resume = true;
    } else if (a == "--profile") {
      opt.profile = true;
    } else if (a == "--no-prefix-cache") {
      opt.prefix_cache = false;
    } else if (a == "--no-prune") {
      opt.prune = false;
    } else if (a != "--model" && a != "--dataset" && a != "--dtype" &&
               a != "--per-layer-dtype" &&
               a != "--error" && a != "--trials" && a != "--layer" &&
               a != "--epochs" && a != "--seed" && a != "--threads" &&
               a != "--save" && a != "--load" && a != "--trace" &&
               a != "--checkpoint" && a != "--sampler" &&
               a != "--ci-target" && a != "--shards" &&
               a != "--shard-index" && a != "--shard-horizon" &&
               a != "--shard-dir" && a != "--horizon" && a != "--ber" &&
               a != "--persist" && a != "--static-calib") {
      error = "unknown flag '" + a + "'";
    } else if ((v = need_value(a)) == nullptr) {
      break;  // error already set
    } else if (a == "--model") {
      opt.model = v;
    } else if (a == "--dataset") {
      opt.dataset = v;
    } else if (a == "--dtype") {
      opt.dtype = v;
    } else if (a == "--per-layer-dtype") {
      opt.per_layer_dtype = v;
    } else if (a == "--error") {
      opt.error = v;
    } else if (a == "--trials") {
      const auto n = int_flag(a, v, 1, 1'000'000'000, &error);
      if (n) opt.trials = *n;
    } else if (a == "--layer") {
      const auto n = int_flag(a, v, -1, 1'000'000, &error);
      if (n) opt.layer = *n;
    } else if (a == "--epochs") {
      const auto n = int_flag(a, v, 0, 1'000'000, &error);
      if (n) opt.epochs = *n;
    } else if (a == "--seed") {
      const auto n = uint_flag(a, v, &error);
      if (n) opt.seed = *n;
    } else if (a == "--threads") {
      const auto n = int_flag(a, v, 0, 4096, &error);
      if (n) opt.threads = *n;
    } else if (a == "--save") {
      opt.save_path = v;
    } else if (a == "--load") {
      opt.load_path = v;
    } else if (a == "--trace") {
      opt.trace_path = v;
    } else if (a == "--checkpoint") {
      opt.checkpoint_path = v;
    } else if (a == "--sampler") {
      opt.sampler = v;
    } else if (a == "--ci-target") {
      const auto r = util::parse_double(v, 0.0, 1.0);
      if (!r.has_value() || *r >= 1.0) {
        error = "--ci-target expects a half-width in [0, 1), got '" +
                std::string(v) + "'";
      } else {
        opt.ci_target = *r;
      }
    } else if (a == "--shards") {
      const auto n = int_flag(a, v, 1, kMaxShards, &error);
      if (n) opt.shards = *n;
    } else if (a == "--shard-index") {
      const auto n = int_flag(a, v, 0, kMaxShards - 1, &error);
      if (n) opt.shard_index = *n;
    } else if (a == "--shard-horizon") {
      const auto n = int_flag(a, v, 1, 1'000'000'000'000, &error);
      if (n) opt.shard_horizon = *n;
    } else if (a == "--shard-dir") {
      opt.shard_dir = v;
    } else if (a == "--static-calib") {
      opt.static_calib = v;
    } else if (a == "--horizon") {
      const auto n = int_flag(a, v, 1, 1'000'000'000'000, &error);
      if (n) opt.horizon = *n;
    } else if (a == "--ber") {
      const auto r = util::parse_double(v, 0.0, 1.0);
      if (!r.has_value() || *r >= 1.0) {
        error = "--ber expects a per-bit rate in [0, 1), got '" +
                std::string(v) + "'";
      } else {
        opt.ber = *r;
      }
    } else if (a == "--persist") {
      opt.persist = v;
    }
  }
  if (!error.empty()) return out;

  // Cross-flag validation, shard rules first: everything below mirrors what
  // the engines would refuse anyway, but failing here names the flags.
  if (opt.shard_index >= 0 || opt.shards > 1) {
    if (opt.shard_dir.empty()) {
      error = "--shards/--shard-index need --shard-dir DIR for the shard "
              "checkpoints, logs, and manifests";
      return out;
    }
  }
  if (opt.shard_index >= 0 && opt.shard_index >= opt.shards) {
    error = "--shard-index " + std::to_string(opt.shard_index) +
            " must be < --shards " + std::to_string(opt.shards);
    return out;
  }
  if (opt.shard_mode()) {
    if (!opt.checkpoint_path.empty()) {
      error = "--checkpoint conflicts with sharding — shard runs manage "
              "their own checkpoints under --shard-dir";
      return out;
    }
    if (opt.resume) {
      error = "--resume is implicit in shard mode (shards always resume "
              "from their checkpoints)";
      return out;
    }
    if (opt.per_layer) {
      error = "--per-layer campaigns cannot be sharded";
      return out;
    }
  } else if (opt.shard_horizon != 0) {
    error = "--shard-horizon needs --shard-dir";
    return out;
  }
  if (opt.resume && opt.checkpoint_path.empty()) {
    error = "--resume requires --checkpoint PATH";
    return out;
  }
  // Fleet-mode rules: the persistent fault process replaces the transient
  // error model, and event-ordered accumulation is incompatible with shard
  // partitioning and the stratified estimator.
  if (opt.fleet_mode()) {
    if (opt.shard_mode()) {
      error = "--horizon fleet campaigns accumulate faults across events in "
              "order and cannot be sharded";
      return out;
    }
    if (opt.per_layer) {
      error = "--per-layer does not apply to fleet campaigns (use --layer L "
              "to restrict the fault process)";
      return out;
    }
    if (opt.sampler == "stratified") {
      error = "--sampler stratified is a transient-campaign mode; fleet "
              "campaigns use --ber/--persist";
      return out;
    }
    if (!opt.error.empty()) {
      error = "--error does not apply to fleet campaigns — the fault process "
              "comes from --ber/--persist";
      return out;
    }
    if (opt.ber <= 0.0 && opt.persist.empty()) {
      error = "--horizon needs a fault process: give --ber RATE and/or "
              "--persist SPEC";
      return out;
    }
  } else if (opt.ber > 0.0 || !opt.persist.empty()) {
    error = "--ber/--persist need --horizon N (the number of simulated "
            "inference events)";
    return out;
  }
  if (!opt.persist.empty()) {
    PersistScenario scratch;
    std::string persist_error;
    if (!parse_persist_spec(opt.persist, &scratch, &persist_error)) {
      error = persist_error;
      return out;
    }
  }
  if (opt.sampler != "uniform" && opt.sampler != "stratified") {
    error = "unknown sampler '" + opt.sampler + "'";
    return out;
  }
  if (opt.sampler == "stratified") {
    if (!opt.error.empty()) {
      error = "--sampler stratified imposes the single-bit-flip model; "
              "--error does not apply";
      return out;
    }
    if (opt.per_layer) {
      error = "--per-layer is the uniform sampler's mode";
      return out;
    }
    if (opt.ci_target > 0.0 && opt.shard_mode()) {
      error = "--ci-target campaigns couple strata through the pooled "
              "interval and cannot be sharded — drop --ci-target or run "
              "single-process";
      return out;
    }
  } else if (opt.ci_target > 0.0) {
    error = "--ci-target requires --sampler stratified";
    return out;
  }
  const auto dtype_spec = parse_dtype_spec(opt.dtype);
  if (dtype_spec == std::nullopt) {
    error = "unknown dtype '" + opt.dtype + "'";
    return out;
  }
  // Fold a "-native" suffix into the flag so downstream code reads ONE
  // source of truth (opt.native + the bare dtype token).
  if (dtype_spec->native) {
    opt.native = true;
    opt.dtype = dtype_name(dtype_spec->dtype);
  }
  if (!opt.per_layer_dtype.empty()) {
    std::string pl_error;
    if (parse_per_layer_dtype(opt.per_layer_dtype, &pl_error) ==
        std::nullopt) {
      error = pl_error;
      return out;
    }
  }
  if (opt.error.empty()) opt.error = "random";
  std::string model_error;
  if (parse_error_model_spec(opt.error, &model_error) == std::nullopt) {
    error = model_error;
    return out;
  }
  return out;
}

}  // namespace pfi::core
