// pfi_cli's argument parser as a library. Extracted from the binary so the
// parser is unit-testable (tests/test_cli.cpp): parsing never prints and
// never exits — every outcome, including usage errors, comes back as data.
// The binary turns CliParse::error into stderr + exit(2), show_help into
// the usage text, and list_models into the model list.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/error_models.hpp"
#include "core/fault_injector.hpp"
#include "core/persistent.hpp"

namespace pfi::core {

/// Everything pfi_cli can be told. Field defaults ARE the CLI defaults.
struct CliOptions {
  std::string model = "resnet18";
  std::string dataset = "cifar10";
  std::string dtype = "fp32";
  /// Execute instrumented layers natively at `dtype` (INT8 GEMM / 16-bit
  /// storage) rather than emulating on fp32 outputs. Also set by a
  /// "-native" dtype suffix ("int8-native").
  bool native = false;
  /// Raw --per-layer-dtype spec ("PATH=DTYPE,PATH=DTYPE,..."); empty = no
  /// per-layer overrides. Parsed/validated by parse_per_layer_dtype.
  std::string per_layer_dtype;
  std::string error;  ///< error-model spec; empty = "random" after parsing
  std::string sampler = "uniform";
  double ci_target = 0.0;
  bool prune = true;
  std::int64_t trials = 500;
  std::int64_t layer = -1;
  bool per_layer = false;
  std::int64_t epochs = 3;
  std::uint64_t seed = 1;
  std::int64_t threads = 0;  ///< 0 = hardware concurrency
  std::string save_path;
  std::string load_path;
  std::string trace_path;
  std::string checkpoint_path;
  bool resume = false;
  bool profile = false;
  bool prefix_cache = true;
  /// Static activation calibration file (--static-calib PATH): load the
  /// frozen per-layer INT8 activation scales from PATH, or — when PATH does
  /// not exist yet — run the golden fp32 calibration pass, write PATH, and
  /// then use it. Only meaningful with a native INT8 dtype. Empty = dynamic
  /// per-forward calibration.
  std::string static_calib;
  // Sharded-campaign mode (core/shard.hpp). Sharding engages when
  // --shard-dir is given: --shard-index runs this process as ONE shard
  // worker (pfi_launch spawns these); without it the process runs all
  // shards in-process and merges.
  std::int64_t shards = 1;
  std::int64_t shard_index = -1;  ///< -1 = not a worker (run all + merge)
  std::int64_t shard_horizon = 0;  ///< 0 = auto
  std::string shard_dir;
  // Fleet-degradation mode (core/persistent.hpp). Engages when --horizon is
  // given: the model serves `horizon` inference events while the persistent
  // fault process configured by --ber / --persist corrupts its weights.
  double ber = 0.0;       ///< per-bit upset probability per event
  std::string persist;    ///< raw --persist spec; see parse_persist_spec
  std::int64_t horizon = 0;  ///< 0 = no fleet mode

  bool shard_mode() const { return !shard_dir.empty(); }
  bool fleet_mode() const { return horizon > 0; }
};

/// Outcome of parsing one argv. Exactly one of these holds: ok() (run the
/// campaign), show_help / list_models (print and exit 0), or a non-empty
/// error (print usage to stderr and exit 2).
struct CliParse {
  CliOptions options;
  std::string error;
  bool show_help = false;
  bool list_models = false;

  bool ok() const { return error.empty() && !show_help && !list_models; }
};

/// Parse pfi_cli's argv (argv[0] is skipped, as usual). Pure: no I/O, no
/// exit; all validation failures land in CliParse::error with the flag
/// named.
CliParse parse_cli_args(int argc, const char* const* argv);

/// The usage text the binary prints for --help / usage errors.
std::string cli_usage();

/// Parse an error-model spec (bitflip | bitflip:BIT | random |
/// random:LO:HI | zero | const:V | noise:MAG). BIT is an integer in
/// [-1, 31] (-1: a random bit per injection). LO and HI must be finite with
/// LO < HI and a finite HI - LO; MAG must be positive with a finite 2 * MAG,
/// the width of the range it draws from. V may be any float, an explicit
/// inf or nan included, because a non-finite constant is a meaningful fault
/// value; only a literal that overflows float (const:1e39) is refused. On
/// failure, including an argument the model's constructor would refuse,
/// returns nullopt and, when `error` is non-null, stores an explanation that
/// names the spec.
std::optional<ErrorModel> parse_error_model_spec(const std::string& spec,
                                                 std::string* error = nullptr);

/// Parse a dtype name (fp32 | fp16 | bf16 | int8); nullopt on anything else.
std::optional<DType> parse_dtype_name(const std::string& name);

/// A dtype token with its execution mode: "int8" parses as emulated INT8,
/// "int8-native" as the native INT8 inference path (and likewise for
/// fp16/bf16; "fp32-native" is accepted and means plain fp32).
struct DtypeSpec {
  DType dtype = DType::kFloat32;
  bool native = false;
};

/// Parse a dtype spec token (DTYPE or DTYPE-native); nullopt on anything
/// else.
std::optional<DtypeSpec> parse_dtype_spec(const std::string& spec);

/// Parse a --persist spec onto `scenario`:
///   stuckat:N        N stuck-at cells, each stuck at a random value
///   stuckat:N:V      N cells stuck at V (0 or 1)
///   distance:M:S     distance-based errors, N(M, S) bytes apart
/// Returns false and (when `error` is non-null) stores an explanation on a
/// malformed spec. --ber rides in its own flag, not this spec.
bool parse_persist_spec(const std::string& spec, PersistScenario* scenario,
                        std::string* error = nullptr);

/// Parse a --per-layer-dtype value: comma-separated PATH=DTYPE[-native]
/// entries, e.g. "features.0=int8-native,features.3=fp16". Layer paths are
/// validated later, at injector construction, against the instrumented
/// model. On failure returns nullopt and, when `error` is non-null, stores
/// an explanation.
std::optional<std::vector<LayerResolution>> parse_per_layer_dtype(
    const std::string& text, std::string* error = nullptr);

}  // namespace pfi::core
